"""Path state, multihoming, heartbeats, failover (paper §3.5.1)."""

from repro.faults import primary_blackhole
from repro.simkernel import SECOND
from repro.transport.sctp import SCTPConfig
from repro.transport.sctp.paths import ACTIVE, INACTIVE, PathState
from repro.util.blobs import RealBlob, SyntheticBlob

from ..conftest import make_cluster, sctp_pair
from .test_sctp_transfer import pump_messages

MTU = 1452


def make_path(**kw):
    return PathState("10.0.0.2", mtu_payload=MTU, initial_peer_rwnd=220 * 1024, **kw)


# ---------------------------------------------------------------------------
# PathState unit tests
# ---------------------------------------------------------------------------
def test_initial_cwnd_rfc4960():
    p = make_path()
    assert p.cwnd == min(4 * MTU, max(2 * MTU, 4380))
    assert p.in_slow_start  # cwnd <= ssthresh


def test_one_byte_rule():
    p = make_path()
    p.outstanding_bytes = p.cwnd - 1
    assert p.can_send()  # any space at all admits a full PMTU
    p.outstanding_bytes = p.cwnd
    assert not p.can_send()


def test_slow_start_byte_counting():
    p = make_path()
    before = p.cwnd
    p.on_bytes_acked(10_000, cwnd_was_full=True)
    assert p.cwnd == before + MTU  # growth capped at one PMTU per SACK
    before = p.cwnd
    p.on_bytes_acked(500, cwnd_was_full=True)
    assert p.cwnd == before + 500  # ... and at the bytes actually acked
    before = p.cwnd
    p.on_bytes_acked(500, cwnd_was_full=False)
    assert p.cwnd == before  # idle windows never grow


def test_congestion_avoidance_partial_bytes():
    p = make_path()
    p.ssthresh = p.cwnd - 1  # force CA
    grown = 0
    for _ in range(10):
        before = p.cwnd
        p.on_bytes_acked(MTU, cwnd_was_full=True)
        grown += p.cwnd - before
    assert 0 < grown <= 4 * MTU  # roughly one PMTU per cwnd of data


def test_fast_retransmit_halves_once_per_loss_event():
    p = make_path()
    p.cwnd = 20 * MTU
    p.on_fast_retransmit(highest_outstanding_tsn=100)
    halved = p.cwnd
    assert halved == max(10 * MTU, 4 * MTU)
    p.on_fast_retransmit(highest_outstanding_tsn=101)  # same event window
    assert p.cwnd == halved  # NewReno-SCTP: no double halving
    p.on_cum_advance(100)  # loss event fully repaired
    p.on_fast_retransmit(highest_outstanding_tsn=200)
    assert p.cwnd < halved


def test_timeout_collapses_to_one_mtu():
    p = make_path()
    p.cwnd = 30 * MTU
    p.on_timeout()
    assert p.cwnd == MTU
    assert p.ssthresh == max(15 * MTU, 4 * MTU)


def test_error_counting_and_reactivation():
    p = make_path(path_max_retrans=2)
    for _ in range(3):
        p.note_error()
    assert p.state == INACTIVE
    p.note_success()
    assert p.state == ACTIVE and p.error_count == 0


# ---------------------------------------------------------------------------
# multihoming end-to-end
# ---------------------------------------------------------------------------
def failover_config():
    return SCTPConfig(path_max_retrans=1, heartbeat_interval_ns=2 * SECOND)


def test_association_learns_all_peer_addresses():
    kernel, cluster = make_cluster(n_hosts=2, n_paths=2)
    s0, s1, aid = sctp_pair(kernel, cluster)
    assoc = s0.association(aid)
    assert set(assoc.paths) == {"10.0.0.2", "10.1.0.2"}
    assert assoc.primary_addr == "10.0.0.2"


def test_failover_to_alternate_path():
    kernel, cluster = make_cluster(n_hosts=2, n_paths=2)
    s0, s1, aid = sctp_pair(kernel, cluster, config=failover_config())
    assoc = s0.association(aid)
    # black out the primary subnet for the rest of the run, then send
    cluster.arm_scenario(primary_blackhole(start_ns=kernel.now, duration_ns=0))
    sent = 0
    bodies = 6

    async def sender():
        nonlocal sent
        while sent < bodies:
            if s0.sendmsg(aid, 0, SyntheticBlob(2_000)):
                sent += 1
            else:
                await kernel.sleep(5_000_000)

    kernel.spawn(sender())
    msgs = pump_messages(kernel, s1, bodies, limit_s=300)
    assert len(msgs) == bodies
    assert assoc.paths["10.0.0.2"].state == INACTIVE
    assert assoc.paths["10.1.0.2"].state == ACTIVE
    assert assoc.stats.failovers > 0


def test_retransmissions_prefer_alternate_path():
    """§4.1.1 final bullet: with both paths alive, a retransmission goes
    to an alternate active address, not the path that lost the chunk."""
    kernel, cluster = make_cluster(n_hosts=2, n_paths=2, loss_rate=0.05, seed=8)
    s0, s1, aid = sctp_pair(kernel, cluster)
    assoc = s0.association(aid)
    for _ in range(20):
        s0.sendmsg(aid, 0, RealBlob(b"r" * 4_000))
    pump_messages(kernel, s1, 20, limit_s=300)
    assert assoc.stats.retransmitted_chunks > 0
    assert assoc.stats.failovers > 0  # retransmits moved to the alternate


def test_fast_retransmit_strikes_are_hash_order_independent():
    """Regression: the fast-retransmit path-strike pass once iterated a
    ``set`` of address strings, so strike order — and therefore cwnd
    evolution — varied with PYTHONHASHSEED.  The lossy multihomed run
    below must now produce identical outcomes under different seeds."""
    import json
    import os
    import subprocess
    import sys

    script = (
        "from repro.simkernel import Kernel\n"
        "from repro.network import ClusterConfig, build_cluster\n"
        "from repro.transport.sctp import OneToManySocket, SCTPConfig, SCTPEndpoint\n"
        "from repro.util.blobs import RealBlob\n"
        "import json\n"
        "kernel = Kernel(seed=8)\n"
        "cluster = build_cluster(kernel, ClusterConfig(\n"
        "    n_hosts=2, loss_rate=0.05, n_paths=2))\n"
        "cfg = SCTPConfig()\n"
        "e0 = SCTPEndpoint(cluster.hosts[0], cfg)\n"
        "e1 = SCTPEndpoint(cluster.hosts[1], cfg)\n"
        "s0 = OneToManySocket(e0, 6000, cfg)\n"
        "s1 = OneToManySocket(e1, 6000, cfg)\n"
        "fut = s0.connect(cluster.host_address(1), 6000)\n"
        "aid = kernel.run_until(fut, limit=60_000_000_000)\n"
        "for _ in range(20):\n"
        "    s0.sendmsg(aid, 0, RealBlob(b'r' * 4_000))\n"
        "got = 0\n"
        "async def pump():\n"
        "    global got\n"
        "    while got < 20:\n"
        "        if s1.recvmsg() is None:\n"
        "            await kernel.sleep(1_000_000)\n"
        "        else:\n"
        "            got += 1\n"
        "kernel.spawn(pump())\n"
        "kernel.run(until=kernel.now + 300_000_000_000)\n"
        "assoc = s0.association(aid)\n"
        "print(json.dumps({'got': got, 'now': kernel.now,\n"
        "    'rtx': assoc.stats.retransmitted_chunks,\n"
        "    'frtx': assoc.stats.fast_retransmits,\n"
        "    'cwnd': {a: p.cwnd for a, p in assoc.paths.items()}},\n"
        "    sort_keys=True))\n"
    )

    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

    def run(seed):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH", "")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=300, check=True,
        )
        return json.loads(out.stdout)

    first, second = run(1), run(424242)
    assert first == second
    assert first["got"] == 20
    assert first["frtx"] > 0  # the strike pass actually ran


OUTAGE_NS = 20 * SECOND  # failover completes about 9.4 s into it


def _drive_failover(kernel, cluster, s0, s1, aid, bodies=6):
    """Black out the primary subnet for ``OUTAGE_NS`` and push traffic
    until the association fails over; returns the instant the window
    closes."""
    outage_end = kernel.now + OUTAGE_NS
    cluster.arm_scenario(primary_blackhole(start_ns=kernel.now, duration_ns=OUTAGE_NS))
    sent = 0

    async def sender():
        nonlocal sent
        while sent < bodies:
            if s0.sendmsg(aid, 0, SyntheticBlob(2_000)):
                sent += 1
            else:
                await kernel.sleep(5_000_000)

    kernel.spawn(sender())
    msgs = pump_messages(kernel, s1, bodies, limit_s=300)
    assert len(msgs) == bodies
    assert kernel.now < outage_end, "failover must finish inside the outage"
    return outage_end


def test_heartbeat_ack_resets_error_count_after_failover():
    """RFC 4960 §8.3: a HEARTBEAT-ACK on a failed-over path clears its
    error count and flips it back to ACTIVE — the error budget must not
    stay spent once the path has proven itself again."""
    kernel, cluster = make_cluster(n_hosts=2, n_paths=2)
    s0, s1, aid = sctp_pair(kernel, cluster, config=failover_config())
    assoc = s0.association(aid)
    outage_end = _drive_failover(kernel, cluster, s0, s1, aid)
    primary = assoc.paths["10.0.0.2"]
    assert primary.state == INACTIVE and primary.error_count > 0
    assert assoc._active_path().addr == "10.1.0.2"  # data on the alternate
    kernel.run(until=outage_end)
    assert primary.state == INACTIVE  # no heartbeat got through the outage
    acks_before = assoc.stats.heartbeat_acks_received
    kernel.run(until=outage_end + 60 * SECOND)
    assert assoc.stats.heartbeat_acks_received > acks_before
    assert primary.error_count == 0
    assert primary.state == ACTIVE


def test_failback_to_primary_after_path_restore():
    """Failback: once the outage window closes and heartbeats reactivate
    the primary, data selection prefers it over the alternate that
    carried the failover traffic, and transfers complete on it."""
    kernel, cluster = make_cluster(n_hosts=2, n_paths=2)
    s0, s1, aid = sctp_pair(kernel, cluster, config=failover_config())
    assoc = s0.association(aid)
    outage_end = _drive_failover(kernel, cluster, s0, s1, aid)
    assert assoc.paths["10.0.0.2"].state == INACTIVE
    assert assoc._active_path().addr == "10.1.0.2"  # data on the alternate
    kernel.run(until=outage_end + 60 * SECOND)
    assert assoc.paths["10.0.0.2"].state == ACTIVE
    assert assoc.primary_addr == "10.0.0.2"  # failover never moved primary
    assert assoc._active_path().addr == "10.0.0.2"  # selection is back on it
    for _ in range(4):
        assert s0.sendmsg(aid, 0, SyntheticBlob(2_000))
    msgs = pump_messages(kernel, s1, 4, limit_s=300)
    assert len(msgs) == 4


def test_heartbeats_probe_idle_paths():
    kernel, cluster = make_cluster(n_hosts=2, n_paths=2)
    cfg = SCTPConfig(heartbeat_interval_ns=1 * SECOND)
    s0, s1, aid = sctp_pair(kernel, cluster, config=cfg)
    assoc = s0.association(aid)
    kernel.run(until=kernel.now + 10 * SECOND)
    # the alternate path has carried no data; only heartbeats keep its RTT
    alt = assoc.paths["10.1.0.2"]
    assert alt.rto.srtt_ns is not None  # heartbeat-ack produced an RTT sample
    assert alt.state == ACTIVE


def test_set_primary():
    import pytest

    kernel, cluster = make_cluster(n_hosts=2, n_paths=2)
    s0, s1, aid = sctp_pair(kernel, cluster)
    assoc = s0.association(aid)
    assoc.set_primary("10.1.0.2")
    assert assoc.primary_addr == "10.1.0.2"
    with pytest.raises(ValueError):
        assoc.set_primary("10.9.9.9")
