"""Conservative parallel DES: shard planning and serial-vs-sharded
bit-identity on a flat (fig8-style) world and a multi-switch pod world."""

import json

import pytest

from repro.core.world import WorldConfig
from repro.network import ClusterConfig, build_cluster
from repro.simkernel import SECOND, Kernel
from repro.simkernel.pdes import PDESResult, ShardPlan, run_sharded
from repro.workloads.halo import make_halo
from repro.workloads.mpbench import make_pingpong


# ---------------------------------------------------------------------------
# ShardPlan: the static partition
# ---------------------------------------------------------------------------
def test_plan_rejects_bad_shard_counts():
    with pytest.raises(ValueError):
        ShardPlan(n_procs=4, n_pods=1, n_shards=0)
    with pytest.raises(ValueError):
        ShardPlan(n_procs=4, n_pods=1, n_shards=5)


def test_ranks_partition_contiguously():
    plan = ShardPlan(n_procs=8, n_pods=4, n_shards=4)
    shards = [plan.shard_of_rank(r) for r in range(8)]
    assert shards == sorted(shards)  # contiguous
    all_ranks = [r for s in range(4) for r in plan.ranks_of(s)]
    assert all_ranks == list(range(8))  # a partition, in order
    assert {len(plan.ranks_of(s)) for s in range(4)} == {2}  # balanced


def test_link_shards_matches_built_topology():
    cfg = ClusterConfig(n_hosts=8, n_paths=2, n_pods=4)
    cluster = build_cluster(Kernel(seed=1), cfg)
    plan = ShardPlan(n_procs=8, n_pods=4, n_shards=4)
    owners = plan.link_shards(cfg.n_paths, cfg.switch_name)
    assert set(owners) == set(cluster.links)


def test_pod_aligned_sharding_cuts_only_trunks():
    cfg = ClusterConfig(n_hosts=8, n_pods=4)
    plan = ShardPlan(n_procs=8, n_pods=4, n_shards=4)
    owners = plan.link_shards(cfg.n_paths, cfg.switch_name)
    cut = {name for name, (src, dst) in owners.items() if src != dst}
    assert cut == {
        name for name in owners if name.startswith("sw") and "->sw" in name
    }
    assert len(cut) == 4 * 3  # full trunk mesh between 4 pod switches


def test_flat_world_sharding_cuts_host_switch_links():
    # one switch, two shards: the switch lives on shard 0, so every link
    # touching a shard-1 host crosses the boundary
    plan = ShardPlan(n_procs=2, n_pods=1, n_shards=2)
    cfg = ClusterConfig(n_hosts=2, n_pods=1)
    owners = plan.link_shards(cfg.n_paths, cfg.switch_name)
    assert owners["h0p0->sw0"] == (0, 0)
    assert owners["h1p0->sw0"] == (1, 0)
    assert owners["sw0->h1p0"] == (0, 1)


# ---------------------------------------------------------------------------
# serial vs sharded bit-identity
# ---------------------------------------------------------------------------
def _canonical(result: PDESResult) -> str:
    """Everything a parity comparison may look at, as one JSON blob."""
    return json.dumps(
        {
            "results": result.results,
            "events": result.events_processed,
            "horizon": result.horizon_ns,
            "metrics": result.metrics,
        },
        sort_keys=True,
    )


def _parity(config: WorldConfig, app, n_shards: int, horizon_ns: int) -> None:
    serial = run_sharded(app, config=config, horizon_ns=horizon_ns, n_shards=1)
    sharded = run_sharded(
        app, config=config, horizon_ns=horizon_ns, n_shards=n_shards
    )
    assert sharded.events_processed == serial.events_processed
    assert _canonical(sharded) == _canonical(serial)


def test_fig8_world_serial_vs_sharded_identical():
    # the paper's flat-switch testbed shape, cut host-vs-switch
    _parity(
        WorldConfig(n_procs=2, rpi="sctp", seed=3),
        make_pingpong(4096, 2),
        n_shards=2,
        horizon_ns=SECOND,
    )


def test_multi_switch_world_serial_vs_sharded_identical():
    # pod world: 4 ranks over 2 pod switches + trunks, cut pod-vs-pod
    _parity(
        WorldConfig(n_procs=4, rpi="sctp", seed=3, n_pods=2),
        make_halo(2048, 2),
        n_shards=2,
        horizon_ns=SECOND,
    )


def test_tcp_world_serial_vs_sharded_identical():
    _parity(
        WorldConfig(n_procs=2, rpi="tcp", seed=5),
        make_pingpong(4096, 2),
        n_shards=2,
        horizon_ns=SECOND,
    )


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_multi_packet_bursts_across_the_cut_keep_event_counts_equal(rpi):
    # 16 KiB messages: a dozen back-to-back frames queue on each cut
    # link, so the divert hands over packets whose serialisation has not
    # even started; with one event per hop the sending shard fires
    # nothing for them and the receiving shard fires the delivery, which
    # must add up to exactly the serial count
    _parity(
        WorldConfig(n_procs=2, rpi=rpi, seed=7),
        make_pingpong(16 * 1024, 3),
        n_shards=2,
        horizon_ns=SECOND,
    )


def test_divert_happens_at_send_time_with_the_delivery_instant():
    from repro.network import Link, Packet

    k = Kernel()
    link = Link(k, "cut", 1_000_000_000, prop_delay_ns=5_000, sink=lambda p: None)
    diverted = []
    link.divert = lambda lnk, packet, deliver_at: diverted.append(
        (lnk.name, packet.payload, deliver_at)
    )
    for i in range(2):
        link.send(Packet(src="a", dst="b", proto="t", payload=i, wire_size=1500))
    # handed over immediately, nothing scheduled locally; the second
    # frame serialises behind the first (12 us each) before propagating
    assert diverted == [("cut", 0, 17_000), ("cut", 1, 29_000)]
    assert k.pending_events() == 0
    # lookahead: delivery is at least serialisation + propagation away
    assert all(at - k.now > link.prop_delay_ns for _, _, at in diverted)
    assert link.queued_bytes == 3000 and link.tx_packets == 2


def test_horizon_too_short_raises():
    from repro.simkernel.pdes import HorizonError

    with pytest.raises(HorizonError, match="horizon"):
        run_sharded(
            make_pingpong(4096, 2),
            config=WorldConfig(n_procs=2, rpi="sctp", seed=3),
            horizon_ns=1000,  # 1us: MPI_Init cannot even finish
            n_shards=1,
        )


# ---------------------------------------------------------------------------
# shard supervision: crash/hang detection and graceful degradation
# ---------------------------------------------------------------------------
def _degrade_case(chaos: str, shard_timeout_s: float = 5.0, **kw) -> PDESResult:
    return run_sharded(
        make_pingpong(4096, 2),
        config=WorldConfig(n_procs=2, rpi="sctp", seed=3),
        horizon_ns=SECOND,
        n_shards=2,
        shard_timeout_s=shard_timeout_s,
        chaos=chaos,
        **kw,
    )


def test_killed_shard_degrades_to_serial_byte_identical(capsys):
    serial = run_sharded(
        make_pingpong(4096, 2),
        config=WorldConfig(n_procs=2, rpi="sctp", seed=3),
        horizon_ns=SECOND,
        n_shards=1,
    )
    degraded = _degrade_case("kill:1:1")
    assert degraded.degraded
    assert "exit code 70" in degraded.degraded_reason
    assert _canonical(degraded) == _canonical(serial)
    assert "degraded to serial" in capsys.readouterr().err
    # markers never leak into the shard-invariant comparison surface
    assert "degraded" not in _canonical(degraded)


def test_hung_shard_is_reaped_and_degrades():
    degraded = _degrade_case("hang:0:1", shard_timeout_s=2.0)
    assert degraded.degraded
    assert "stalled" in degraded.degraded_reason
    assert degraded.results  # the serial leg really ran


def test_no_degrade_raises_shard_failure():
    from repro.simkernel.pdes import ShardExchangeError, ShardFailure

    with pytest.raises(ShardFailure, match="shard 1"):
        _degrade_case("kill:1:1", degrade_to_serial=False)
    assert issubclass(ShardFailure, ShardExchangeError)  # old handlers still catch


def test_healthy_run_is_not_degraded():
    result = run_sharded(
        make_pingpong(4096, 2),
        config=WorldConfig(n_procs=2, rpi="sctp", seed=3),
        horizon_ns=SECOND,
        n_shards=2,
        shard_timeout_s=30.0,
    )
    assert not result.degraded and result.degraded_reason is None


def test_chaos_spec_validation():
    from repro.simkernel.pdes import _parse_chaos

    assert _parse_chaos(None, 2) is None
    assert _parse_chaos("kill:1", 2) == ("kill", 1, 1)
    assert _parse_chaos("hang:0:3", 2) == ("hang", 0, 3)
    for bad in ("kill", "boom:0", "kill:2", "kill:0:0", "kill:0:1:2"):
        with pytest.raises(ValueError):
            _parse_chaos(bad, 2)
