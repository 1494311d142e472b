"""Write readiness of both RPIs is an optimisation only (DESIGN §9.4).

Each RPI keeps a stall record per peer: the SCTP RPI the smallest next
piece an association's send room refused on the last outbound walk, the
TCP RPI the sockets whose last write filled the send buffer
(``Selector.stalled``).  The pump passes over a stalled peer, both
pumps skip the walk when nothing could progress, and freed send room
wakes an SCTP rank only when it lifts a stall (the socket reports it
only while a walk is due or once it reaches a stalled head's size).
Each world below runs
twice -- with stall records, and with stalls disabled (nothing is ever
recorded, every walk is due, every freed room wakes the rank) -- and
must produce the same ranks' results, units, kernel events and
association/connection counters; only progression steps and transport
send calls may drop.

The last test shuts an association down under a stalled rank: the lift
without a wake must leave the next pump raising what it raised before.
"""

from dataclasses import asdict

import pytest

from repro.core.rpi.sctp_rpi import SCTPRPI
from repro.core.rpi.tcp_rpi import TCPRPI
from repro.core.world import World, WorldConfig
from repro.transport.sctp import OneToManySocket, SCTPConfig
from repro.transport.tcp import Selector, TCPSocket
from repro.workloads.farm import FarmParams, make_farm
from repro.workloads.halo import make_halo
from repro.workloads.interleave_mix import make_interleave_mix
from repro.workloads.mpbench import make_pingpong

WORLDS = {
    "halo_8x2pods": (
        dict(rpi="sctp", n_procs=8, n_pods=2, seed=1),
        lambda: make_halo(128 * 1024, 3),
    ),
    "farm_4_lossy": (
        dict(rpi="sctp", n_procs=4, loss_rate=0.01, seed=1),
        lambda: make_farm(FarmParams(num_tasks=40, fanout=10)),
    ),
    "interleave_rr": (
        dict(
            rpi="sctp", n_procs=2, seed=1, eager_limit=192 * 1024,
            sctp_config=SCTPConfig(interleaving=True, scheduler="rr"),
        ),
        lambda: make_interleave_mix(128 * 1024, 1024, rounds=4, bulks_per_round=2),
    ),
    "pingpong_16k": (
        dict(rpi="sctp", n_procs=2, seed=1),
        lambda: make_pingpong(16 * 1024, 50),
    ),
    "tcp_farm_4_lossy": (
        dict(rpi="tcp", n_procs=4, loss_rate=0.01, seed=1),
        lambda: make_farm(FarmParams(num_tasks=40, fanout=10)),
    ),
    "tcp_pingpong_16k": (
        dict(rpi="tcp", n_procs=2, seed=1),
        lambda: make_pingpong(16 * 1024, 50),
    ),
}


class _NeverStalled(dict):
    """A stall record that never records (SCTP: rank -> need)."""

    def __setitem__(self, rank, need):
        pass


class _NeverStalledSockets(set):
    """A stall record that never records (TCP: sockets)."""

    def add(self, sock):
        pass


def _always(_self):
    return True


def _ignored(_self, _value):
    pass


def _stalls_disabled(monkeypatch):
    sctp_init = SCTPRPI.__init__
    selector_init = Selector.__init__

    def sctp_init_never_stalling(self, *args, **kwargs):
        sctp_init(self, *args, **kwargs)
        self._stalled = _NeverStalled()

    def selector_init_never_stalling(self, *args, **kwargs):
        selector_init(self, *args, **kwargs)
        self.stalled = _NeverStalledSockets()

    monkeypatch.setattr(SCTPRPI, "__init__", sctp_init_never_stalling)
    # every walk is due, so every freed send room wakes the rank: the
    # socket reports all of it
    monkeypatch.setattr(SCTPRPI, "_walk_due", property(_always, _ignored), raising=False)
    monkeypatch.setattr(
        OneToManySocket, "writable_wanted", property(_always, _ignored), raising=False
    )
    monkeypatch.setattr(Selector, "__init__", selector_init_never_stalling)
    # and every TCP pump walks the queues, as when nothing was stalled
    monkeypatch.setattr(TCPRPI, "_walk_due", property(_always, _ignored), raising=False)


def _run(name, monkeypatch):
    sends = [0]
    sendmsg = OneToManySocket.sendmsg
    send = TCPSocket.send

    def counted_sendmsg(sock, *args, **kwargs):
        sends[0] += 1
        return sendmsg(sock, *args, **kwargs)

    def counted_send(sock, blob):
        sends[0] += 1
        return send(sock, blob)

    monkeypatch.setattr(OneToManySocket, "sendmsg", counted_sendmsg)
    monkeypatch.setattr(TCPSocket, "send", counted_send)
    config, app = WORLDS[name]
    world = World(WorldConfig(**config))
    result = world.run(app())
    stats = [proc.rpi.stats for proc in world.processes]
    if config["rpi"] == "sctp":
        counters = [asdict(ep.total_stats()) for ep in world.endpoints]
    else:
        counters = [[asdict(s) for s in ep._all_conn_stats] for ep in world.endpoints]
    outputs = {
        "results": repr(result.results),
        "units_sent": [s.units_sent for s in stats],
        "events": world.kernel.events_processed,
        "transport_counters": counters,
        "cpu_busy_ns": [host.cpu.total_busy_ns for host in world.cluster.hosts],
    }
    return outputs, [s.advance_calls for s in stats], sends[0]


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_gate_moves_nothing_but_progression_steps(name, monkeypatch):
    """Progression steps and send calls may drop; nothing else moves."""
    with monkeypatch.context() as patch:
        stalled, stalled_steps, stalled_sends = _run(name, patch)
    with monkeypatch.context() as patch:
        _stalls_disabled(patch)
        unstalled, unstalled_steps, unstalled_sends = _run(name, patch)
    assert stalled == unstalled
    assert all(s <= u for s, u in zip(stalled_steps, unstalled_steps))
    assert stalled_sends <= unstalled_sends
    if name in ("halo_8x2pods", "farm_4_lossy"):
        assert sum(stalled_steps) < sum(unstalled_steps)
    if name == "tcp_farm_4_lossy":
        assert stalled_sends < unstalled_sends


async def _quit_on_a_stalled_sender(comm):
    """Rank 1 finalizes at once; rank 0 queues more than its send buffer
    holds toward it and pumps again the moment the association shuts down."""
    if comm.rank == 1:
        return None
    rpi = comm.rpi
    seen = {}
    lift = rpi.sock.on_assoc_shutdown

    def next_pump_after_shutdown(assoc_id):
        seen["stalled_on"] = sorted(rpi._stalled)
        lift(assoc_id)
        try:
            rpi.poke()
        except BrokenPipeError as exc:
            seen["raised"] = str(exc)

    rpi.sock.on_assoc_shutdown = next_pump_after_shutdown
    requests = [comm.isend(b"x" * 60000, dest=1, tag=i) for i in range(8)]
    try:
        await comm.waitall(requests)
    except BrokenPipeError as exc:
        seen["rank_raised"] = (str(exc), comm.process.kernel.now)
    return seen


def _shutdown_under_stall():
    world = World(WorldConfig(
        n_procs=2, rpi="sctp", seed=1, finalize_barrier=False,
        sctp_config=SCTPConfig(sndbuf=72 * 1024),
    ))
    result = world.run(_quit_on_a_stalled_sender, limit_ns=10**9)
    return result.results[0], world.kernel.events_processed


def test_shutdown_lifts_a_stall_and_the_next_pump_raises(monkeypatch):
    seen, events = _shutdown_under_stall()
    with monkeypatch.context() as patch:
        _stalls_disabled(patch)
        seen_unstalled, events_unstalled = _shutdown_under_stall()
    assert seen["stalled_on"] == [1]  # the rank was stalled on the peer
    assert seen["raised"] == "send in state SHUTDOWN_RECEIVED"
    assert seen_unstalled["stalled_on"] == []
    assert seen["raised"] == seen_unstalled["raised"]
    assert seen["rank_raised"] == seen_unstalled["rank_raised"]
    assert events == events_unstalled
