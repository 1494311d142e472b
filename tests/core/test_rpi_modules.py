"""RPI-module specifics: mesh init, stream mapping, demux, select usage."""

from dataclasses import replace
from functools import cached_property

import pytest

from repro.analyze.sanitize import InvariantViolation, sanitized
from repro.bench.harness import _collective_storm
from repro.core import run_app
from repro.core.world import World, WorldConfig
from repro.transport.sctp import MessageTooBig, SCTPConfig
from repro.util.blobs import SyntheticBlob

LIMIT = 300_000_000_000


async def _noop_app(comm):
    await comm.barrier()
    return comm.rank


# ---------------------------------------------------------------------------
# TCP RPI
# ---------------------------------------------------------------------------
def test_tcp_rpi_builds_full_mesh():
    world = World(WorldConfig(n_procs=5, rpi="tcp", seed=1))

    async def app(comm):
        # check inside the app: finalize retires sockets afterwards
        return set(comm.rpi._sock_by_rank)

    result = world.run(app, limit_ns=LIMIT)
    for rank, socks in enumerate(result.results):
        # one socket per peer: the paper's N-1 descriptors per process
        assert socks == set(range(5)) - {rank}


def test_tcp_rpi_uses_select():
    world = World(WorldConfig(n_procs=3, rpi="tcp", seed=1))

    async def app(comm):
        if comm.rank == 0:
            await comm.send("x", dest=1, tag=0)
        elif comm.rank == 1:
            await comm.recv(source=0, tag=0)
        await comm.barrier()
        return comm.rpi.selector.calls

    result = world.run(app, limit_ns=LIMIT)
    assert all(calls > 0 for calls in result.results)


@pytest.mark.parametrize("n_procs, selects", [(4, 321), (8, 1214), (12, 2636)])
def test_select_calls_pinned(n_procs, selects):
    """The modelled select() volume ``python -m repro.bench select`` prints
    must not drift."""
    world = World(WorldConfig(n_procs=n_procs, rpi="tcp", seed=1))
    world.run(_collective_storm, limit_ns=20_000_000_000_000)
    assert sum(p.rpi.selector.calls for p in world.processes) == selects


def test_sctp_rpi_single_socket_many_assocs():
    world = World(WorldConfig(n_procs=5, rpi="sctp", seed=1))
    world.run(_noop_app, limit_ns=LIMIT)
    for proc in world.processes:
        rpi = proc.rpi
        # one one-to-many socket; associations mapped to every peer rank
        assert set(rpi._assoc_by_rank) == set(range(5)) - {proc.rank}
        assert len(rpi.sock._assocs) == 4


# ---------------------------------------------------------------------------
# SCTP RPI stream mapping (§3.2.1)
# ---------------------------------------------------------------------------
def test_stream_mapping_spreads_tags():
    world = World(WorldConfig(n_procs=2, rpi="sctp", seed=1, num_streams=10))
    rpi = world.processes[0].rpi
    streams = {rpi.stream_for(context=0, tag=t) for t in range(10)}
    assert len(streams) == 10  # ten tags -> ten distinct streams
    assert all(0 <= s < 10 for s in streams)


def test_stream_mapping_same_trc_same_stream():
    world = World(WorldConfig(n_procs=2, rpi="sctp", seed=1))
    rpi = world.processes[0].rpi
    assert rpi.stream_for(0, 5) == rpi.stream_for(0, 5)
    # different contexts may differ even at equal tags
    assert rpi.stream_for(1, 5) in range(10)


def test_single_stream_ablation_module():
    world = World(WorldConfig(n_procs=2, rpi="sctp", seed=1, num_streams=1))
    rpi = world.processes[0].rpi
    assert all(rpi.stream_for(c, t) == 0 for c in range(3) for t in range(20))


def test_sctp_rpi_config_is_the_socket_overlay():
    base = SCTPConfig(sndbuf=100 * 1024, stream_weights=(3, 1))
    world = World(WorldConfig(
        n_procs=2, rpi="sctp", seed=1, num_streams=4,
        interleaving=True, scheduler="rr", sctp_config=base,
    ))
    assert world.processes[0].rpi.sctp_config == replace(
        base, n_out_streams=4, n_in_streams=4, interleaving=True, scheduler="rr"
    )


class _CachingConfig(SCTPConfig):
    """A frozen config that caches a derived value on the instance."""

    @cached_property
    def chunk_room(self):
        return self.pmtu - 32


def test_sctp_rpi_accepts_a_config_carrying_cached_attributes():
    base = _CachingConfig(sndbuf=100 * 1024)
    assert base.chunk_room == 1468  # now an instance attribute, not a field
    world = World(WorldConfig(n_procs=2, rpi="sctp", seed=1, scheduler="rr", sctp_config=base))
    assert world.run(_noop_app, limit_ns=LIMIT).results == [0, 1]
    config = world.processes[1].rpi.sctp_config
    assert (config.sndbuf, config.scheduler) == (100 * 1024, "rr")


def test_invalid_stream_count_rejected():
    with pytest.raises(ValueError):
        World(WorldConfig(n_procs=2, rpi="sctp", seed=1, num_streams=0))


def test_unknown_rpi_rejected():
    with pytest.raises(ValueError):
        World(WorldConfig(n_procs=2, rpi="carrier-pigeon"))


# ---------------------------------------------------------------------------
# world-level behaviour
# ---------------------------------------------------------------------------
def test_world_determinism():
    async def app(comm):
        if comm.rank == 0:
            await comm.send(b"d" * 50_000, dest=1, tag=0)
            return None
        blob = await comm.recv(source=0, tag=0)
        return comm.process.kernel.now

    times = [
        run_app(app, n_procs=2, rpi="sctp", seed=7, loss_rate=0.02, limit_ns=LIMIT).results[1]
        for _ in range(2)
    ]
    assert times[0] == times[1]  # same seed -> bit-identical virtual time


def test_world_different_seeds_differ_under_loss():
    async def app(comm):
        if comm.rank == 0:
            await comm.send(b"d" * 100_000, dest=1, tag=0)
            return None
        await comm.recv(source=0, tag=0)
        return comm.process.kernel.now

    t1 = run_app(app, n_procs=2, rpi="sctp", seed=1, loss_rate=0.05, limit_ns=LIMIT).results[1]
    t2 = run_app(app, n_procs=2, rpi="sctp", seed=2, loss_rate=0.05, limit_ns=LIMIT).results[1]
    assert t1 != t2


def test_compute_advances_virtual_time_only():
    async def app(comm):
        start = comm.process.kernel.now
        await comm.compute(0.25)
        return comm.process.kernel.now - start

    r = run_app(app, n_procs=2, rpi="sctp", seed=1, limit_ns=LIMIT)
    # compute may queue briefly behind middleware work on the same CPU
    assert all(250_000_000 <= el < 260_000_000 for el in r.results)


def test_run_app_rejects_config_plus_overrides():
    with pytest.raises(ValueError):
        run_app(_noop_app, config=WorldConfig(), n_procs=2)


def test_world_result_reports_duration():
    r = run_app(_noop_app, n_procs=2, rpi="tcp", seed=1, limit_ns=LIMIT)
    assert r.duration_ns >= 0
    assert r.total_ns >= r.duration_ns
    assert r.duration_s == r.duration_ns / 1e9


# ---------------------------------------------------------------------------
# SCTP RPI send admission (DESIGN §9.4)
# ---------------------------------------------------------------------------
def _overfill_with_blind_admission(comm):
    """Eight eager 60 KiB sends into a 220 KiB buffer, with the send-room
    test told everything fits: sendmsg has to refuse some."""
    comm.rpi.sock.send_room = lambda _assoc_id: 1 << 40
    return [comm.isend(SyntheticBlob(60_000), dest=1, tag=t) for t in range(8)]


def test_sendmsg_stays_the_authority_on_eagain():
    """If the admission test ever admits too much, the refusal from
    sendmsg still parks the piece: nothing is lost or reordered."""
    async def app(comm):
        if comm.rank == 0:
            await comm.waitall(_overfill_with_blind_admission(comm))
            return None
        return [(await comm.recv(source=0, tag=t)).nbytes for t in range(8)]

    with sanitized(False):
        result = run_app(app, n_procs=2, rpi="sctp", seed=1, limit_ns=LIMIT)
    assert result.results[1] == [60_000] * 8


def test_refusal_after_admission_trips_the_sanitizer():
    async def app(comm):
        if comm.rank == 0:
            with pytest.raises(InvariantViolation, match="send admission"):
                _overfill_with_blind_admission(comm)
        return None

    with sanitized():
        run_app(app, n_procs=2, rpi="sctp", seed=1, limit_ns=LIMIT, finalize_barrier=False)


def test_oversize_piece_still_raises_message_too_big():
    """The admission test passes over only what sendmsg would refuse: a
    piece above the sendmsg limit is handed over and raises, full buffer
    or not."""
    async def app(comm):
        if comm.rank == 0:
            comm.rpi.long_piece_size = 300 * 1024  # above the 220 KiB limit
            comm.rpi.eager_limit = 400 * 1024
            with pytest.raises(MessageTooBig):
                comm.isend(SyntheticBlob(300 * 1024), dest=1, tag=0)
        return None

    run_app(app, n_procs=2, rpi="sctp", seed=1, limit_ns=LIMIT, finalize_barrier=False)
