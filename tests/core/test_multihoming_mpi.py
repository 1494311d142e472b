"""Multihoming at the MPI level: an application survives path failure."""

from repro.core.world import World, WorldConfig
from repro.faults import primary_blackhole
from repro.simkernel import MILLISECOND, SECOND
from repro.transport.sctp import SCTPConfig

LIMIT = 600_000_000_000


def test_mpi_app_survives_primary_path_failure():
    config = WorldConfig(
        n_procs=2,
        rpi="sctp",
        n_paths=2,
        seed=4,
        sctp_config=SCTPConfig(path_max_retrans=1, heartbeat_interval_ns=2 * SECOND),
        # the primary subnet goes dark 2 ms in and stays dark
        scenario=primary_blackhole(start_ns=2 * MILLISECOND, duration_ns=0),
    )
    world = World(config)

    async def app(comm):
        peer = 1 - comm.rank
        for _ in range(12):
            if comm.rank == 0:
                await comm.send(b"x" * 20_000, dest=peer, tag=1)
                await comm.recv(source=peer, tag=2)
            else:
                await comm.recv(source=peer, tag=1)
                await comm.send(b"y" * 20_000, dest=peer, tag=2)
        return True

    result = world.run(app, limit_ns=LIMIT)
    assert all(result.results)
    # at least one side redirected traffic to the alternate subnet
    failovers = sum(
        assoc.stats.failovers
        for proc in world.processes
        for assoc in proc.rpi.sock._assocs.values()
    )
    assert failovers > 0


def test_multihomed_world_runs_clean_without_failures():
    config = WorldConfig(n_procs=4, rpi="sctp", n_paths=2, seed=1)

    async def app(comm):
        return await comm.allreduce(comm.rank)

    result = World(config).run(app, limit_ns=LIMIT)
    assert result.results == [6, 6, 6, 6]
