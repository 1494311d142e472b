"""The TCP RPI's ready set is an optimisation only (DESIGN §9.4, "Input").

``TCPRPI._pump`` calls ``recv`` only on the sockets its :class:`Selector`
lists as possibly readable.  Each world below runs twice -- with that set,
and with a set that lists every registered socket, which makes the pump
poll them all -- and must produce the same rank results, kernel events,
RPI counters, ``select()`` calls, TCP connection counters and host CPU
time.  Only ``recv`` calls may drop.
"""

from dataclasses import asdict

import pytest

from repro.core.world import World, WorldConfig
from repro.transport.tcp import Selector, TCPSocket
from repro.workloads.farm import FarmParams, make_farm
from repro.workloads.mpbench import make_pingpong

MS = 1_000_000
LIMIT = 10**15


async def _collective_storm(comm):
    for _ in range(4):
        await comm.allreduce(comm.rank)
        await comm.alltoall([comm.rank] * comm.size)
    return comm.rank


async def _staggered_finish(comm):
    # ranks report to rank 0 one by one and finalize right away, so the
    # early ones' FINs reach peers that are still running (EOF, retire)
    if comm.rank == 0:
        return [await comm.recv(source=r, tag=0) for r in range(1, comm.size)]
    await comm.process.kernel.sleep(comm.rank * 5 * MS)
    await comm.send(comm.rank, dest=0, tag=0)
    return None


_FARM = FarmParams(
    num_tasks=200, task_size=30 * 1024, max_work_tags=10,
    outstanding_requests=10, fanout=10,
)

WORLDS = {
    "farm_lossy_seed1": (
        dict(n_procs=8, seed=1, loss_rate=0.01, num_streams=10), lambda: make_farm(_FARM),
    ),
    "farm_lossy_seed7": (
        dict(n_procs=8, seed=7, loss_rate=0.01, num_streams=10), lambda: make_farm(_FARM),
    ),
    "pingpong_16k": (dict(n_procs=2, seed=1), lambda: make_pingpong(16 * 1024, 100)),
    "collective_storm_6": (dict(n_procs=6, seed=1), lambda: _collective_storm),
    "staggered_finish": (
        dict(n_procs=4, seed=1, finalize_barrier=False), lambda: _staggered_finish,
    ),
}


class _EveryoneListed(set):
    """A ready set in which every socket is always listed."""

    def __contains__(self, sock):
        return True

    def __bool__(self):
        return True

    def discard(self, sock):
        pass


def _run(name, monkeypatch):
    recvs = [0]
    recv = TCPSocket.recv

    def counted_recv(sock, nbytes):
        recvs[0] += 1
        return recv(sock, nbytes)

    monkeypatch.setattr(TCPSocket, "recv", counted_recv)
    config, app = WORLDS[name]
    world = World(WorldConfig(rpi="tcp", **config))
    result = world.run(app(), limit_ns=LIMIT)
    outputs = {
        "results": repr(result.results),
        "events": world.kernel.events_processed,
        "rpi_stats": [asdict(proc.rpi.stats) for proc in world.processes],
        "selects": [proc.rpi.selector.calls for proc in world.processes],
        "conn_stats": [
            [asdict(s) for s in ep._all_conn_stats] for ep in world.endpoints
        ],
        "cpu_busy_ns": [host.cpu.total_busy_ns for host in world.cluster.hosts],
    }
    return outputs, recvs[0]


def _everyone_listed(monkeypatch):
    init = Selector.__init__

    def init_listing_everyone(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.ready = _EveryoneListed()

    monkeypatch.setattr(Selector, "__init__", init_listing_everyone)


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_ready_set_moves_nothing_but_recv_calls(name, monkeypatch):
    with monkeypatch.context() as patch:
        listed, listed_recvs = _run(name, patch)
    with monkeypatch.context() as patch:
        _everyone_listed(patch)
        polled, polled_recvs = _run(name, patch)
    assert listed == polled
    assert listed_recvs <= polled_recvs
    if name.startswith("farm"):
        assert listed_recvs < polled_recvs
