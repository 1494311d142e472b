"""``BaseRPI.progress_until``: the one way a rank blocks.

A blocked rank's steps run inside ``wake``; the rank resumes only once
its predicate holds, or with the exception a pump raised.  On both stacks:

* a wake that leaves the predicate false pumps but resumes nobody,
* a pump that raises inside ``wake`` fails the blocked MPI call, where the
  application can catch it, instead of escaping through the transport
  callback into ``Kernel.run_until``,
* a blocked rank that is cancelled leaves no predicate behind, so a later
  wake pumps nothing for it.
"""

from collections import Counter

import pytest

from repro.core import run_app
from repro.simkernel import futures

BOTH = pytest.mark.parametrize("rpi", ["tcp", "sctp"])
LIMIT = 10**12
MS = 1_000_000
SPURIOUS_WAKES = 5


def _run(app, rpi):
    return run_app(
        app, n_procs=2, rpi=rpi, seed=1, limit_ns=LIMIT, finalize_barrier=False
    ).results


@BOTH
def test_a_wake_that_leaves_done_false_does_not_resume(rpi, monkeypatch):
    steps = Counter()
    step = futures.Task._step

    def counting_step(self, value, exc):
        steps[self.name] += 1
        step(self, value, exc)

    monkeypatch.setattr(futures.Task, "_step", counting_step)

    async def app(comm):
        kernel = comm.process.kernel
        if comm.rank == 0:
            await kernel.sleep(50 * MS)
            await comm.send("x", dest=1, tag=0)
            return None
        rpi_ = comm.rpi
        for i in range(SPURIOUS_WAKES):  # nothing has arrived at any of them
            kernel.call_after((i + 1) * MS, rpi_.wake)
        steps_before = steps["rank1"]
        advances_before = rpi_.stats.advance_calls
        data = await comm.recv(source=0, tag=0)
        return data, steps["rank1"] - steps_before, rpi_.stats.advance_calls - advances_before

    data, resumes, advances = _run(app, rpi)[1]
    assert data == "x"
    assert resumes == 1
    # each spurious wake still ran its step (and, on TCP, its select())
    assert advances > SPURIOUS_WAKES


def _unbind_rank0(rpi_):
    """Forget which peer rank 0's socket or association is: the next unit
    from it is taken for the first one on a new connection, which must be
    HELLO, so the pump reading it raises."""
    if rpi_.name == "tcp":
        del rpi_._rank_by_sock[rpi_._sock_by_rank[0]]
    else:
        del rpi_._rank_by_assoc[rpi_._assoc_by_rank[0]]


@BOTH
def test_a_pump_error_inside_wake_surfaces_at_the_blocked_await(rpi):
    async def app(comm):
        if comm.rank == 0:
            await comm.process.kernel.sleep(50 * MS)
            await comm.send("x", dest=1, tag=0)
            return None
        _unbind_rank0(comm.rpi)
        try:
            await comm.recv(source=0, tag=0)
        except RuntimeError as exc:  # raised by the pump a transport wake ran
            return str(exc)
        return "no error"

    message = _run(app, rpi)[1]  # and nothing escaped through run_until
    assert "must be HELLO" in message


@BOTH
def test_a_cancelled_blocked_rank_leaves_nothing_behind(rpi):
    async def app(comm):
        kernel = comm.process.kernel
        if comm.rank == 0:
            await kernel.sleep(50 * MS)
            await comm.send("x", dest=1, tag=0)
            return None
        rpi_ = comm.rpi
        # a receive nothing will match, blocked in a task of its own
        blocked = kernel.spawn(comm.recv(source=0, tag=1), name="blocked-recv")
        await kernel.sleep(MS)
        assert rpi_._until is not None
        blocked.cancel()
        assert blocked.cancelled() and rpi_._until is None
        pumps = []
        pump = rpi_._pump
        rpi_._pump = lambda: pumps.append(1) or pump()
        rpi_.wake()  # the cancelled wait's future takes it: no step runs
        del rpi_._pump
        # the rank itself can still block and receive
        return len(pumps), await comm.recv(source=0, tag=0)

    assert _run(app, rpi)[1] == (0, "x")
