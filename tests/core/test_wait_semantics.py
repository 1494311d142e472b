"""wait / waitall / waitany semantics that must survive scanning on
completion instead of on every progression step."""

import pytest

from repro.core import run_app

BOTH_RPIS = pytest.mark.parametrize("rpi", ["tcp", "sctp"])
LIMIT = 120_000_000_000
MS = 1_000_000


def _run(app, rpi):
    return run_app(app, n_procs=2, rpi=rpi, seed=1, limit_ns=LIMIT).results


@BOTH_RPIS
def test_waitany_lowest_index_when_two_complete_in_one_step(rpi):
    async def app(comm):
        if comm.rank == 0:
            await comm.send("second", dest=1, tag=2)
            await comm.send("first", dest=1, tag=1)
            return None
        first = comm.irecv(source=0, tag=1)
        second = comm.irecv(source=0, tag=2)
        await comm.process.kernel.sleep(50 * MS)  # both arrive, nobody pumps
        assert not first.done and not second.done
        steps = comm.rpi.stats.advance_calls
        index, req = await comm.waitany([first, second])
        took = comm.rpi.stats.advance_calls - steps
        # tag 2 was matched first, yet index 0 wins: both were done when
        # waitany looked again
        return index, req is first, second.done, took

    assert _run(app, rpi)[1] == (0, True, True, 1)


@BOTH_RPIS
def test_wait_calls_return_at_once_for_finished_requests(rpi):
    async def app(comm):
        if comm.rank == 0:
            await comm.send("x", dest=1, tag=1)
            await comm.process.kernel.sleep(50 * MS)  # "y" is not there yet
            await comm.send("y", dest=1, tag=2)
            return None
        done = comm.irecv(source=0, tag=1)
        await comm.wait(done)
        pending = comm.irecv(source=0, tag=2)
        steps = comm.rpi.stats.advance_calls
        index, _req = await comm.waitany([pending, done])
        await comm.waitall([done])
        await comm.wait(done)
        took = comm.rpi.stats.advance_calls - steps
        await comm.wait(pending)
        return index, took

    assert _run(app, rpi)[1] == (1, 0)


@BOTH_RPIS
def test_completion_inside_isend_is_seen(rpi):
    """An eager send finishes in ``start_send``'s own pump, before any
    wait call has had a chance to note the completion count."""

    async def app(comm):
        if comm.rank == 1:
            return await comm.recv(source=0, tag=3)
        send = comm.isend("eager", dest=1, tag=3)
        assert send.done
        steps = comm.rpi.stats.advance_calls
        index, _req = await comm.waitany([send])
        await comm.waitall([send])
        return index, comm.rpi.stats.advance_calls - steps

    results = _run(app, rpi)
    assert results == [(0, 0), "eager"]
