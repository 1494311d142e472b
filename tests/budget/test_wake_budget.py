"""Wake budget (DESIGN §9.4 "Blocked ranks resume only when done"):
counts only, no wall clock.

A blocked rank must resume only once what it waits for is done.  On the
budget table's ``wake_*`` world (2-rank 16 KiB ping-pong, 100 round
trips), LAM-TCP reads each of a message's ~12 data segments as it
arrives and calls ``select()`` again (paper §3.2.4, §3.3):

* every wake still runs that pump and that ``select()``, at the same
  instant, but inside ``wake`` itself: no blocking MPI call resumes its
  rank more than once (before: up to 15 resumes for one TCP ``recv``),
* a TCP segment computes its wire size once, and a receiver keeps its
  parked byte count as a counter: no ``TCPSegment.wire_size``,
  ``ReassemblyBuffer.out_of_order_bytes`` or ``Host.cost_model`` call
  while the world runs (before: 3,820 / 6,428 / 2,610 on TCP),
* and ``_pump``, ``select``, ``wake`` and the kernel's events are the
  table's exactly (5,625 / 2,610 / 2,610 / 15,271 on TCP, 821 / 0 / 207 /
  14,464 on SCTP).

Named functions only (``budget.measure`` keys them the same on CPython
3.10 to 3.12), so these checks hold on every interpreter.
"""

from collections import Counter

import pytest

from repro.analyze.sanitize import sanitized
from repro.core.communicator import Communicator
from repro.core.world import World, WorldConfig
from repro.simkernel import futures
from repro.workloads.mpbench import make_pingpong

from . import budget

BOTH = pytest.mark.parametrize("rpi", ["tcp", "sctp"])
BLOCKING_CALLS = 2 * 2 * 100  # a send and a recv per message
NOT_CALLED = (
    "transport/tcp/segment.py:TCPSegment.wire_size",
    "transport/tcp/buffers.py:ReassemblyBuffer.out_of_order_bytes",
    "network/host.py:Host.cost_model",
)


def _resumes(rpi):
    tally = Counter()
    steps = Counter()  # Task._step per task name
    step = futures.Task._step

    def counting_step(self, value, exc):
        steps[self.name] += 1
        step(self, value, exc)

    def watched(call):
        async def wrapper(comm, *args, **kwargs):
            before = steps[f"rank{comm.rank}"]
            result = await call(comm, *args, **kwargs)
            resumes = steps[f"rank{comm.rank}"] - before
            tally["calls"] += 1
            tally["resumes"] += resumes
            tally["max_resumes"] = max(tally["max_resumes"], resumes)
            return result

        return wrapper

    with pytest.MonkeyPatch.context() as patch, sanitized(False):
        patch.setattr(futures.Task, "_step", counting_step)
        patch.setattr(Communicator, "send", watched(Communicator.send))
        patch.setattr(Communicator, "recv", watched(Communicator.recv))
        World(WorldConfig(n_procs=2, rpi=rpi, seed=1)).run(make_pingpong(16 * 1024, 100, 0))
    return tally


@BOTH
def test_one_resume_per_blocking_call(rpi):
    tally = _resumes(rpi)
    assert tally["calls"] == BLOCKING_CALLS
    assert tally["max_resumes"] <= 1
    assert tally["resumes"] <= tally["calls"]


@BOTH
def test_progression_work_and_events_unchanged(rpi):
    row, pinned = budget.measure(f"wake_{rpi}")["row"], budget.pinned(f"wake_{rpi}")
    keys = ("pump", "select", "wake", "events", "advance_calls")
    assert {k: row[k] for k in keys} == {k: pinned[k] for k in keys}


@BOTH
def test_no_per_segment_recomputation(rpi):
    functions = budget.measure(f"wake_{rpi}")["extra"]["functions"]
    assert {name: functions.get(name, 0) for name in NOT_CALLED} == dict.fromkeys(NOT_CALLED, 0)
