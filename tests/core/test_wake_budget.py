"""Wake budget (DESIGN §9.4 "Blocked ranks resume only when done"):
counts only, no wall clock.

A blocked rank must resume only once what it waits for is done.  On a
2-rank ping-pong of 16 KiB messages (100 round trips, no warm-up, seed 1,
sanitizers off), LAM-TCP reads each of a message's ~12 data segments as
it arrives and calls ``select()`` again (paper §3.2.4, §3.3):

* every wake still runs that pump and that ``select()``, at the same
  instant, but inside ``wake`` itself: no blocking MPI call resumes its
  rank more than once (before: up to 15 resumes for one TCP ``recv``,
  2,604 rank resumes for 400 calls on TCP; SCTP already made 200),
* a TCP segment computes its wire size once, when built, and a receiver
  keeps its parked byte count as a counter: no ``TCPSegment.wire_size``,
  ``ReassemblyBuffer.out_of_order_bytes`` or ``Host.cost_model`` call
  while the world runs (before: 3,820 / 6,428 / 2,610 on TCP: one per
  segment sent, one per receive window computed, one per ``select()``),
* and none of this moves virtual time: ``_pump``, ``select``, ``wake``
  and the kernel's events are exactly what they were.
"""

import inspect
from collections import Counter

import pytest

from repro.analyze.sanitize import sanitized
from repro.core.communicator import Communicator
from repro.core.rpi.base import BaseRPI
from repro.core.rpi.sctp_rpi import SCTPRPI
from repro.core.rpi.tcp_rpi import TCPRPI
from repro.core.world import World, WorldConfig
from repro.network.host import Host
from repro.simkernel import futures
from repro.transport.tcp.buffers import ReassemblyBuffer
from repro.transport.tcp.segment import TCPSegment
from repro.transport.tcp.socket import Selector
from repro.workloads.mpbench import make_pingpong

MESSAGE = 16 * 1024
ROUND_TRIPS = 100
BLOCKING_CALLS = 2 * 2 * ROUND_TRIPS  # a send and a recv per message
# the parent's exact counts: progression work and kernel events
PINNED = {
    "tcp": {"pump": 5_625, "select": 2_610, "wake": 2_610, "events": 15_271},
    "sctp": {"pump": 821, "select": 0, "wake": 207, "events": 14_464},
}
# computed per segment, per receive window or per select() before
NOT_CALLED = (
    (TCPSegment, "wire_size"),
    (ReassemblyBuffer, "out_of_order_bytes"),
    (Host, "cost_model"),
)


def _counting(patch, cls, name, tally, key):
    """Count every call ``cls.name`` makes: a method or a property.  A
    plain attribute (set on the instance) costs no call to count."""
    attr = inspect.getattr_static(cls, name, None)
    if isinstance(attr, property):
        fget = attr.fget

        def counted_get(self):
            tally[key] += 1
            return fget(self)

        patch.setattr(cls, name, property(counted_get))
    elif callable(attr):

        def counted(*args, **kwargs):
            tally[key] += 1
            return attr(*args, **kwargs)

        patch.setattr(cls, name, counted)


def _pingpong_counts(rpi):
    tally = Counter()
    steps = Counter()  # Task._step per task name
    step = futures.Task._step

    def counting_step(self, value, exc):
        steps[self.name] += 1
        step(self, value, exc)

    def watched(call):
        async def wrapper(comm, *args, **kwargs):
            task = f"rank{comm.rank}"
            before = steps[task]
            result = await call(comm, *args, **kwargs)
            resumes = steps[task] - before
            tally["calls"] += 1
            tally["resumes"] += resumes
            tally["max_resumes"] = max(tally["max_resumes"], resumes)
            return result

        return wrapper

    with pytest.MonkeyPatch.context() as patch, sanitized(False):
        patch.setattr(futures.Task, "_step", counting_step)
        patch.setattr(Communicator, "send", watched(Communicator.send))
        patch.setattr(Communicator, "recv", watched(Communicator.recv))
        for cls, name, key in (
            (TCPRPI, "_pump", "pump"),
            (SCTPRPI, "_pump", "pump"),
            (Selector, "select", "select"),
            (BaseRPI, "wake", "wake"),  # before the RPIs bind self.wake
        ):
            _counting(patch, cls, name, tally, key)
        world = World(WorldConfig(n_procs=2, rpi=rpi, seed=1))
        for cls, name in NOT_CALLED:  # while the world runs, not while built
            _counting(patch, cls, name, tally, name)
        world.run(make_pingpong(MESSAGE, ROUND_TRIPS, warmup=0))
    tally["events"] = world.kernel.events_processed
    return tally


@pytest.fixture(scope="module")
def counts():
    return {rpi: _pingpong_counts(rpi) for rpi in ("tcp", "sctp")}


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_one_resume_per_blocking_call(counts, rpi):
    tally = counts[rpi]
    assert tally["calls"] == BLOCKING_CALLS
    assert tally["max_resumes"] <= 1
    assert tally["resumes"] <= tally["calls"]


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_progression_work_and_events_unchanged(counts, rpi):
    tally = counts[rpi]
    got = {key: tally[key] for key in PINNED[rpi]}
    assert got == PINNED[rpi]


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_no_per_segment_recomputation(counts, rpi):
    tally = counts[rpi]
    assert {name: tally[name] for _cls, name in NOT_CALLED} == {
        name: 0 for _cls, name in NOT_CALLED
    }
