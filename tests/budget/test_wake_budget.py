"""Wake pins (DESIGN §9.4 "Blocked ranks resume only when done") on the
``wake_*`` row: ``_pump``, ``select``, ``wake``, the kernel's events
and the progression steps are the table's exactly, and a TCP segment's
wire size, a receiver's parked byte count and a host's cost model are
never recomputed while the world runs.  One resume per blocking call is
``test_invariants.py::test_one_resume_per_blocking_call``.
"""

import pytest

from . import budget

BOTH = pytest.mark.parametrize("rpi", ["tcp", "sctp"])
NOT_CALLED = (
    "transport/tcp/segment.py:TCPSegment.wire_size",
    "transport/tcp/buffers.py:ReassemblyBuffer.out_of_order_bytes",
    "network/host.py:Host.cost_model",
)


@BOTH
def test_progression_work_and_events_unchanged(rpi):
    pinned, measured = budget.pinned_and_measured(
        f"wake_{rpi}", "pump", "select", "wake", "events", "advance_calls")
    assert measured == pinned


@BOTH
def test_no_per_segment_recomputation(rpi):
    functions = budget.measure(f"wake_{rpi}")["extra"]["functions"]
    assert {name: functions.get(name, 0) for name in NOT_CALLED} == dict.fromkeys(NOT_CALLED, 0)
