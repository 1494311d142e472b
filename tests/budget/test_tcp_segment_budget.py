"""Segment pins (DESIGN §9.3 "One call per step (TCP)") on the
``wake_tcp`` row: the segments sent, the named ``repro.transport.tcp``
calls (51,089 for 3,820 segments, 13.4 each) and the kernel's events
are the table's exactly.  One ``recv`` per readable wake is
``test_invariants.py::test_one_recv_per_readable_wake``.
"""

from . import budget


def test_tcp_calls_per_segment():
    pinned, measured = budget.pinned_and_measured("wake_tcp", "packets", "named.transport.tcp")
    assert measured == pinned


def test_kernel_events_unchanged():
    pinned, measured = budget.pinned_and_measured("wake_tcp", "events")
    assert measured == pinned
