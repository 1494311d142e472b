"""Hop pins (DESIGN §9.3 "One call per element") on the ``wake_*`` row:
the kernel's events and every named ``repro.network`` function count
are the table's exactly.  The per-element chain itself is
``test_invariants.py::test_a_packet_pays_one_call_per_element``.
"""

import pytest

from . import budget

BOTH = pytest.mark.parametrize("rpi", ["tcp", "sctp"])


@BOTH
def test_kernel_events_unchanged(rpi):
    pinned, measured = budget.pinned_and_measured(f"wake_{rpi}", "events")
    assert measured == pinned


@BOTH
def test_network_calls_are_exactly_the_pinned_ones(rpi):
    pinned, measured = budget.pinned_and_measured(f"wake_{rpi}", "functions.network/")
    assert len(pinned) > 5  # the pin is not vacuous
    assert measured == pinned
