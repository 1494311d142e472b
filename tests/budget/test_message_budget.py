"""Per-message pins (DESIGN §9.4) on the ``message_*`` row: the kernel
fires the events the table pins.  The futures-per-message bound and
the flat SCTP deliveries are ``test_invariants.py``.
"""

import pytest

from . import budget


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_kernel_events_unchanged(rpi):
    pinned, measured = budget.pinned_and_measured(f"message_{rpi}", "events")
    assert measured == pinned
