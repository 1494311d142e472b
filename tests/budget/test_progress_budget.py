"""Progression-step pins (DESIGN §9.4) on the ``farm_*`` row (4 ranks,
60 tasks, fanout 10, 72 KiB send buffers): the progression steps per
rank are the table's exactly.  The refused-``sendmsg``, envelope-pack
and ``done``-read bounds are ``test_invariants.py``.
"""

import pytest

from . import budget


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_progression_steps_unchanged(rpi):
    pinned, measured = budget.pinned_and_measured(f"farm_{rpi}", "advance_calls")
    assert len(pinned) == 4  # one count per rank
    assert measured == pinned
