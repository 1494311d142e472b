"""Per-packet pins (DESIGN §9.3) on the ``packet_*`` row: a host reads
its per-packet CPU charge from a table derived once from its cost
model, so no ``CostModel.packet_send_cost`` / ``packet_recv_cost`` call
is made while the world runs, and the kernel fires the events the table
pins.  The RTO, fragment and wire-size bounds are ``test_invariants.py``.
"""

import pytest

from . import budget

BOTH = pytest.mark.parametrize("rpi", ["tcp", "sctp"])
COST_MODEL = "network/costmodel.py:CostModel."


@BOTH
def test_no_cost_model_call_per_packet(rpi):
    functions = budget.measure(f"packet_{rpi}")["extra"]["functions"]
    assert functions.get(COST_MODEL + "packet_send_cost", 0) == 0
    assert functions.get(COST_MODEL + "packet_recv_cost", 0) == 0


@BOTH
def test_kernel_events_unchanged(rpi):
    pinned, measured = budget.pinned_and_measured(f"packet_{rpi}", "events")
    assert measured == pinned
