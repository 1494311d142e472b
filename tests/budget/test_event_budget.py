"""Packet-path event budget (DESIGN §9.3): counts only, no wall clock.

The budget table's ``event_*`` scenario (2-rank 16 KiB ping-pong, 50
round trips, metrics on): a packet costs four kernel events end to end —
send CPU, uplink, downlink, receive CPU — and nothing else, and protocol
timers live in a heap a few dozen deep because restarts leave no dead
entries behind.  Before the link hop was one event and timers
restartable these read 7.46 (TCP) and 6.11 (SCTP) events/packet and a
mean heap depth of 434-442; while ``charge`` posted a completion, 5.47
and 4.11.  The exact event counts are the table's.  The timers are
counted by name (``budget.measure`` keys a function the same on CPython
3.10 to 3.12), so every check holds on every interpreter.
"""

import pytest

from . import budget

EVENTS_PER_PACKET_MAX = 4.0  # measured 3.9955 / 3.9958, both 3.9956
HEAP_DEPTH_MEAN_MAX = 64  # measured 17-19
BOTH = pytest.mark.parametrize("rpi", ["tcp", "sctp"])


def _run(rpi):
    return budget.measure(f"event_{rpi}")


@BOTH
def test_events_per_packet_within_budget(rpi):
    row = _run(rpi)["row"]
    assert row["packets"] > 1500
    assert row["events"] / row["packets"] <= EVENTS_PER_PACKET_MAX


def test_events_per_packet_both_stacks():
    rows = [_run(rpi)["row"] for rpi in ("tcp", "sctp")]
    assert sum(r["events"] for r in rows) / sum(r["packets"] for r in rows) <= 4.0


@BOTH
def test_timer_heap_stays_shallow(rpi):
    extra = _run(rpi)["extra"]
    assert extra["heap_depth_mean"] <= HEAP_DEPTH_MEAN_MAX
    # dead entries are bounded by the handles created (measured 6 for
    # tcp, 12 for sctp), not by the restarts made
    handles = extra["functions"]["simkernel/kernel.py:RestartableTimer.__init__"]
    assert 0 < handles < 40
    assert extra["dead_heap_entries"] <= handles
