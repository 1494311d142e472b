"""Segment budget (DESIGN §9.3 "One call per step (TCP)"): counts only,
no wall clock.

A TCP segment pays one call per step it actually takes.  On the budget
table's ``wake_tcp`` world (2-rank 16 KiB ping-pong, 100 round trips):

* ``repro.transport.tcp`` makes 51,089 calls for 3,820 segments, 13.4
  each (before: 73,970, or 19.4 each): a segment is built, counted and
  handed to the host by one ``_send``, an ACK is processed inside
  ``on_segment``, and a delayed ACK is armed and a window update tested
  where they happen;
* the TCP RPI reads a socket once per readable wake: a short read that
  drained it, with no EOF and no error left to read, unlists it from
  ``Selector.ready`` (before: 5,219 ``recv`` calls, two per wake).  The
  two other calls are each socket's first look after it is registered;
* and the kernel fires exactly the events the table pins.

Named functions only (``budget.measure`` keys them the same on CPython
3.10 to 3.12, and its ``named`` layer sums skip comprehension frames,
which 3.12 inlines), so these pins hold on every interpreter.
"""

import pytest

from repro.analyze.sanitize import sanitized
from repro.core.world import World, WorldConfig
from repro.transport.tcp.socket import Selector
from repro.workloads.mpbench import make_pingpong

from . import budget

SEGMENTS = 3_820
TCP_CALLS = 51_089  # 13.4 per segment
FIRST_LOOKS = 2  # one per socket: it is listed as ready when registered


def _readable_wakes():
    wakes = [0]
    socket_event = Selector._socket_event

    def counted_event(self, sock):
        # a report that finds its socket readable and the owner blocked
        # in select() wakes the owner
        conn = sock.conn
        if self._blocked_writes is not None and (
            conn._ready.nbytes > 0 or conn._eof or sock.closed_error is not None
        ):
            wakes[0] += 1
        socket_event(self, sock)

    with pytest.MonkeyPatch.context() as patch, sanitized(False):
        patch.setattr(Selector, "_socket_event", counted_event)
        World(WorldConfig(n_procs=2, rpi="tcp", seed=1)).run(make_pingpong(16 * 1024, 100, 0))
    return wakes[0]


def test_tcp_calls_per_segment():
    run = budget.measure("wake_tcp")
    assert run["row"]["packets"] == SEGMENTS
    assert run["extra"]["named"]["transport.tcp"] == TCP_CALLS


def test_one_recv_per_readable_wake():
    assert budget.measure("wake_tcp")["row"]["recv"] == _readable_wakes() + FIRST_LOOKS


def test_kernel_events_unchanged():
    assert budget.measure("wake_tcp")["row"]["events"] == budget.pinned("wake_tcp")["events"]
