"""Segment budget (DESIGN §9.3 "One call per step"): counts only, no wall
clock.

A TCP segment pays one call per step it actually takes.  On a 2-rank
ping-pong of 16 KiB messages (100 round trips, no warm-up, seed 1,
sanitizers off):

* ``repro.transport.tcp`` makes 51,089 calls for 3,820 segments, 13.4
  each (before: 73,970, or 19.4 each).  A segment is built, counted and
  handed to the host by one ``_send`` (it was ``_make_segment`` plus
  ``_transmit``, and ``_ack_sent`` after data and FIN segments); an ACK
  is processed inside ``on_segment`` (``_process_ack`` is gone); a delayed
  ACK is armed and a window update tested where they happen
  (``_arm_delack`` and ``_maybe_send_window_update`` are gone); an
  arriving segment calls ``_try_send`` only when output waits;
* the TCP RPI reads a socket once per readable wake: a short read that
  drained it, with no EOF and no error left to read, unlists it from
  ``Selector.ready``, so the step's second pump no longer calls ``recv``
  to learn that it would block (before: 5,219 ``recv`` calls, two per
  wake).  The two other calls are each socket's first look after it is
  registered;
* and none of this moves virtual time: the kernel fires exactly the
  events it fired before.

Only named functions are counted: comprehension frames (which CPython
3.12 inlines, PEP 709), generator expressions and lambdas are skipped,
so the pins hold on CPython 3.10 to 3.12.
"""

import cProfile
import types
from collections import Counter
from pathlib import Path

import pytest

from repro.analyze.sanitize import sanitized
from repro.core.world import World, WorldConfig
from repro.transport.tcp.socket import Selector
from repro.workloads.mpbench import make_pingpong

MESSAGE = 16 * 1024
ROUND_TRIPS = 100
EVENTS = 15_271  # the kernel events before
SEGMENTS = 3_820
TCP_CALLS = 51_089  # 13.4 per segment
READABLE_WAKES = 2_609
FIRST_LOOKS = 2  # one per socket: it is listed as ready when registered


def _pingpong_counts():
    tally = Counter()
    socket_event = Selector._socket_event

    def counted_event(self, sock):
        # a report that finds its socket readable and the owner blocked
        # in select() wakes the owner
        conn = sock.conn
        if self._blocked_writes is not None and (
            conn._ready.nbytes > 0 or conn._eof or sock.closed_error is not None
        ):
            tally["readable_wakes"] += 1
        socket_event(self, sock)

    with pytest.MonkeyPatch.context() as patch, sanitized(False):
        patch.setattr(Selector, "_socket_event", counted_event)
        world = World(WorldConfig(n_procs=2, rpi="tcp", seed=1))
        profile = cProfile.Profile()
        profile.enable()
        try:
            world.run(make_pingpong(MESSAGE, ROUND_TRIPS, warmup=0))
        finally:
            profile.disable()
    for entry in profile.getstats():
        code = entry.code
        if not isinstance(code, types.CodeType) or code.co_name.startswith("<"):
            continue
        path = Path(code.co_filename)
        if path.parent.name == "tcp" and path.parent.parent.name == "transport":
            tally["tcp_calls"] += entry.callcount
            if (path.name, code.co_name) == ("socket.py", "recv"):
                tally["recv"] += entry.callcount
    tally["events"] = world.kernel.events_processed
    tally["segments"] = sum(h.tx_packets for h in world.cluster.hosts)
    return tally


@pytest.fixture(scope="module")
def counts():
    return _pingpong_counts()


def test_tcp_calls_per_segment(counts):
    assert counts["segments"] == SEGMENTS
    assert counts["tcp_calls"] == TCP_CALLS  # 13.4 per segment


def test_one_recv_per_readable_wake(counts):
    assert counts["readable_wakes"] == READABLE_WAKES
    assert counts["recv"] == READABLE_WAKES + FIRST_LOOKS


def test_kernel_events_unchanged(counts):
    assert counts["events"] == EVENTS
