"""Sender-side stream schedulers (RFC 8260 §3 / RFC 8261 terminology).

The association send path used to be a plain FIFO of pre-fragmented DATA
chunks: whoever called ``send_message`` first owned the wire until every
fragment of that message was out.  This module replaces the FIFO with a
pluggable :class:`StreamScheduler`: user messages queue *unfragmented*
(as :class:`QueuedMessage`) and the scheduler — not send order — decides
which stream's message supplies the next fragment.

Key design points, all load-bearing for determinism and byte-identity:

* **Lazy fragmentation.**  Fragments are cut at dequeue time by the
  association (``_dequeue_for_bundle``), which also assigns the TSN and,
  on a message's *first* fragment, its SSN or MID.  Every scheduler
  serves the messages of one stream in FIFO order, so dequeue-time
  per-stream sequence numbers equal the values eager assignment would
  have produced — and for :class:`FCFSScheduler` the whole wire schedule
  is bit-for-bit the pre-scheduler behaviour.
* **Message stickiness.**  Without negotiated interleaving (RFC 8260
  I-DATA), fragments of one message must occupy contiguous TSNs, so the
  scheduler holds its choice (``_current``) until the message completes.
  With interleaving active the decision is re-made at every fragment
  boundary — that is the whole point of I-DATA.
* **No set iteration, no unseeded ties.**  All per-stream state lives in
  lists indexed by stream id; ties break on the lowest sid / the
  round-robin cursor, never on hash order (AN103-clean by construction).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ...util.blobs import Blob
from .chunks import DATA_PAYLOAD

#: DRR quantum: one full PMTU payload's worth, so a stream sends at
#: least one full fragment per round.
WFQ_QUANTUM = DATA_PAYLOAD

SCHEDULER_NAMES: Tuple[str, ...] = ("fcfs", "rr", "wfq", "prio")


class QueuedMessage:
    """One user message queued for transmission, not yet fragmented.

    ``seq`` is the SSN (legacy DATA) or MID (I-DATA); it is -1 until the
    first fragment is dequeued.  ``fsn`` counts fragments already cut
    (the next fragment's FSN under I-DATA).  ``idata`` records which
    encoding the first fragment used so a message never switches wire
    format mid-flight.
    """

    __slots__ = ("sid", "payload", "unordered", "ppid", "nbytes", "offset",
                 "seq", "fsn", "idata")

    def __init__(self, sid: int, payload: Blob, unordered: bool, ppid: int) -> None:
        self.sid = sid
        self.payload = payload
        self.unordered = unordered
        self.ppid = ppid
        self.nbytes = payload.nbytes
        self.offset = 0
        self.seq = -1
        self.fsn = 0
        self.idata = False


class StreamScheduler:
    """Strategy interface: which queued message fragments next?

    The association drives it with a peek/consume protocol::

        head = sched.peek()          # the chosen message (None when idle)
        ...cut one fragment of `take` payload bytes from head...
        sched.consume(take)          # advance; True when head completed

    ``n_pending`` counts queued messages not yet fully fragmented, and
    ``current`` is the message ``peek`` chose and ``consume`` has not
    finished (None: the next ``peek`` chooses); the per-packet send path
    reads both instead of calling.
    Subclasses implement ``_enqueue`` / ``_choose`` / ``_serve``.
    ``_choose`` must be deterministic and must return a message whenever
    one is queued (a None with pending data would stall the association).
    """

    name = "base"

    def __init__(self, n_streams: int) -> None:
        self.n_streams = n_streams
        self.interleave = False
        self.current: Optional[QueuedMessage] = None
        self.n_pending = 0
        # observability: every consume() is one scheduler decision; an
        # "interleave switch" is consuming message X immediately after
        # leaving a different message Y unfinished (only possible with
        # interleaving active).
        self.decisions = 0
        self.interleave_switches = 0
        self._last_msg: Optional[QueuedMessage] = None
        self._last_unfinished = False

    def set_interleaving(self, on: bool) -> None:
        """Called once at association establishment with the negotiated
        I-DATA result; before that the scheduler stays message-sticky."""
        self.interleave = bool(on)

    def push(self, msg: QueuedMessage) -> None:
        self.n_pending += 1
        self._enqueue(msg)

    def peek(self) -> Optional[QueuedMessage]:
        cur = self.current
        if cur is None:
            cur = self.current = self._choose()
        return cur

    def consume(self, take: int) -> bool:
        """The association encoded ``take`` payload bytes of the peeked
        message into one fragment; returns True when the message is done."""
        msg = self.current
        msg.offset += take
        msg.fsn += 1
        done = msg.offset >= msg.nbytes
        self.decisions += 1
        if self._last_unfinished and self._last_msg is not msg:
            self.interleave_switches += 1
        self._last_msg = msg
        self._last_unfinished = not done
        self._serve(msg, take, done)
        if done:
            self.n_pending -= 1
            self.current = None
        elif self.interleave:
            self.current = None  # re-decide at the next fragment boundary
        return done

    # -- policy hooks ------------------------------------------------------
    def _enqueue(self, msg: QueuedMessage) -> None:
        raise NotImplementedError

    def _choose(self) -> Optional[QueuedMessage]:
        raise NotImplementedError

    def _serve(self, msg: QueuedMessage, take: int, done: bool) -> None:
        raise NotImplementedError


class FCFSScheduler(StreamScheduler):
    """First-come-first-served: exactly the pre-scheduler send order.

    A single FIFO over messages; the head message owns the wire until it
    completes (even with interleaving active, FCFS never preempts — there
    is never a reason to revisit the choice before the head is done).
    """

    name = "fcfs"

    def __init__(self, n_streams: int) -> None:
        super().__init__(n_streams)
        self._q: Deque[QueuedMessage] = deque()

    def _enqueue(self, msg: QueuedMessage) -> None:
        self._q.append(msg)

    def _choose(self) -> Optional[QueuedMessage]:
        return self._q[0] if self._q else None

    def _serve(self, msg: QueuedMessage, take: int, done: bool) -> None:
        if done:
            self._q.popleft()


class RoundRobinScheduler(StreamScheduler):
    """Cycle over streams with queued messages, lowest sid first.

    Message-granular without interleaving (the cursor advances when a
    message completes); fragment-granular with it (the cursor advances
    after every fragment, so a bulk message on one stream yields the wire
    to every other backlogged stream between fragments).
    """

    name = "rr"

    def __init__(self, n_streams: int) -> None:
        super().__init__(n_streams)
        self._queues: List[Deque[QueuedMessage]] = [deque() for _ in range(n_streams)]
        self._cursor = 0

    def _enqueue(self, msg: QueuedMessage) -> None:
        self._queues[msg.sid].append(msg)

    def _choose(self) -> Optional[QueuedMessage]:
        n = self.n_streams
        for i in range(n):
            q = self._queues[(self._cursor + i) % n]
            if q:
                return q[0]
        return None

    def _serve(self, msg: QueuedMessage, take: int, done: bool) -> None:
        if done:
            self._queues[msg.sid].popleft()
        if done or self.interleave:
            self._cursor = (msg.sid + 1) % self.n_streams


class WeightedFairScheduler(StreamScheduler):
    """Deficit round robin (RFC 8260's "weighted fair queueing" scheduler,
    realised as byte-deficit DRR with every stream at weight one).

    Each stream holds a byte deficit; a visit tops it up by
    ``WFQ_QUANTUM`` and the stream may transmit while the deficit is
    positive.  With interleaving active, long-run served bytes converge to
    equal shares whatever the message sizes; without interleaving,
    fairness is message-granular (a message once started runs to
    completion and may overdraw its deficit).
    """

    name = "wfq"

    def __init__(self, n_streams: int) -> None:
        super().__init__(n_streams)
        self._queues: List[Deque[QueuedMessage]] = [deque() for _ in range(n_streams)]
        self._deficit = [0] * n_streams
        self._cursor = 0

    def _enqueue(self, msg: QueuedMessage) -> None:
        self._queues[msg.sid].append(msg)

    def _choose(self) -> Optional[QueuedMessage]:
        n = self.n_streams
        queues = self._queues
        deficit = self._deficit
        nonempty = [sid for sid in range(n) if queues[sid]]
        if not nonempty:
            return None
        # every refill pass adds one quantum per backlogged stream, so
        # this terminates even when a sticky bulk message overdrew badly
        while True:
            for i in range(n):
                sid = (self._cursor + i) % n
                if queues[sid] and deficit[sid] > 0:
                    return queues[sid][0]
            for sid in nonempty:
                deficit[sid] += WFQ_QUANTUM

    def _serve(self, msg: QueuedMessage, take: int, done: bool) -> None:
        sid = msg.sid
        # zero-byte messages still spend one token so they cannot spin
        self._deficit[sid] -= take if take > 0 else 1
        if done:
            self._queues[sid].popleft()
            if not self._queues[sid]:
                self._deficit[sid] = 0  # DRR: idle streams bank no credit
        if (done or self.interleave) and self._deficit[sid] <= 0:
            self._cursor = (sid + 1) % self.n_streams


class PriorityScheduler(StreamScheduler):
    """Strict priority in stream-id order: the lowest backlogged sid wins.

    With interleaving active a newly queued message on a lower sid
    preempts a bulk transfer on a higher one at the next fragment
    boundary; without it, at the next message boundary.
    """

    name = "prio"

    def __init__(self, n_streams: int) -> None:
        super().__init__(n_streams)
        self._queues: List[Deque[QueuedMessage]] = [deque() for _ in range(n_streams)]

    def _enqueue(self, msg: QueuedMessage) -> None:
        self._queues[msg.sid].append(msg)

    def _choose(self) -> Optional[QueuedMessage]:
        for q in self._queues:
            if q:
                return q[0]
        return None

    def _serve(self, msg: QueuedMessage, take: int, done: bool) -> None:
        if done:
            self._queues[msg.sid].popleft()


def make_scheduler(name: str, n_streams: int) -> StreamScheduler:
    """Build the named scheduler sized for ``n_streams`` outbound streams."""
    if name == "fcfs":
        return FCFSScheduler(n_streams)
    if name == "rr":
        return RoundRobinScheduler(n_streams)
    if name == "wfq":
        return WeightedFairScheduler(n_streams)
    if name == "prio":
        return PriorityScheduler(n_streams)
    raise ValueError(
        f"unknown scheduler {name!r} (choices: {', '.join(SCHEDULER_NAMES)})"
    )
