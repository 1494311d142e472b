"""Message matching: posted-receive queue and unexpected-message table.

LAM buffers eager messages that arrive before a matching receive in an
internal hash table (§2.2.2); every newly posted receive is first checked
against that table.  Ordering guarantees: receives are matched in posting
order, unexpected messages in arrival order — together with per-TRC
FIFO transport delivery this yields MPI's non-overtaking rule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..util.blobs import ChunkList
from .constants import ANY_SOURCE, ANY_TAG
from .envelope import Envelope
from .request import RecvRequest


@dataclass
class UnexpectedMessage:
    """An eager body (or a pending long-message rendezvous) with no match."""

    envelope: Envelope
    body: Optional[ChunkList]  # None for a rendezvous envelope (body unsent)
    arrival_order: int = 0


class PostedReceiveQueue:
    """Receives posted by the application, in posting order."""

    def __init__(self) -> None:
        self._queue: List[RecvRequest] = []

    def __len__(self) -> int:
        return len(self._queue)

    def add(self, request: RecvRequest) -> None:
        """Append a new posted receive."""
        self._queue.append(request)

    def match_and_remove(self, env: Envelope) -> Optional[RecvRequest]:
        """First posted receive matching the envelope, removed from queue."""
        for i, request in enumerate(self._queue):
            if request.matches(env.tag, env.context, env.rank):
                return self._queue.pop(i)
        return None

    def remove(self, request: RecvRequest) -> None:
        """Withdraw a posted receive (cancellation)."""
        try:
            self._queue.remove(request)
        except ValueError:
            pass


class UnexpectedMessageTable:
    """LAM's hash table of unexpected messages, keyed by (context, rank, tag).

    Lookups with wildcards scan buckets but resolve ties by arrival order,
    preserving the non-overtaking guarantee for same-TRC messages.
    """

    def __init__(self) -> None:
        self._buckets: Dict[Tuple[int, int, int], Deque[UnexpectedMessage]] = {}
        self._arrivals = 0
        self.max_buffered_bytes = 0
        self.buffered_bytes = 0

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    def add(self, env: Envelope, body: Optional[ChunkList]) -> None:
        """Buffer an unexpected message/rendezvous envelope."""
        self._arrivals += 1
        msg = UnexpectedMessage(env, body, self._arrivals)
        key = (env.context, env.rank, env.tag)
        self._buckets.setdefault(key, deque()).append(msg)
        if body is not None:
            self.buffered_bytes += body.nbytes
            self.max_buffered_bytes = max(self.max_buffered_bytes, self.buffered_bytes)

    def match_and_remove(self, request: RecvRequest) -> Optional[UnexpectedMessage]:
        """Earliest-arrived buffered message matching ``request``."""
        best_key = None
        best: Optional[UnexpectedMessage] = None
        for key, bucket in self._buckets.items():
            if not bucket:
                continue
            env = bucket[0].envelope
            if request.matches(env.tag, env.context, env.rank):
                if best is None or bucket[0].arrival_order < best.arrival_order:
                    best = bucket[0]
                    best_key = key
        if best is None:
            return None
        self._buckets[best_key].popleft()
        if not self._buckets[best_key]:
            del self._buckets[best_key]
        if best.body is not None:
            self.buffered_bytes -= best.body.nbytes
        return best

    def peek_match(self, source: int, tag: int, context: int) -> Optional[Envelope]:
        """Probe support: earliest buffered envelope matching the triple."""
        best: Optional[UnexpectedMessage] = None
        for (ctx, rank, env_tag), bucket in self._buckets.items():
            if (
                bucket
                and ctx == context
                and source in (ANY_SOURCE, rank)
                and tag in (ANY_TAG, env_tag)
                and (best is None or bucket[0].arrival_order < best.arrival_order)
            ):
                best = bucket[0]
        return best.envelope if best else None
