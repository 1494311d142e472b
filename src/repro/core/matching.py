"""Message matching: posted receives and the unexpected-message table.

LAM buffers eager messages that arrive before a matching receive in an
internal hash table (§2.2.2); every newly posted receive is first checked
against that table.  Ordering guarantees: receives are matched in posting
order, unexpected messages in arrival order — together with per-TRC
FIFO transport delivery this yields MPI's non-overtaking rule.

The posted receives are a plain list in posting order, scanned by the
RPI's inbound path; :func:`matches` is the MPI matching rule, written
once, and that scan and the table both ask it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from ..util.blobs import ChunkList
from .constants import ANY_SOURCE, ANY_TAG
from .envelope import Envelope
from .request import RecvRequest


def matches(source: int, tag: int, context: int, env: Envelope) -> bool:
    """Whether a receive or probe asking for ``source``, ``tag`` and
    ``context`` takes the message ``env`` announces.

    The MPI matching rule: the context is equal, and the source and the
    tag are equal or wildcards (the context never is one)."""
    return (
        context == env.context
        and (source == env.rank or source == ANY_SOURCE)
        and (tag == env.tag or tag == ANY_TAG)
    )


@dataclass
class UnexpectedMessage:
    """An eager body (or a pending long-message rendezvous) with no match."""

    envelope: Envelope
    body: Optional[ChunkList]  # None for a rendezvous envelope (body unsent)
    arrival_order: int = 0


class UnexpectedMessageTable:
    """LAM's hash table of unexpected messages, keyed by (context, rank, tag).

    Lookups with wildcards scan buckets but resolve ties by arrival order,
    preserving the non-overtaking guarantee for same-TRC messages.
    ``held`` counts the messages buffered: a receive posted while it is 0
    looks at nothing.
    """

    def __init__(self) -> None:
        self._buckets: Dict[Tuple[int, int, int], Deque[UnexpectedMessage]] = {}
        self._arrivals = 0
        self.held = 0
        self.max_buffered_bytes = 0
        self.buffered_bytes = 0

    def __len__(self) -> int:
        return self.held

    def add(self, env: Envelope, body: Optional[ChunkList]) -> None:
        """Buffer an unexpected message/rendezvous envelope."""
        self._arrivals += 1
        self.held += 1
        msg = UnexpectedMessage(env, body, self._arrivals)
        key = (env.context, env.rank, env.tag)
        buckets = self._buckets
        if key in buckets:
            buckets[key].append(msg)
        else:  # a deque only for a new bucket, not one per message
            buckets[key] = deque((msg,))
        if body is not None:
            self.buffered_bytes += body.nbytes
            self.max_buffered_bytes = max(self.max_buffered_bytes, self.buffered_bytes)

    def _earliest(self, source: int, tag: int, context: int) -> Optional[Tuple[int, int, int]]:
        """Key of the bucket whose head is the earliest-arrived message a
        receive or probe asking for the triple matches."""
        best_key = None
        best_order = 0
        for key, bucket in self._buckets.items():
            head = bucket[0]
            if (best_key is None or head.arrival_order < best_order) and matches(
                source, tag, context, head.envelope
            ):
                best_key, best_order = key, head.arrival_order
        return best_key

    def match_and_remove(self, request: RecvRequest) -> Optional[UnexpectedMessage]:
        """Earliest-arrived buffered message matching ``request``."""
        key = self._earliest(request.source, request.tag, request.context)
        if key is None:
            return None
        bucket = self._buckets[key]
        msg = bucket.popleft()
        if not bucket:
            del self._buckets[key]
        self.held -= 1
        if msg.body is not None:
            self.buffered_bytes -= msg.body.nbytes
        return msg

    def peek_match(self, source: int, tag: int, context: int) -> Optional[Envelope]:
        """Probe support: earliest buffered envelope matching the triple."""
        key = self._earliest(source, tag, context)
        return None if key is None else self._buckets[key][0].envelope
