"""Stream machinery: reassembly and per-stream ordered delivery.

This module is where SCTP's head-of-line-blocking cure lives.  Inbound
data chunks are first *reassembled* into whole user messages and then
*ordered* — but only against other messages of the same stream.  A
complete message on stream 2 is delivered even while stream 1 still has
holes; contrast the TCP receive path, which cannot release anything past
a missing byte (paper Fig. 4/5).

Two encodings, one engine.  Legacy DATA (RFC 4960) and I-DATA (RFC 8260)
differ only in where a fragment says it belongs:

=========  ==========================  ==========  ==================
encoding   space                       index       ordered by
=========  ==========================  ==========  ==================
DATA       the whole association       TSN         SSN, 16 bits
I-DATA     one message (sid, U, MID)   FSN         MID, 32 bits
=========  ==========================  ==========  ==================

A message is a run of consecutive indices in one space that starts at a
B fragment and stops at an E fragment.  For DATA that *is* the identity
(RFC 4960 §6.9): the SSN cannot name a message, because every unordered
message of a stream may carry the same one — which is also why DATA
fragments must stay contiguous on the wire and a large message
monopolises the association.  I-DATA numbers the fragments inside each
message instead, so messages may interleave freely.

:class:`InboundStreams` keeps, per space, the fragments by index and the
two open ends of every run, so an arrival joins its neighbours with a
constant number of dictionary operations whatever the arrival order.
A fragment's payload is a view of its whole message (the sender cuts no
copies), so a completed run hands over the message the views share.
Ordered delivery then follows one per-stream succession — SSN or MID,
wrapped through its mask — and unordered messages deliver the moment
they are complete.  :class:`OutboundStreams` is the matching allocator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ...analyze.sanitize import idata_sanitizer, stream_sanitizer
from ...util.blobs import ChunkList
from .chunks import DataChunk

SSN_MASK = 0xFFFF  # RFC 4960 §3.3.1: 16-bit stream sequence number
MID_MASK = 0xFFFFFFFF  # RFC 8260 §2.1: 32-bit message identifier


@dataclass(slots=True)
class AssembledMessage:
    """A whole user message ready for (or awaiting) stream delivery.

    ``mid`` is None for legacy DATA messages (identity/order via ``ssn``)
    and the RFC 8260 Message ID for I-DATA ones (``ssn`` is then 0 and
    carries no ordering information).
    """

    sid: int
    ssn: int
    unordered: bool
    ppid: int
    data: ChunkList
    first_tsn: int
    last_tsn: int
    mid: Optional[int] = None

    @property
    def nbytes(self) -> int:
        return self.data.nbytes


class OutboundStreams:
    """Per-stream sequence allocator for the sending side: SSNs under
    DATA, MIDs under I-DATA (an association speaks one encoding).

    Ordered and unordered messages draw from *separate* spaces: under
    I-DATA the U bit is part of the message identity (RFC 8260 §2.1), and
    an unordered DATA chunk may carry any SSN (RFC 4960 §6.6) but must
    not use up one the receiver is waiting for.
    """

    def __init__(self, n_streams: int) -> None:
        self.n_streams = n_streams
        self._next_seq = ([0] * n_streams, [0] * n_streams)  # by U bit

    def next_seq(self, sid: int, unordered: bool = False, idata: bool = False) -> int:
        """Claim the next SSN (or MID, with ``idata``) on ``sid``."""
        if not 0 <= sid < self.n_streams:
            raise ValueError(f"stream {sid} out of range (have {self.n_streams})")
        counters = self._next_seq[unordered]
        seq = counters[sid]
        counters[sid] = (seq + 1) & (MID_MASK if idata else SSN_MASK)
        return seq

    def seed(self, sid: int, value: int, unordered: bool = False) -> None:
        """Start ``sid``'s sequence space at ``value`` (wraparound testing)."""
        self._next_seq[unordered][sid] = value


class InboundStreams:
    """Reassembly + per-stream ordering for the receiving side.

    Through its ``clock`` (virtual-time callable) it also measures
    head-of-line stall time: the nanoseconds each *complete* message
    spends parked behind a missing earlier SSN/MID of its own stream.
    This is the counter that explains the paper's Fig. 12 — with one
    stream every loss stalls everything behind it; with ten, only one
    stream's messages wait.
    """

    def __init__(self, n_streams: int, clock: Callable[[], int] = lambda: 0) -> None:
        self.n_streams = n_streams
        # incomplete messages: space -> (fragments by index, and for each
        # run of consecutive indices its two open ends: the index it waits
        # for on the right -> its first index, the index it waits for on
        # the left -> its last index).  A space goes when it empties.
        self._spaces: Dict[
            Optional[Tuple[int, bool, int]],
            Tuple[Dict[int, DataChunk], Dict[int, int], Dict[int, int]],
        ] = {}
        # complete but out-of-order messages, per stream, by SSN/MID
        self._pending: List[Dict[int, AssembledMessage]] = [
            {} for _ in range(n_streams)
        ]
        self._next_seq = [0] * n_streams
        self.buffered_bytes = 0  # fragments + undeliverable messages
        self._clock = clock
        # when each message in _pending got there: (sid, seq) -> t_ns
        self._parked_at: Dict[Tuple[int, int], int] = {}
        self.hol_stall_ns = 0  # total time complete messages waited for order
        self.hol_stall_ns_per_stream = [0] * n_streams  # same, by stream
        self.parked_messages_max = 0  # peak complete-but-undeliverable backlog
        self.delivered_per_stream = [0] * n_streams
        # per-stream SSN-order sanitizer and RFC 8260 legality sanitizer
        # (which also audits MID order); None unless REPRO_SANITIZE is on
        self._san = stream_sanitizer()
        self._san_idata = idata_sanitizer()

    def seed(self, sid: int, value: int) -> None:
        """Set the next expected ordered SSN/MID on ``sid`` (wraparound tests)."""
        self._next_seq[sid] = value
        if self._san is not None:
            self._san.seed(sid, value)

    def on_data(self, chunk: DataChunk) -> List[AssembledMessage]:
        """Ingest one DATA or I-DATA chunk; returns the messages now
        deliverable, in order."""
        if self._san_idata is not None:
            self._san_idata.on_chunk(chunk)
        if not 0 <= chunk.sid < self.n_streams:
            raise ValueError(
                f"inbound stream {chunk.sid} out of range (negotiated "
                f"{self.n_streams})"
            )
        self.buffered_bytes += chunk.payload.nbytes
        if chunk.begin and chunk.end:
            # a whole message in one chunk has no neighbours to find: it
            # skips the space (a fast path kept on measurement, DESIGN §9.1)
            head = tail = chunk
            data = ChunkList.concat((chunk.payload,))
        else:
            if chunk.is_idata:
                space, index = (chunk.sid, chunk.unordered, chunk.mid), chunk.fsn
            else:
                space, index = None, chunk.tsn
            state = self._spaces.get(space)
            if state is None:
                state = self._spaces[space] = ({}, {}, {})
            frags, ends_before, starts_after = state
            # join the run that ends just before this index and the one
            # that starts just after it; a B fragment never extends to the
            # left nor an E fragment to the right, so neighbouring
            # messages in TSN space stay apart
            first = index if chunk.begin else ends_before.pop(index, index)
            last = index if chunk.end else starts_after.pop(index, index)
            frags[index] = chunk
            head = frags[first]
            tail = frags[last]
            if not (head.begin and tail.end):
                if not head.begin:
                    starts_after[first - 1] = last
                if not tail.end:
                    ends_before[last + 1] = first
                return []
            if chunk.is_idata and self._san_idata is not None:
                self._san_idata.on_assembled(chunk.sid, chunk.mid, frags, last)
            # every fragment is a view of the message and a complete run
            # tiles it, so the message is handed over once, whole (under
            # PDES each fragment carries its own copy: any one will do)
            if self._san is not None:
                self._san.on_reassembled(frags, first, last)
            for i in range(first, last + 1):
                del frags[i]
            data = ChunkList.concat((tail.payload.source,))
            if not frags:
                del self._spaces[space]
        return self._offer_complete(
            AssembledMessage(
                sid=head.sid,
                ssn=head.ssn,
                unordered=head.unordered,
                ppid=head.ppid,
                data=data,
                # fragments are cut, and TSNs assigned, in index order
                first_tsn=head.tsn,
                last_tsn=tail.tsn,
                mid=head.mid if head.is_idata else None,
            )
        )

    def _offer_complete(self, message: AssembledMessage) -> List[AssembledMessage]:
        sid = message.sid
        if message.mid is None:
            seq, mask, san = message.ssn, SSN_MASK, self._san
        else:
            seq, mask, san = message.mid, MID_MASK, self._san_idata
        if message.unordered:
            self.buffered_bytes -= message.nbytes
            self.delivered_per_stream[sid] += 1
            out = [message]
        else:
            clock = self._clock
            pending = self._pending[sid]
            pending[seq] = message
            self._parked_at[(sid, seq)] = clock()
            if len(self._parked_at) > self.parked_messages_max:
                self.parked_messages_max = len(self._parked_at)
            out = []
            nxt = self._next_seq[sid]
            while nxt in pending:
                msg = pending.pop(nxt)
                self.buffered_bytes -= msg.nbytes
                self.delivered_per_stream[sid] += 1
                stall = clock() - self._parked_at.pop((sid, nxt))
                self.hol_stall_ns += stall
                self.hol_stall_ns_per_stream[sid] += stall
                out.append(msg)
                nxt = (nxt + 1) & mask
            self._next_seq[sid] = nxt
        if san is not None:
            san.on_deliver(out)
        return out

    @property
    def has_undelivered(self) -> bool:
        """Data parked waiting for fragments or earlier SSNs/MIDs."""
        return bool(self._spaces or self._parked_at)
