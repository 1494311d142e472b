"""TCP send and receive buffers.

``SendBuffer`` maps absolute sequence numbers to application blobs so any
range can be (re)materialised for transmission or retransmission without
copying.  ``ReassemblyBuffer`` holds out-of-order segments, produces SACK
blocks, and releases in-order data to the application.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from operator import itemgetter
from typing import Deque, List, Tuple

from ...util.blobs import Blob, ChunkList
from ...util.ranges import RangeSet


class SendBuffer:
    """Blobs queued for transmission, addressed by absolute sequence."""

    def __init__(self, start_seq: int, capacity: int) -> None:
        self.capacity = capacity
        self._head_seq = start_seq  # sequence of the first byte still stored
        self._tail_seq = start_seq  # sequence just past the last stored byte
        self._pieces: Deque[Tuple[int, Blob]] = deque()  # (start_seq, blob)

    @property
    def tail_seq(self) -> int:
        """Sequence just past the last byte the app has written."""
        return self._tail_seq

    @property
    def used(self) -> int:
        """Bytes currently buffered (unacknowledged + unsent)."""
        return self._tail_seq - self._head_seq

    @property
    def free(self) -> int:
        """Remaining buffer capacity in bytes."""
        return self.capacity - self.used

    def write(self, blob: Blob) -> int:
        """Append as much of ``blob`` as fits; returns bytes accepted."""
        accept = min(blob.nbytes, self.free)
        if accept <= 0:
            return 0
        piece = blob if accept == blob.nbytes else blob.slice(0, accept)
        self._pieces.append((self._tail_seq, piece))
        self._tail_seq += accept
        return accept

    def bytes_after(self, seq: int) -> int:
        """Unsent/unacked bytes at or above sequence ``seq``."""
        avail = self._tail_seq - seq
        return avail if avail > 0 else 0

    def read_range(self, seq: int, nbytes: int) -> ChunkList:
        """Materialise payload for [seq, seq+nbytes) — used for (re)sends."""
        if seq < self._head_seq or seq + nbytes > self._tail_seq:
            raise ValueError(
                f"range [{seq},{seq + nbytes}) outside buffered "
                f"[{self._head_seq},{self._tail_seq})"
            )
        out = ChunkList()
        end = seq + nbytes
        for start, blob in self._pieces:
            blob_end = start + blob.nbytes
            if blob_end <= seq:
                continue
            if start >= end:
                break
            lo = max(seq, start) - start
            hi = min(end, blob_end) - start
            out.append(blob.slice(lo, hi))
        return out

    def release_below(self, seq: int) -> int:
        """Drop fully acknowledged bytes below ``seq``; returns bytes freed."""
        seq = min(seq, self._tail_seq)
        freed = max(0, seq - self._head_seq)
        while self._pieces:
            start, blob = self._pieces[0]
            if start + blob.nbytes <= seq:
                self._pieces.popleft()
            elif start < seq:
                # partial ack inside a blob: trim its acked prefix
                self._pieces[0] = (seq, blob.slice(seq - start, blob.nbytes))
                break
            else:
                break
        self._head_seq = max(self._head_seq, seq)
        return freed


_START = itemgetter(0)  # a parked segment's sort key: its start


class ReassemblyBuffer:
    """Receiver-side sequencing: in-order release + SACK generation."""

    def __init__(self, rcv_nxt: int) -> None:
        self.rcv_nxt = rcv_nxt
        # out-of-order segments: sorted, non-overlapping (start, end, data)
        self._segments: List[Tuple[int, int, ChunkList]] = []
        #: bytes those segments hold, above the in-order point (they
        #: consume receive buffer); kept as segments are parked and drained
        self.out_of_order_bytes = 0
        self._parked = RangeSet()  # the bytes those segments hold
        #: the parked ranges, most recently extended first: the order SACK
        #: blocks are reported in (RFC 2018 §4); empty while nothing is parked
        self.recent: List[Tuple[int, int]] = []

    def offer(self, seq: int, data: ChunkList) -> ChunkList:
        """Accept a segment; returns newly in-order data (possibly empty).

        Handles overlap trimming.  Data below ``rcv_nxt`` is discarded as
        duplicate; data overlapping queued segments keeps the first copy.
        """
        end = seq + data.nbytes
        rcv_nxt = self.rcv_nxt
        if end <= rcv_nxt:
            return ChunkList()  # entirely duplicate
        if seq < rcv_nxt:
            data = data.slice(rcv_nxt - seq, data.nbytes)
            seq = rcv_nxt

        if seq == rcv_nxt:
            self.rcv_nxt = end
            if not self._segments:
                # loss-free steady state: nothing parked to drain and no
                # SACK block to retire, so the segment's own payload is
                # exactly what gets delivered
                return data
            delivered = ChunkList()
            delivered.extend(data)
            self._drain_queue(delivered)
            self._parked.discard_below(self.rcv_nxt)
            self.recent = [r for r in self.recent if r[1] > self.rcv_nxt]
            return delivered

        # park only the bytes no earlier copy holds (first arrival wins)
        for start, stop in self._parked.missing(seq, end):
            insort(
                self._segments, (start, stop, data.slice(start - seq, stop - seq)),
                key=_START,
            )
            self.out_of_order_bytes += stop - start
        merged = self._parked.add(seq, end)
        # the block holding this segment goes first; those it swallowed go
        self.recent = [merged] + [
            r for r in self.recent if r[1] < merged[0] or r[0] > merged[1]
        ]
        return ChunkList()

    def _drain_queue(self, delivered: ChunkList) -> None:
        while self._segments and self._segments[0][0] <= self.rcv_nxt:
            start, end, data = self._segments.pop(0)
            self.out_of_order_bytes -= end - start
            if end <= self.rcv_nxt:
                continue  # stale duplicate
            if start < self.rcv_nxt:
                data = data.slice(self.rcv_nxt - start, data.nbytes)
            delivered.extend(data)
            self.rcv_nxt = end

    def sack_blocks(self, max_blocks: int) -> Tuple[Tuple[int, int], ...]:
        """Most-recently-updated SACK blocks, capped at ``max_blocks``."""
        return tuple(self.recent[:max_blocks])

    @property
    def has_gaps(self) -> bool:
        """Whether any out-of-order data is parked."""
        return bool(self._segments)
