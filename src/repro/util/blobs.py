"""Payload containers that separate *accounting* from *content*.

Simulated transports must move exact byte counts without the simulator
paying to copy megabytes around.  A :class:`Blob` is a sized piece of
payload: :class:`RealBlob` wraps actual ``bytes`` (used for middleware
envelopes and for tests that check end-to-end content integrity), while
:class:`SyntheticBlob` is a zero-cost stand-in of a given size (used for
benchmark message bodies, exactly like MPBench's throwaway buffers).  A
synthetic blob reads as zero bytes if ever materialised.

:class:`ChunkList` is an ordered run of blobs with O(pieces) slicing —
transports use it for segment payloads and reassembled data.
"""

from __future__ import annotations

from typing import Iterable, List, Union


class Blob:
    """Abstract sized payload piece.

    ``__slots__ = ()`` here is load-bearing: without it every RealBlob /
    SyntheticBlob instance would still carry a ``__dict__`` despite their
    own slots, and blobs are among the highest-churn objects in a run.
    """

    __slots__ = ()

    nbytes: int

    def __len__(self) -> int:
        return self.nbytes

    def slice(self, start: int, end: int) -> "Blob":
        """Sub-blob for byte range [start, end)."""
        raise NotImplementedError

    def to_bytes(self) -> bytes:
        """Materialise the content (synthetic blobs read as zeros)."""
        raise NotImplementedError

    @property
    def is_real(self) -> bool:
        """Whether the blob carries actual byte content."""
        raise NotImplementedError


class RealBlob(Blob):
    """Payload backed by actual bytes."""

    __slots__ = ("data", "nbytes")

    def __init__(self, data: bytes) -> None:
        self.data = bytes(data)
        self.nbytes = len(self.data)

    def slice(self, start: int, end: int) -> "RealBlob":
        _check_range(start, end, self.nbytes)
        return RealBlob(self.data[start:end])

    def to_bytes(self) -> bytes:
        return self.data

    @property
    def is_real(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RealBlob({self.nbytes}B)"


class SyntheticBlob(Blob):
    """A sized placeholder: benchmarks move sizes, not content."""

    __slots__ = ("nbytes", "label")

    def __init__(self, nbytes: int, label: str = "") -> None:
        if nbytes < 0:
            raise ValueError(f"negative blob size: {nbytes}")
        self.nbytes = nbytes
        self.label = label

    def slice(self, start: int, end: int) -> "SyntheticBlob":
        _check_range(start, end, self.nbytes)
        return SyntheticBlob(end - start, self.label)

    def to_bytes(self) -> bytes:
        return b"\x00" * self.nbytes

    @property
    def is_real(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SyntheticBlob({self.nbytes}B, {self.label!r})"


def as_blob(value: Union[Blob, bytes, bytearray, memoryview]) -> Blob:
    """Coerce bytes-like values into a Blob (Blobs pass through)."""
    if isinstance(value, Blob):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return RealBlob(bytes(value))
    raise TypeError(f"cannot make a Blob from {type(value).__name__}")


class ChunkList:
    """An ordered run of blobs, sliceable without copying content."""

    __slots__ = ("pieces", "nbytes")

    def __init__(self, pieces: Iterable[Blob] = ()) -> None:
        kept: List[Blob] = []
        total = 0
        for piece in pieces:
            n = piece.nbytes
            if n > 0:
                kept.append(piece)
                total += n
        self.pieces = kept
        self.nbytes = total

    def __len__(self) -> int:
        return self.nbytes

    @classmethod
    def concat(cls, parts: Iterable[Union[Blob, "ChunkList"]]) -> "ChunkList":
        """One flat run of ``parts`` in order: a chunk list contributes
        its pieces, never itself, so a piece is always a blob."""
        kept: List[Blob] = []
        total = 0
        for part in parts:
            n = part.nbytes
            if n > 0:
                if isinstance(part, ChunkList):
                    kept.extend(part.pieces)
                else:
                    kept.append(part)
                total += n
        out = cls.__new__(cls)
        out.pieces = kept
        out.nbytes = total
        return out

    def append(self, blob: Blob) -> None:
        """Add a blob at the end."""
        if blob.nbytes == 0:
            return
        self.pieces.append(blob)
        self.nbytes += blob.nbytes

    def extend(self, other: "ChunkList") -> None:
        """Concatenate another chunk list."""
        # a ChunkList never stores zero-length pieces, so no per-piece
        # filtering (and no per-piece method call) is needed here
        self.pieces.extend(other.pieces)
        self.nbytes += other.nbytes

    def slice(self, start: int, end: int) -> "ChunkList":
        """Byte range [start, end) as a new chunk list."""
        _check_range(start, end, self.nbytes)
        if start == 0 and end == self.nbytes:
            # whole-run fast path (full re-sends): share the immutable
            # blobs, copy only the list
            out = ChunkList.__new__(ChunkList)
            out.pieces = self.pieces.copy()
            out.nbytes = self.nbytes
            return out
        kept: List[Blob] = []
        total = 0
        pos = 0
        for piece in self.pieces:
            n = piece.nbytes
            piece_end = pos + n
            if piece_end <= start:
                pos = piece_end
                continue
            if pos >= end:
                break
            if start <= pos and piece_end <= end:
                # piece fully inside the range: blobs are immutable, share it
                kept.append(piece)
                total += n
            else:
                lo = start - pos if start > pos else 0
                hi = (end if end < piece_end else piece_end) - pos
                kept.append(piece.slice(lo, hi))
                total += hi - lo
            pos = piece_end
        out = ChunkList.__new__(ChunkList)
        out.pieces = kept
        out.nbytes = total
        return out

    def piece_at(self, offset: int) -> Blob:
        """The (tail of the) piece containing byte ``offset``.

        Equivalent to ``self.slice(offset, self.nbytes).pieces[0]`` —
        what a streaming writer feeds a socket next — without building
        the whole remainder as a new chunk list.
        """
        pos = 0
        for piece in self.pieces:
            nxt = pos + piece.nbytes
            if offset < nxt:
                return piece if offset == pos else piece.slice(offset - pos, piece.nbytes)
            pos = nxt
        raise ValueError(f"offset {offset} beyond {self.nbytes}-byte payload")

    def split(self, at: int) -> tuple["ChunkList", "ChunkList"]:
        """Split into (first ``at`` bytes, remainder); this run is unchanged."""
        rest = self.slice(0, self.nbytes)
        return rest.take(at), rest

    def take(self, at: int) -> "ChunkList":
        """Remove the first ``at`` bytes from this run and return them.

        Taking everything hands the pieces over and leaves this run
        empty, and taking exactly the first piece (a framed envelope)
        moves that one blob, so neither case slices anything.
        """
        nbytes = self.nbytes
        out = ChunkList.__new__(ChunkList)
        if at == nbytes:
            out.pieces = self.pieces
            out.nbytes = nbytes
            self.pieces = []
            self.nbytes = 0
            return out
        if 0 < at < nbytes and self.pieces[0].nbytes == at:
            out.pieces = [self.pieces.pop(0)]
            out.nbytes = at
            self.nbytes = nbytes - at
            return out
        head = self.slice(0, at)
        rest = self.slice(at, nbytes)
        self.pieces = rest.pieces
        self.nbytes = rest.nbytes
        return head

    def to_bytes(self) -> bytes:
        """Materialise the whole run (synthetic pieces read as zeros)."""
        pieces = self.pieces
        if len(pieces) == 1:  # e.g. a framed envelope: no join needed
            return pieces[0].to_bytes()
        return b"".join(p.to_bytes() for p in pieces)

    @property
    def is_real(self) -> bool:
        """True when every piece carries actual bytes."""
        return all(p.is_real for p in self.pieces)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChunkList({self.nbytes}B, {len(self.pieces)} pieces)"


def _check_range(start: int, end: int, size: int) -> None:
    if not 0 <= start <= end <= size:
        raise ValueError(f"bad slice [{start}, {end}) of {size}-byte payload")
