"""Sorted, disjoint half-open integer ranges: the one selective-ack
structure of both stacks (SCTP's gap blocks, TCP's SACK blocks and its
sender scoreboard are a :class:`RangeSet`'s ranges, read off as they are).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Tuple


class RangeSet:
    """Ranges ``[start, end)`` kept sorted and disjoint; an insert merges
    every range it overlaps or touches, so each range is a maximal run."""

    __slots__ = ("_starts", "_ends")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []

    def __len__(self) -> int:  # the number of ranges
        return len(self._starts)

    def __iter__(self) -> Iterator[Tuple[int, int]]:  # ascending
        return zip(self._starts, self._ends)

    def __contains__(self, x: int) -> bool:
        i = bisect_right(self._starts, x) - 1
        return i >= 0 and x < self._ends[i]

    def add(self, start: int, end: int) -> Optional[Tuple[int, int]]:
        """Insert ``[start, end)``; returns the range now holding it (None,
        and nothing changes, when ``start >= end``)."""
        if start >= end:
            return None
        starts, ends = self._starts, self._ends
        lo = bisect_left(ends, start)  # first range ending at or after start
        hi = bisect_right(starts, end)  # past the last starting at or before end
        if lo < hi:
            start = min(start, starts[lo])
            end = max(end, ends[hi - 1])
        starts[lo:hi] = (start,)
        ends[lo:hi] = (end,)
        return start, end

    def missing(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """The parts of ``[lo, hi)`` no range covers, ascending."""
        starts, ends = self._starts, self._ends
        out = []
        i = bisect_right(ends, lo)  # first range ending after lo
        while lo < hi and i < len(starts) and starts[i] < hi:
            if starts[i] > lo:
                out.append((lo, starts[i]))
            lo = ends[i]
            i += 1
        if lo < hi:
            out.append((lo, hi))
        return out

    def discard_below(self, x: int) -> None:
        """Forget every integer below ``x``."""
        starts = self._starts
        i = bisect_right(self._ends, x)  # ranges ending at or below x go whole
        del starts[:i], self._ends[:i]
        if starts and starts[0] < x:
            starts[0] = x
