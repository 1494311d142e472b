"""Calibration kernel and the timing protocol built on it.

The container this benchmark runs in flips between a fast and a slow
CPU state every few seconds (a fixed arithmetic loop reads 8.7 ms or
11.2 ms), so raw wall seconds of one and the same simulation move by a
fifth between back-to-back runs.  Every timed call is therefore
bracketed by a fixed pure-Python kernel, and reported in *calibrated
seconds*::

    calibrated = raw_wall / mean(kernel before, kernel after) * REF_CAL_S

i.e. "the seconds this would have taken on the box where the kernel
takes ``REF_CAL_S``".  The kernel imports nothing from ``repro``: a
simulator change cannot move the yardstick.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: The kernel's median time on the box that produced the first committed
#: numbers (BASELINE.json).  A constant, not a measurement: changing it
#: rescales every calibrated metric of every later run.
REF_CAL_S = 0.0100


def cal_kernel() -> float:
    """Run the fixed calibration work once; return its wall seconds.

    Half integer arithmetic, half a miniature event loop (heap of
    tuples, closure calls, dict counters): the same interpreter paths
    the simulator lives on, so the kernel slows down with it when the
    box does.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc + i * 31) % 1_000_003
    heap: List[Tuple[int, int, int]] = []
    counts: Dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop

    def fire(lane: int, now: int) -> int:
        counts[lane] = counts.get(lane, 0) + 1
        return now + 1 + (lane * 7919 + now) % 97

    for lane in range(64):
        push(heap, (lane, lane, lane))
    seq = 64
    for _ in range(9_000):
        now, _seq, lane = pop(heap)
        seq += 1
        push(heap, (fire(lane, now), seq, lane))
    if acc < 0 or not counts:  # keep both halves observable
        raise AssertionError("calibration kernel optimised away")
    return time.perf_counter() - start


class Bracket:
    """Times calls between runs of the calibration kernel.

    One instance per process; :meth:`time` reuses the kernel run that
    closed the previous call as the one that opens the next, so a rep of
    two legs costs three kernel runs, not four.
    """

    def __init__(self) -> None:
        self.cal_samples: List[float] = []
        self._last = self._cal()

    def _cal(self) -> float:
        seconds = cal_kernel()
        self.cal_samples.append(seconds)
        return seconds

    def time(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Call ``fn``; return ``(result, raw_s, calibrated_s)``."""
        before = self._last
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        after = self._cal()
        self._last = after
        return result, raw, raw / ((before + after) / 2.0) * REF_CAL_S

    def cal_median(self) -> float:
        return statistics.median(self.cal_samples)

    def cal_cv(self) -> float:
        """Coefficient of variation of the kernel: how unsteady the box was."""
        if len(self.cal_samples) < 2:
            return 0.0
        return statistics.stdev(self.cal_samples) / statistics.fmean(self.cal_samples)


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median (as ``value``), quartiles and count of a timing sample.

    With the 10-16 samples a run takes, no percentile above the median
    has ten samples beyond it, so none is reported.
    """
    if not samples:
        raise ValueError("no samples to summarise")
    ordered = sorted(samples)
    if len(ordered) == 1:
        q1 = q3 = ordered[0]
    else:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    return {
        "value": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
    }
