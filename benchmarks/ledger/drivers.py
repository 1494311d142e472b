"""Isolated layer drivers: time public calls of one layer, nothing else.

The three kernel/network drivers are ported from ``bench_simperf.py``
and resized so each runs for at least half a second (the originals run
27-83 ms, shorter than this box's speed flips).  They touch no
``_``-prefixed attribute of any ``repro`` object.  Each builds its
kernel or link up front and returns the call to time, so construction
stays outside the measurement.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.network.link import Link
from repro.network.packet import Packet
from repro.simkernel import Kernel

from calib import Bracket


def bare_events(n_events: int) -> Callable[[], int]:
    """A ``post_after`` chain through a bare kernel: pure scheduling cost."""
    kernel = Kernel(seed=1)
    remaining = [n_events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            kernel.post_after(1, tick)

    kernel.post_after(1, tick)

    def run() -> int:
        kernel.run()
        return n_events

    return run


def _noop() -> None:
    return None


def timer_churn(n_timers: int) -> Callable[[], int]:
    """Schedule + cancel waves: the retransmission-timer pattern that
    lazy deletion and heap compaction exist for."""
    kernel = Kernel(seed=1)
    wave = 2_000

    def run() -> int:
        for base in range(0, n_timers, wave):
            timers = [kernel.call_after(1_000_000 + base + i, _noop) for i in range(wave)]
            for timer in timers:
                timer.cancel()
        kernel.run()
        return n_timers

    return run


def link_packets(n_packets: int) -> Callable[[], int]:
    """Packets through one saturated ``Link`` (tx-complete + propagation)."""
    kernel = Kernel(seed=1)
    done = [0]

    def sink(packet: Packet) -> None:
        done[0] += 1
        if done[0] < n_packets:
            link.send(packet)

    link = Link(kernel, "bench", bandwidth_bps=1_000_000_000, prop_delay_ns=1_000, sink=sink)

    def run() -> int:
        for _ in range(8):  # a small pipeline in flight so the link never idles
            link.send(Packet(
                src="10.0.0.1", dst="10.0.0.2", proto="bench", payload=None, wire_size=1400
            ))
        kernel.run()
        return done[0]

    return run


def rate(bracket: Bracket, driver: Callable[[], int]) -> float:
    """Units per raw wall second of one isolated driver."""
    units, raw, _calibrated = bracket.time(driver)
    return units / raw


# -- sweep / supervise -------------------------------------------------------
def _noop_task(item: int) -> int:
    return item


def supervise_task_overhead(bracket: Bracket, n_tasks: int = 8) -> float:
    """Calibrated seconds per task of ``supervised_map`` over no-op tasks."""
    from repro.supervise import supervised_map

    def run() -> Any:
        return supervised_map(_noop_task, list(range(n_tasks)), jobs=1)

    outcome, _raw, calibrated = bracket.time(run)
    if outcome.results != list(range(n_tasks)):
        raise RuntimeError(f"supervised_map lost no-op tasks: {outcome.results!r}")
    return calibrated / n_tasks


def code_version_first_call(bracket: Bracket) -> float:
    """Calibrated seconds of this process's first ``code_version()``.

    The tree hash is memoised per process, so this must run before
    anything else in the process calls into ``repro.sweep``.
    """
    from repro.sweep import code_version

    _version, _raw, calibrated = bracket.time(code_version)
    return calibrated


def cache_roundtrip_us(spec: Any, workdir: Path, rounds: int = 200) -> float:
    """Raw microseconds for one ``SweepCache`` put + get of one cell."""
    from repro.sweep import SweepCache

    cell = spec.cells[0]
    rows = [{"label": "probe", "measured": {"x": 1.0}, "paper": {}, "note": ""}]
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-probe-", dir=workdir))
    try:
        cache = SweepCache(cache_dir)
        start = time.perf_counter()
        for i in range(rounds):
            digest = f"{i:064x}"
            cache.put(digest, cell, rows)
            if cache.get(digest) != rows:
                raise RuntimeError("SweepCache did not round-trip a cell")
        return (time.perf_counter() - start) / rounds * 1e6
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def sweep_probes(bracket: Bracket, spec: Any, workdir: Path, cold_s: float) -> Dict[str, float]:
    """What the sweep front door adds on top of running its cells.

    ``cold_s`` is the calibrated cold ``run_sweep`` of the same spec
    (the median of the traced pass's metrics-off repetitions).
    """
    from repro.bench import harness
    from repro.sweep import SweepCache, run_sweep

    def direct() -> None:
        for cell in spec.cells:
            harness.run_sweep_cell(cell.experiment, cell.resolved)

    # the front door costs about 1 % today, a single timing moves by 8 %:
    # a median of three (like cold_s) resolves an executor that adds a tenth
    direct_s = statistics.median(bracket.time(direct)[2] for _ in range(3))
    cache_dir = Path(tempfile.mkdtemp(prefix="warm-cache-", dir=workdir))
    try:
        cache = SweepCache(cache_dir)
        run_sweep(spec, jobs=1, cache=cache)  # fill
        warm, _raw, warm_s = bracket.time(lambda: run_sweep(spec, jobs=1, cache=cache))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if warm.executed:
        raise RuntimeError(f"warm resume recomputed cells: {warm.executed}")
    return {
        "sweep.overhead_frac": (cold_s - direct_s) / cold_s,
        "sweep.warm_resume_s": warm_s,
    }


# -- parallel DES ------------------------------------------------------------
def pdes_probe(config: Any, app: Callable, horizon_ns: int) -> Dict[str, float]:
    """2-shard vs serial-horizon wall time of one world, two sharded runs.

    Not a workload: 2-shard wall time of this world spreads by a third
    between runs, which no bound could hold.  Recorded so ROADMAP item 2
    (make PDES win or delete it) has its number.
    """
    from repro.simkernel.pdes import run_sharded

    def leg(n_shards: int) -> Any:
        return run_sharded(
            app, config=config, horizon_ns=horizon_ns, n_shards=n_shards, shard_timeout_s=60.0
        )

    serial = leg(1)
    sharded: List[Any] = [leg(2), leg(2)]
    for run in sharded:
        if run.results != serial.results:
            raise RuntimeError("sharded run disagrees with the serial leg")
    first, second = sharded
    rounds = 0 if first.degraded else first.rounds
    return {
        "simkernel.pdes_rounds": rounds,
        "simkernel.pdes_events_per_round": first.events_processed / rounds if rounds else 0.0,
        "simkernel.pdes_wall_ratio_1": first.wall_s / serial.wall_s,
        "simkernel.pdes_wall_ratio_2": second.wall_s / serial.wall_s,
    }


ISOLATED_SIZES: Dict[bool, Tuple[int, int, int]] = {
    # (bare events, churned timers, link packets): >= 0.5 s each at full size
    False: (1_200_000, 1_000_000, 450_000),
    True: (20_000, 20_000, 10_000),
}
