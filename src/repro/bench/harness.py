"""Experiment drivers for every table and figure in the paper's §4.

Scaling: simulating 10,000 farm tasks or 50-iteration ping-pongs is
possible but slow in pure Python, so by default each experiment runs a
documented scale-down (fewer tasks/iterations — *never* different
protocol parameters).  Set ``REPRO_FULL=1`` for paper-scale runs.
Run-time ratios, crossovers and winners are scale-invariant here because
they are per-message effects; EXPERIMENTS.md records both.
"""

from __future__ import annotations

import inspect
import itertools
import math
import operator
import os
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from ..core.world import WorldConfig
from ..metrics import MetricsCollector
from ..metrics.registry import _coerce
from ..transport.base import SCTPConfig
from ..workloads.farm import FarmParams, run_farm
from ..workloads.interleave_mix import run_interleave_mix
from ..workloads.mpbench import make_pingpong, run_pingpong

LIMIT_NS = 20_000_000_000_000  # hard per-run virtual-time ceiling


def full_scale() -> bool:
    """Whether to run paper-scale parameters (REPRO_FULL=1)."""
    return os.environ.get("REPRO_FULL", "") == "1"  # repro: allow[AN108] — the scale keys the sweep cache by design


def scaled(default: int, full: int) -> int:
    """Pick the scaled-down or paper-scale value of a parameter."""
    return full if full_scale() else default


@dataclass
class ExperimentRow:
    """One row of a paper-vs-measured comparison table."""

    label: str
    measured: Dict[str, Any]
    paper: Dict[str, Any] = field(default_factory=dict)
    note: str = ""

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-JSON form (numpy scalars coerced): what workers ship back
        and ``--metrics-json`` writes; ``ExperimentRow(**doc)`` inverts it."""
        return {
            "label": self.label,
            "measured": {k: _coerce(v) for k, v in self.measured.items()},
            "paper": {k: _coerce(v) for k, v in self.paper.items()},
            "note": self.note,
        }


def format_table(title: str, rows: List[ExperimentRow]) -> str:
    """Render rows for the bench log / EXPERIMENTS.md."""
    lines = [f"== {title} =="]
    for row in rows:
        measured = "  ".join(f"{k}={_fmt(v)}" for k, v in row.measured.items())
        paper = "  ".join(f"{k}={_fmt(v)}" for k, v in row.paper.items())
        line = f"  {row.label:<38} {measured}"
        if paper:
            line += f"   | paper: {paper}"
        if row.note:
            line += f"   ({row.note})"
        lines.append(line)
    return "\n".join(lines)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:,.3g}" if abs(v) < 100 else f"{v:,.0f}"
    return str(v)


# A figure's claim is the paper's qualitative result its rows must
# reproduce, as a table of checks: rows in, one message per broken check
# out.  Checks are data, not ``assert``s, so ``python -O`` cannot strip them.
_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq}
Cells = Dict[str, Dict[str, Any]]  # a figure's rows: label -> measured


class Check(NamedTuple):
    """``value op bound`` must hold, or ``message`` is reported.  ``value``
    is ``(row label, metric)`` or a summary function of the :data:`Cells`;
    ``bound`` is a number or ``(row label, metric, factor)``.  A measurement
    whose row is absent fails; a band is two checks with one message."""

    value: Union[Tuple[str, str], Callable[[Cells], Any]]
    op: str
    bound: Any
    message: str


def _band(value, lo: Any, hi: Any, message: str, ops=(">", "<")) -> List[Check]:
    """``lo < value < hi`` (or the ``ops`` given) as two checks."""
    return [Check(value, ops[0], lo, message), Check(value, ops[1], hi, message)]


class Claim:
    """A figure's checks; called on its rows, the failing checks' messages,
    each as ``<message> (got X, needs op Y)``."""

    def __init__(self, checks: List[Check]) -> None:
        self.checks = checks

    def __call__(self, rows: List[ExperimentRow]) -> List[str]:
        cells = {row.label: row.measured for row in rows}
        failures: Dict[str, str] = {}  # message -> report: a band reports once
        for value, op, bound, message in self.checks:
            got = value(cells) if callable(value) else cells.get(value[0], {}).get(value[1])
            if isinstance(bound, tuple):
                base = cells.get(bound[0], {}).get(bound[1])
                bound = None if base is None else base * bound[2]
            if got is None or bound is None or not _OPS[op](got, bound):
                report = f"{message} (got {_fmt(got)}, needs {op} {_fmt(bound)})"
                failures.setdefault(message, report)
        return list(failures.values())


# ---------------------------------------------------------------------------
# Fig. 8 — ping-pong throughput, no loss, normalized SCTP/TCP
# ---------------------------------------------------------------------------
FIG8_SIZES = [1, 1024, 4096, 8192, 16384, 22528, 32768, 65536, 98302, 131069]


def _fig8_cell(
    size: int, seed: int = 1, iterations: Optional[int] = None
) -> List[ExperimentRow]:
    """One fig8 matrix cell: both protocols at one message size."""
    iters = iterations or scaled(16, 50)
    tcp = run_pingpong(size, iterations=iters, limit_ns=LIMIT_NS, rpi="tcp", seed=seed)
    sctp = run_pingpong(size, iterations=iters, limit_ns=LIMIT_NS, rpi="sctp", seed=seed)
    ratio = sctp.throughput_bytes_per_s / tcp.throughput_bytes_per_s
    return [
        ExperimentRow(
            label=f"pingpong {size}B",
            measured={
                "tcp_MBps": tcp.throughput_bytes_per_s / 1e6,
                "sctp_MBps": sctp.throughput_bytes_per_s / 1e6,
                "sctp/tcp": ratio,
            },
            paper={"shape": "<1 below ~22K, >1 above"},
        )
    ]


#: where sctp/tcp must cross 1.0: the paper's ~22 KiB, within a factor of two
FIG8_CROSSOVER_BAND = (11 * 1024, 44 * 1024)


def fig8_crossover(ratios: Dict[int, float]) -> Optional[float]:
    """The message size at which sctp/tcp first reaches 1.0, interpolated
    linearly between the two measured sizes around it (None: never)."""
    below = None
    for size in sorted(ratios):
        ratio = ratios[size]
        if ratio >= 1.0:
            if below is None:
                return float(size)
            lo, lo_ratio = below
            return lo + (size - lo) * (1.0 - lo_ratio) / (ratio - lo_ratio)
        below = (size, ratio)
    return None


def _fig8_crossing(cells: Cells) -> Optional[float]:
    """:func:`fig8_crossover` over the sizes present."""
    return fig8_crossover({size: cells[label]["sctp/tcp"] for size in FIG8_SIZES
                           if (label := f"pingpong {size}B") in cells})


# Fig. 8: TCP wins small messages, SCTP large ones, crossing near 22 KiB.
fig8_claim = Claim([
    Check(("pingpong 1B", "sctp/tcp"), "<", 1.0, "TCP must win tiny messages"),
    Check(("pingpong 4096B", "sctp/tcp"), "<", 1.05, "TCP competitive through small sizes"),
    Check(("pingpong 98302B", "sctp/tcp"), ">", 1.0, "SCTP must win large messages"),
    Check(("pingpong 131069B", "sctp/tcp"), ">", 1.05, "SCTP clearly ahead at 128K"),
    *_band(_fig8_crossing, *FIG8_CROSSOVER_BAND, "sctp/tcp must cross 1.0 within 11-44 KiB",
           ops=(">=", "<=")),
])


# ---------------------------------------------------------------------------
# Table 1 — ping-pong under loss
# ---------------------------------------------------------------------------
TABLE1_PAPER = {
    (30 * 1024, 0.01): (54_779, 1_924),
    (30 * 1024, 0.02): (44_614, 1_030),
    (300 * 1024, 0.01): (5_870, 1_818),
    (300 * 1024, 0.02): (2_825, 885),
}


def _table1_cell(size: int, loss: float, seeds=(1, 2, 3, 4, 5)) -> List[ExperimentRow]:
    """One Table-1 cell: both protocols at one (size, loss), seed-averaged.

    Individual runs are dominated by whether a tail-drop timeout (with
    backoff) lands in the measured window, hence the seed average; why
    our factors (~1-2x) sit below the paper's (3-43x) is in
    EXPERIMENTS.md."""
    iters = scaled(50, 100) if size <= 64 * 1024 else scaled(16, 40)
    tcp_bps = sctp_bps = 0.0
    for seed in seeds:
        tcp_bps += run_pingpong(
            size, iterations=iters, limit_ns=LIMIT_NS, rpi="tcp", loss_rate=loss, seed=seed
        ).throughput_bytes_per_s
        sctp_bps += run_pingpong(
            size, iterations=iters, limit_ns=LIMIT_NS, rpi="sctp", loss_rate=loss, seed=seed
        ).throughput_bytes_per_s
    tcp_bps /= len(seeds)
    sctp_bps /= len(seeds)
    p_sctp, p_tcp = TABLE1_PAPER[(size, loss)]
    return [
        ExperimentRow(
            label=f"pingpong {size // 1024}K loss={loss:.0%}",
            measured={
                "sctp_Bps": sctp_bps,
                "tcp_Bps": tcp_bps,
                "sctp/tcp": sctp_bps / max(1e-9, tcp_bps),
            },
            paper={
                "sctp_Bps": p_sctp,
                "tcp_Bps": p_tcp,
                "sctp/tcp": p_sctp / p_tcp,
            },
            note=f"mean of {len(seeds)} seeds",
        )
    ]


# Table 1: SCTP beats TCP under loss.  The paper's far larger factors
# (28-43x at 30 KiB) are discussed, not asserted, in EXPERIMENTS.md.
table1_claim = Claim([
    Check(("pingpong 30K loss=2%", "sctp/tcp"), ">", 1.0, "SCTP must win 30K at 2% loss"),
    Check(("pingpong 300K loss=2%", "sctp/tcp"), ">", 1.0, "SCTP must win 300K at 2% loss"),
    Check(lambda cells: math.fsum(m["sctp/tcp"] for m in cells.values()) / len(cells), ">", 1.1,
          "SCTP should win on average under loss (mean sctp/tcp)"),
])


# ---------------------------------------------------------------------------
# Fig. 9 — NAS parallel benchmarks, class B, Mop/s
# ---------------------------------------------------------------------------
FIG9_ORDER = ["LU", "SP", "EP", "CG", "BT", "MG", "IS"]


def _fig9_cell(kernel: str, cls: str = "B", seed: int = 1) -> List[ExperimentRow]:
    """One fig9 cell: both protocols on one NPB kernel."""
    # the NPB kernels need numpy; no other experiment pays for importing it
    from ..workloads.npb import run_npb

    tcp = run_npb(kernel, cls, limit_ns=LIMIT_NS, rpi="tcp", seed=seed)
    sctp = run_npb(kernel, cls, limit_ns=LIMIT_NS, rpi="sctp", seed=seed)
    return [
        ExperimentRow(
            label=f"NPB {kernel}.{cls}",
            measured={
                "sctp_Mops": sctp.mops,
                "tcp_Mops": tcp.mops,
                "sctp/tcp": sctp.mops / max(1e-9, tcp.mops),
                "verified": sctp.verified and tcp.verified,
            },
            paper={
                "shape": "TCP ahead on MG,BT; comparable elsewhere"
                if kernel in ("MG", "BT")
                else "comparable"
            },
        )
    ]


# Fig. 9: SCTP comparable to TCP on NPB class B; TCP keeps an edge on the
# short-message-dominated MG and BT.
fig9_claim = Claim([
    *(check for k in FIG9_ORDER for check in [
        Check((f"NPB {k}.B", "verified"), "==", True, f"{k} must pass numerical verification"),
        *_band((f"NPB {k}.B", "sctp/tcp"), 0.5, 2.0, f"{k}: protocols should be comparable")]),
    Check(("NPB MG.B", "sctp/tcp"), "<", 1.1, "TCP must stay ahead on MG"),
    Check(("NPB BT.B", "sctp/tcp"), "<", 1.1, "TCP must stay ahead on BT"),
])


# ---------------------------------------------------------------------------
# Figs. 10/11 — Bulk Processor Farm
# ---------------------------------------------------------------------------
FIG10_PAPER = {  # (size_label, loss) -> (sctp_s, tcp_s), fanout=1
    ("short", 0.00): (6.8, 5.9),
    ("short", 0.01): (7.7, 79.9),
    ("short", 0.02): (11.2, 131.5),
    ("long", 0.00): (83.0, 114.0),
    ("long", 0.01): (804.0, 2080.0),
    ("long", 0.02): (1595.0, 4311.0),
}

FIG11_PAPER = {  # fanout=10
    ("short", 0.00): (8.7, 6.2),
    ("short", 0.01): (11.7, 88.1),
    ("short", 0.02): (16.0, 154.7),
    ("long", 0.00): (79.0, 129.0),
    ("long", 0.01): (786.0, 3103.0),
    ("long", 0.02): (1585.0, 6414.0),
}


def _farm_params(size_label: str, fanout: int) -> FarmParams:
    task_size = 30 * 1024 if size_label == "short" else 300 * 1024
    num_tasks = (
        scaled(420, 10_000) if size_label == "short" else scaled(120, 10_000)
    )
    return FarmParams(
        num_tasks=num_tasks,
        task_size=task_size,
        fanout=fanout,
        compute_seconds_per_task=0.004,
    )


def _farm_label(size_label: str, fanout: int, loss: float) -> str:
    return f"farm {size_label} fanout={fanout} loss={loss:.0%}"


def _farm_cell(
    fanout: int, size_label: str, loss: float, seed: int = 1
) -> List[ExperimentRow]:
    """One farm cell: both protocols at one (size, loss) for a fanout."""
    paper = FIG10_PAPER if fanout == 1 else FIG11_PAPER
    params = _farm_params(size_label, fanout)
    sctp = run_farm(params, limit_ns=LIMIT_NS, rpi="sctp", loss_rate=loss, seed=seed)
    tcp = run_farm(params, limit_ns=LIMIT_NS, rpi="tcp", loss_rate=loss, seed=seed)
    p_sctp, p_tcp = paper[(size_label, loss)]
    return [
        ExperimentRow(
            label=_farm_label(size_label, fanout, loss),
            measured={
                "sctp_s": sctp.elapsed_s,
                "tcp_s": tcp.elapsed_s,
                "tcp/sctp": tcp.elapsed_s / max(1e-9, sctp.elapsed_s),
            },
            paper={
                "sctp_s": p_sctp,
                "tcp_s": p_tcp,
                "tcp/sctp": p_tcp / p_sctp,
            },
            note=f"{params.num_tasks} tasks (paper: 10000)",
        )
    ]


def _farm_checks(fanout: int, short_min: float, long_min: float) -> List[Check]:
    """Figs. 10/11: comparable without loss; under 1-2% loss TCP's run time
    exceeds SCTP's by more than ``short_min``x (short) and ``long_min``x (long)."""
    checks = []
    for size_label, loss in FIG10_PAPER:
        label = _farm_label(size_label, fanout, loss)
        cell = (label, "tcp/sctp")
        if loss == 0:
            checks += _band(cell, 0.4, 2.5, f"{label}: no-loss runs comparable")
        else:
            least = short_min if size_label == "short" else long_min
            checks.append(Check(cell, ">", least, f"{label}: TCP must degrade under loss"))
    return checks


# Fig. 10: under loss TCP's run time blows up by ~10x (short) and ~2.6x
# (long) relative to SCTP's; our per-seed spread for long messages at
# demo scale is wide, so that direction is guarded with margin.
fig10_claim = Claim(_farm_checks(1, short_min=2.0, long_min=1.3))
# Fig. 11: ten tasks per request make the loss gap worse for TCP (more
# back-to-back data behind any lost segment), especially for long
# messages; SCTP degrades only mildly versus Fig. 10.
fig11_claim = Claim(_farm_checks(10, short_min=2.0, long_min=2.0))


# ---------------------------------------------------------------------------
# Fig. 12 — head-of-line blocking: 10-stream vs 1-stream SCTP
# ---------------------------------------------------------------------------
FIG12_PAPER = {  # (size_label, loss) -> (streams10_s, stream1_s)
    ("short", 0.00): (8.7, 9.3),
    ("short", 0.01): (11.7, 11.0),
    ("short", 0.02): (16.0, 21.6),
    ("long", 0.00): (79.0, 79.0),
    ("long", 0.01): (786.0, 1000.0),
    ("long", 0.02): (1585.0, 1942.0),
}


def _fig12_cell(size_label: str, loss: float, seeds=(1, 2, 3)) -> List[ExperimentRow]:
    """One fig12 cell: 10-stream vs 1-stream SCTP at one (size, loss).

    Run times at demo scale are dominated by a handful of retransmission
    timeouts, so each lossy cell averages several seeds (the paper
    averaged six runs of 10,000 tasks for the same reason — §4.2.1)."""
    params = _farm_params(size_label, fanout=10)
    multi_s = single_s = 0.0
    use_seeds = seeds if loss > 0 else seeds[:1]
    for seed in use_seeds:
        multi_s += run_farm(
            params, limit_ns=LIMIT_NS, rpi="sctp", loss_rate=loss, seed=seed, num_streams=10
        ).elapsed_s
        single_s += run_farm(
            params, limit_ns=LIMIT_NS, rpi="sctp", loss_rate=loss, seed=seed, num_streams=1
        ).elapsed_s
    multi_s /= len(use_seeds)
    single_s /= len(use_seeds)
    p10, p1 = FIG12_PAPER[(size_label, loss)]
    return [
        ExperimentRow(
            label=_farm_label(size_label, 10, loss),
            measured={
                "streams10_s": multi_s,
                "stream1_s": single_s,
                "1s/10s": single_s / max(1e-9, multi_s),
            },
            paper={
                "streams10_s": p10,
                "stream1_s": p1,
                "1s/10s": p1 / p10,
            },
            note=f"mean of {len(use_seeds)} seeds",
        )
    ]


# Fig. 12: without loss 1 and 10 streams are equivalent; under loss one
# stream re-introduces HOL blocking (~25% slower for long messages, ~35%
# at 2% loss for short).
fig12_claim = Claim([
    *(check for label in (_farm_label(size_label, 10, 0.0) for size_label in ("short", "long"))
      for check in _band((label, "1s/10s"), 0.85, 1.2, f"{label}: equal without loss")),
    Check(lambda cells: max(cells[_farm_label(size_label, 10, loss)]["1s/10s"]
                            for size_label, loss in FIG12_PAPER if loss > 0),
          ">", 1.10, "multistreaming must help under loss (largest lossy 1s/10s)"),
])


# ---------------------------------------------------------------------------
# §3.5.1 extension — multihoming failover keeps an MPI run alive
# ---------------------------------------------------------------------------
def _chaos_world(rpi: str, seed: int, scenario, fault_start_ns: int):
    """A 2-proc, 2-path world with a DeliveryWatch on the host tap bus."""
    from ..core.world import World
    from ..faults import DeliveryWatch
    from ..simkernel import SECOND

    # tuned failure detection, as §3.5.1 recommends for MPI deployments
    sctp_config = SCTPConfig(path_max_retrans=1, heartbeat_interval_ns=2 * SECOND)
    config = WorldConfig(
        n_procs=2,
        rpi=rpi,
        seed=seed,
        n_paths=2,
        sctp_config=sctp_config,
        scenario=scenario,
    )
    world = World(config)
    watch = DeliveryWatch(rpi, fault_start_ns=fault_start_ns)
    watch.attach(world.cluster.hosts)
    return world, watch


def _transport_counters(world, rpi: str) -> Dict[str, int]:
    """Recovery-relevant counters summed over every host endpoint."""
    totals = [ep.total_stats() for ep in world.endpoints]
    tcp = rpi == "tcp"
    return {
        "rto_events": sum(t.rto_events for t in totals),
        "fast_rtx": sum(t.fast_retransmits for t in totals),
        "failovers": 0 if tcp else sum(t.failovers for t in totals),
        "integrity_drops": sum(
            ep.checksum_drops if tcp else ep.crc32c_drops for ep in world.endpoints
        ),
    }


def _recovery_s(watch) -> float:
    """Seconds from the fault until delivery resumed (inf: it never did)."""
    return float("inf") if watch.recovery_ns is None else watch.recovery_ns / 1e9


FAILOVER_ROW = "pingpong w/ primary-path failure"


def multihoming_failover(seed: int = 1) -> List[ExperimentRow]:
    """Blackhole the primary path mid-run; SCTP fails over and finishes.

    The outage is a permanent :func:`repro.faults.primary_blackhole`
    scenario (every host's path-0 egress dies 3 ms in); recovery time is
    what a :class:`repro.faults.DeliveryWatch` on the host tap bus saw.
    """
    from ..faults import primary_blackhole
    from ..simkernel import MILLISECOND

    size = 30 * 1024
    iters = scaled(30, 200)
    fault_start = 3 * MILLISECOND
    scenario = primary_blackhole(start_ns=fault_start, duration_ns=0)
    world, watch = _chaos_world("sctp", seed, scenario, fault_start)
    result = world.run(make_pingpong(size, iters), limit_ns=LIMIT_NS)

    counters = _transport_counters(world, "sctp")
    return [
        ExperimentRow(
            label=FAILOVER_ROW,
            measured={
                "completed": result.results[0] is not None,
                "elapsed_s": result.duration_ns / 1e9,
                "recovery_s": _recovery_s(watch),
                "failover_retransmits": counters["failovers"],
                "path_failures": sum(
                    ep.total_stats().path_failures for ep in world.endpoints
                ),
            },
            paper={"shape": "transparent failover (§3.5.1)"},
        )
    ]


# KAME's minimum RTO is 1s, so the first T3 expiry — the earliest moment
# SCTP can notice the dead path and retransmit elsewhere — lands ~1s
# after the blackhole opens.  Recovery much beyond 2x that means the
# failover machinery is not actually redirecting traffic.
RECOVERY_BOUND_S = 2.0


# §3.5.1 (not a paper figure): the run survives a severed primary path, its
# retransmissions redirected to the alternate (§4.1.1 last bullet).
failover_claim = Claim([
    Check((FAILOVER_ROW, "completed"), "==", True, "the MPI program must survive path failure"),
    Check((FAILOVER_ROW, "failover_retransmits"), ">", 0,
          "retransmissions must move to the alternate path"),
    Check((FAILOVER_ROW, "path_failures"), ">", 0,
          "path supervision must declare the severed path INACTIVE"),
    *_band((FAILOVER_ROW, "recovery_s"), 0, RECOVERY_BOUND_S,
           f"failover should recover within {RECOVERY_BOUND_S}s (~2x the 1s min RTO)"),
])


# ---------------------------------------------------------------------------
# Chaos matrix — repro.faults scenario library x both stacks
# ---------------------------------------------------------------------------
def _chaos_cell(rpi: str, seed: int = 1) -> List[ExperimentRow]:
    """One chaos-matrix cell: the fault-free baseline plus every
    canonical fault scenario for one stack.

    Per scenario: run time vs the fault-free baseline of the same seed,
    the longest data-delivery stall the application felt, time-to-recovery
    after the fault hit, and the transport counters that explain *how*
    the stack coped (RTO backoff and SACK fast retransmit, SCTP path
    failover, integrity drops).  The baseline run lives *inside* the
    cell (its elapsed time normalises every scenario row), so cells are
    fully independent — the property the parallel fan-out relies on.
    """
    from ..faults import primary_blackhole
    from ..simkernel import MILLISECOND, SECOND

    size = 30 * 1024
    iters = scaled(20, 100)
    hole_start = 5 * MILLISECOND
    cells = [
        ("bernoulli 2%", _named_scenario("bernoulli2"), 0),
        ("burst", _named_scenario("burst"), 0),
        ("blackhole 2s", primary_blackhole(hole_start, 2 * SECOND), hole_start),
        ("corrupt 2%", _named_scenario("corrupt2"), 0),
        ("dup+reorder", _named_scenario("dup_reorder"), 0),
    ]

    rows = []
    baseline, _ = _chaos_world(rpi, seed, None, 0)
    base = baseline.run(make_pingpong(size, iters), limit_ns=LIMIT_NS)
    base_s = max(1e-9, base.duration_ns / 1e9)
    for label, scenario, fault_start in cells:
        world, watch = _chaos_world(rpi, seed, scenario, fault_start)
        result = world.run(make_pingpong(size, iters), limit_ns=LIMIT_NS)
        counters = _transport_counters(world, rpi)
        elapsed_s = result.duration_ns / 1e9
        rows.append(
            ExperimentRow(
                label=f"{rpi} {label}",
                measured={
                    "elapsed_s": elapsed_s,
                    "slowdown": elapsed_s / base_s,
                    "stall_s": watch.max_gap_ns / 1e9,
                    "recovery_s": _recovery_s(watch),
                    **counters,
                },
                note=f"baseline {base_s:.3g}s",
            )
        )
    return rows


# Chaos matrix (not a paper figure): SCTP rides a primary-path blackhole out
# via failover while TCP sits through RTO backoff; both stacks drop
# corruption; duplication and reordering cost no timeout.
chaos_claim = Claim([
    Check(len, "==", 10, "every cell must finish inside the virtual-time limit (rows)"),
    Check(("sctp blackhole 2s", "failovers"), ">", 0, "SCTP must migrate to the alternate path"),
    Check(("tcp blackhole 2s", "rto_events"), ">", 0, "TCP can only wait out its RTO backoff"),
    Check(("sctp blackhole 2s", "recovery_s"), "<", ("tcp blackhole 2s", "recovery_s", 1),
          "SCTP failover must restore delivery before TCP's backed-off retransmit "
          "gets through the re-opened path"),
    Check(("sctp blackhole 2s", "elapsed_s"), "<", ("tcp blackhole 2s", "elapsed_s", 1),
          "SCTP must finish the blackhole first"),
    Check(("sctp corrupt 2%", "integrity_drops"), ">", 0, "CRC32c must drop corruption"),
    Check(("tcp corrupt 2%", "integrity_drops"), ">", 0, "TCP checksum must drop corruption"),
    Check(("sctp dup+reorder", "rto_events"), "==", 0, "SCTP dup+reorder must not time out"),
    Check(("tcp dup+reorder", "rto_events"), "==", 0, "TCP dup+reorder must not time out"),
])


# ---------------------------------------------------------------------------
# Figs. 4/5 — the two-tag Waitany microscenario (design §3.2.3)
# ---------------------------------------------------------------------------
def _fig4_cell(rpi: str, seed: int = 2) -> List[ExperimentRow]:
    """One stack's Waitany under 2% loss: P1 sends Msg-A then Msg-B (8 KiB)
    on different tags and P0's Waitany completes on whichever is available
    first."""
    from ..workloads.hol_micro import run_hol_micro

    iters = scaled(50, 200)
    result = run_hol_micro(iterations=iters, limit_ns=LIMIT_NS, rpi=rpi, loss_rate=0.02, seed=seed)
    measured = {
        "B_first": result.b_first_fraction,
        "first_wait_ms": result.mean_first_completion_ns / 1e6,
    }
    paper = {"shape": "B never first on TCP; overtakes on SCTP"}
    note = f"{iters} iters seed={seed}"
    return [ExperimentRow(f"waitany {rpi}", measured, paper, note)]


# Figs. 4/5: over TCP Waitany only ever completes on Msg-A (byte stream
# order); over SCTP Msg-B overtakes a delayed Msg-A, and the mean wait for
# *some* message collapses.
fig4_claim = Claim([
    Check(("waitany tcp", "B_first"), "==", 0.0, "TCP byte stream can never deliver B first"),
    Check(("waitany sctp", "B_first"), ">", 0.0, "SCTP streams must let B overtake"),
    Check(("waitany sctp", "first_wait_ms"), "<", ("waitany tcp", "first_wait_ms", 0.5),
          "SCTP must slash the wait for the first available message"),
])


# ---------------------------------------------------------------------------
# §3.6 — the CRC32c checksum cost
# ---------------------------------------------------------------------------
def _crc32c_cell() -> List[ExperimentRow]:
    """SCTP 128 KiB ping-pong with CRC32c off (the paper's setup: TCP
    offloads its checksum to the NIC, CRC32c burned CPU) and on (the cost
    model's documented per-KiB charge), on seed 0."""
    from ..network import CostModel

    iters = scaled(12, 50)
    off, on = (
        run_pingpong(
            128 * 1024, iterations=iters, limit_ns=LIMIT_NS, rpi="sctp", cost_model=cost_model
        ).throughput_bytes_per_s / 1e6
        for cost_model in (CostModel(), CostModel().with_crc32c())
    )
    measured = {"off_MBps": off, "on_MBps": on, "on/off": on / off}
    return [ExperimentRow("pingpong sctp 128K", measured, note=f"{iters} iters")]


# §3.6: the checksum costs throughput, but not absurdly much.
crc32c_claim = Claim([
    Check(("pingpong sctp 128K", "on_MBps"), "<", ("pingpong sctp 128K", "off_MBps", 1),
          "the checksum must cost throughput"),
    Check(("pingpong sctp 128K", "on_MBps"), ">", ("pingpong sctp 128K", "off_MBps", 0.5),
          "but not absurdly much"),
])


# ---------------------------------------------------------------------------
# §3.3 — select() cost growth with process count
# ---------------------------------------------------------------------------
async def _collective_storm(comm) -> None:
    """Collectives keep every one of a rank's sockets hot at once."""
    for _ in range(8):
        await comm.allreduce(comm.rank)
        await comm.alltoall([comm.rank] * comm.size)
    await comm.barrier()


def _select_cell(n_procs: int, seed: int = 1) -> List[ExperimentRow]:
    """Both stacks through one collective storm.  The TCP RPI's
    socket-per-peer design calls ``select()`` over N-1 descriptors, whose
    cost grows linearly with the count [20]; the SCTP RPI's one
    one-to-many socket never calls it."""
    from ..core.world import World

    measured = {}
    for rpi in ("tcp", "sctp"):
        world = World(WorldConfig(n_procs=n_procs, rpi=rpi, seed=seed))
        measured[f"{rpi}_ms"] = world.run(_collective_storm, limit_ns=LIMIT_NS).duration_ns / 1e6
        if rpi == "tcp":
            measured["tcp_selects"] = sum(p.rpi.selector.calls for p in world.processes)
    return [ExperimentRow(f"collective storm np={n_procs}", measured, note=f"seed={seed}")]


SELECT_NPROCS = (4, 8, scaled(12, 16))
# §3.3: the TCP RPI's select() volume grows with job size.
select_claim = Claim([
    Check((f"collective storm np={SELECT_NPROCS[-1]}", "tcp_selects"), ">",
          (f"collective storm np={SELECT_NPROCS[0]}", "tcp_selects", 1),
          "select() calls must grow with np"),
])


# ---------------------------------------------------------------------------
# Sweep-parameterised single-protocol cells (repro.sweep building blocks)
# ---------------------------------------------------------------------------
SCENARIO_NAMES = ("none", "bernoulli1", "bernoulli2", "burst", "corrupt2", "dup_reorder")


def _named_scenario(name: str):
    """Resolve a fault-scenario axis value to a :mod:`repro.faults` scenario."""
    if name == "none":
        return None
    from ..faults import bernoulli_loss, burst_loss, corruption, dup_and_reorder

    factories = {
        "bernoulli1": lambda: bernoulli_loss(0.01),
        "bernoulli2": lambda: bernoulli_loss(0.02),
        "burst": lambda: burst_loss(p_enter_bad=0.02, p_exit_bad=0.3, loss_bad=0.9),
        "corrupt2": lambda: corruption(0.02),
        "dup_reorder": dup_and_reorder,
    }
    try:
        return factories[name]()
    except KeyError:
        raise ValueError(
            f"unknown fault scenario {name!r} (choices: {', '.join(SCENARIO_NAMES)})"
        ) from None


def _interleave_flag(value: Any) -> str:
    """Coerce an interleaving axis value to its canonical "on"/"off"."""
    if isinstance(value, bool):
        return "on" if value else "off"
    text = str(value).lower()
    if text not in ("on", "off"):
        raise ValueError(f"interleaving must be on/off, got {value!r}")
    return text


def _sctp_options(interleaving: Any, scheduler: str) -> SCTPConfig:
    """The association options an interleaving/scheduler axis pair names."""
    return SCTPConfig(interleaving=_interleave_flag(interleaving) == "on", scheduler=scheduler)


def _int_axis(value: Any) -> int:
    """Coerce an integer axis value without silently changing it: ints,
    integral floats and digit strings pass; bools and fractions do not."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _variant_suffix(scenario: str, interleaving: Any, scheduler: str) -> str:
    """The label suffix naming a sweep cell's fault scenario, I-DATA and
    stream scheduler (empty for the defaults)."""
    suffix = "" if scenario == "none" else f" {scenario}"
    if _interleave_flag(interleaving) == "on":
        suffix += " idata"
    if scheduler != "fcfs":
        suffix += f" sched={scheduler}"
    return suffix


def _pingpong_cell(
    protocol: str,
    size: int,
    loss: float = 0.0,
    seed: int = 1,
    iterations: Optional[int] = None,
    scenario: str = "none",
    interleaving: str = "off",
    scheduler: str = "fcfs",
) -> List[ExperimentRow]:
    """One single-protocol ping-pong point (the sweepable fig8/table1 atom)."""
    iters = iterations or scaled(16, 50)
    result = run_pingpong(
        size,
        iterations=iters,
        limit_ns=LIMIT_NS,
        rpi=protocol,
        loss_rate=loss,
        seed=seed,
        scenario=_named_scenario(scenario),
        sctp_config=_sctp_options(interleaving, scheduler),
    )
    return [
        ExperimentRow(
            label=f"pingpong {protocol} {size}B loss={loss:g}"
            + _variant_suffix(scenario, interleaving, scheduler),
            measured={
                "MBps": result.throughput_bytes_per_s / 1e6,
                "rtt_ms": result.round_trip_s * 1e3,
            },
            note=f"{iters} iters seed={seed}",
        )
    ]


def _farm_sweep_cell(
    protocol: str,
    size_label: str,
    loss: float = 0.0,
    fanout: int = 1,
    seed: int = 1,
    num_streams: int = 10,
    num_tasks: Optional[int] = None,
    scenario: str = "none",
    interleaving: str = "off",
    scheduler: str = "fcfs",
) -> List[ExperimentRow]:
    """One single-protocol farm point (the sweepable fig10/11 atom)."""
    params = _farm_params(size_label, fanout)
    if num_tasks is not None:
        params = replace(params, num_tasks=num_tasks)
    result = run_farm(
        params,
        limit_ns=LIMIT_NS,
        n_procs=8,
        rpi=protocol,
        loss_rate=loss,
        seed=seed,
        num_streams=num_streams,
        scenario=_named_scenario(scenario),
        sctp_config=_sctp_options(interleaving, scheduler),
    )
    return [
        ExperimentRow(
            label=f"farm {protocol} {size_label} fanout={fanout} loss={loss:g}"
            + _variant_suffix(scenario, interleaving, scheduler),
            measured={
                "elapsed_s": result.elapsed_s,
                "tasks_done": result.tasks_done,
            },
            note=f"{params.num_tasks} tasks seed={seed}",
        )
    ]


def _interleave_cell(
    protocol: str,
    interleaving: str,
    scheduler: str,
    loss: float = 0.0,
    seed: int = 1,
    rounds: Optional[int] = None,
    bulk_kib: int = 128,
    small_bytes: int = 1024,
    bulks_per_round: int = 1,
) -> List[ExperimentRow]:
    """One mixed small/large traffic point (the RFC 8260 experiment atom).

    A latency-critical small message is sent behind concurrent bulk
    transfers on the same association but a different stream; the
    measured quantity is its GO-to-arrival latency.  ``interleaving=on``
    with a non-FCFS scheduler is the configuration under test; the same
    cell with ``off``/``fcfs`` (and the TCP run) are the baselines.
    """
    flag = _interleave_flag(interleaving)
    n_rounds = rounds or scaled(6, 24)
    result = run_interleave_mix(
        bulk_size=bulk_kib * 1024,
        small_size=small_bytes,
        rounds=n_rounds,
        bulks_per_round=bulks_per_round,
        limit_ns=LIMIT_NS,
        rpi=protocol,
        loss_rate=loss,
        seed=seed,
        sctp_config=_sctp_options(flag, scheduler),
    )
    label = f"mix {protocol} idata={flag} sched={scheduler} loss={loss:g}"
    return [
        ExperimentRow(
            label=label,
            measured={
                "small_us": result.small_latency_mean_ns / 1e3,
                "small_max_us": result.small_latency_max_ns / 1e3,
                "bulk_MBps": result.bulk_throughput_mbps,
            },
            note=(
                f"{n_rounds} rounds x{bulks_per_round} {bulk_kib}KiB bulk "
                f"seed={seed}"
            ),
        )
    ]


# RFC 8260: with I-DATA and the round-robin scheduler a small message no
# longer waits out the bulk message queued ahead of it on another stream,
# so its latency drops below the RFC 4960 (no interleaving, FCFS) baseline.
interleave_claim = Claim([
    Check(("mix sctp idata=on sched=rr loss=0", "small_us"), "<",
          ("mix sctp idata=off sched=fcfs loss=0", "small_us", 1),
          "interleaving + rr must cut small-message latency under bulk"),
])


# ---------------------------------------------------------------------------
# The experiment registry — the one way to address, run and fan out a cell
# ---------------------------------------------------------------------------
# Every experiment is a matrix of independent deterministic cells (the
# property the paper's Dummynet testbed had: each (seed, scenario) run is
# isolated).  An entry declares named axes (a default enumeration, an
# optional closed choice set) and a runner taking one keyword per axis;
# the runner's other keyword defaults are the overridable free parameters.
#
# A cell is always ``(experiment, params)``: ``resolve_sweep_params``
# validates the mapping (``repro.sweep`` digests are computed over the
# result) and ``run_sweep_cell`` runs it — off-enumeration points like
# ``loss=0.05`` or a fault scenario included.


@dataclass(frozen=True)
class Axis:
    """One named dimension of an experiment's cell matrix."""

    name: str
    values: Tuple[Any, ...]  # default enumeration (the figure's cells)
    coerce: Callable[[Any], Any]
    choices: Optional[Tuple[Any, ...]] = None  # legal set; None = open axis


@dataclass(frozen=True)
class ExperimentMatrix:
    """A registry entry: axes, a runner, and (for paper figures) a title
    and the claim ``python -m repro.bench`` checks the figure's rows against."""

    axes: Tuple[Axis, ...]
    run: Callable[..., List[ExperimentRow]]
    title: Optional[str] = None  # set = a figure ``python -m repro.bench`` runs
    claim: Optional[Callable[[List[ExperimentRow]], List[str]]] = None  # iff ``title`` is

    def __post_init__(self) -> None:
        if (self.title is None) != (self.claim is None):
            raise ValueError("a registry entry has a claim if and only if it has a title")

    @cached_property
    def free(self) -> Tuple[Tuple[str, Any], ...]:
        """Overridable ``(name, default)`` pairs: every non-axis keyword of
        the runner that has a default, in signature order."""
        axis_names = {axis.name for axis in self.axes}
        return tuple(
            (param.name, param.default)
            for param in inspect.signature(self.run).parameters.values()
            if param.name not in axis_names and param.default is not param.empty
        )


_SIZE_LABEL = Axis("size_label", ("short", "long"), str, choices=("short", "long"))
_FARM_LOSS = Axis("loss", (0.0, 0.01, 0.02), float)

MATRICES: Dict[str, ExperimentMatrix] = {
    "fig8": ExperimentMatrix(
        (Axis("size", tuple(FIG8_SIZES), _int_axis),),
        _fig8_cell,
        title="Fig. 8: ping-pong throughput (no loss)",
        claim=fig8_claim,
    ),
    "table1": ExperimentMatrix(
        (
            Axis("size", (30 * 1024, 300 * 1024), _int_axis),
            Axis("loss", (0.01, 0.02), float),
        ),
        _table1_cell,
        title="Table 1: ping-pong throughput under loss",
        claim=table1_claim,
    ),
    "fig9": ExperimentMatrix(
        (Axis("kernel", tuple(FIG9_ORDER), str, choices=tuple(FIG9_ORDER)),),
        _fig9_cell,
        title="Fig. 9: NPB class B Mop/s (8 procs)",
        claim=fig9_claim,
    ),
    "fig10": ExperimentMatrix(
        (_SIZE_LABEL, _FARM_LOSS),
        partial(_farm_cell, 1),
        title="Fig. 10: farm run times, fanout=1",
        claim=fig10_claim,
    ),
    "fig11": ExperimentMatrix(
        (_SIZE_LABEL, _FARM_LOSS),
        partial(_farm_cell, 10),
        title="Fig. 11: farm run times, fanout=10",
        claim=fig11_claim,
    ),
    "fig12": ExperimentMatrix(
        (_SIZE_LABEL, _FARM_LOSS),
        _fig12_cell,
        title="Fig. 12: 10 streams vs 1 stream (SCTP)",
        claim=fig12_claim,
    ),
    "failover": ExperimentMatrix(
        (),
        multihoming_failover,
        title="Multihoming: primary-path failure mid-run",
        claim=failover_claim,
    ),
    # SCTP only; the TCP baseline, wfq/prio and lossy cells: benchmarks/sweep_interleave.json
    "interleave": ExperimentMatrix(
        (
            Axis("protocol", ("sctp",), str, choices=("tcp", "sctp")),
            Axis("interleaving", ("off", "on"), _interleave_flag,
                 choices=("off", "on")),
            Axis("scheduler", ("fcfs", "rr"), str,
                 choices=("fcfs", "rr", "wfq", "prio")),
        ),
        _interleave_cell,
        title="RFC 8260: small-message latency under bulk",
        claim=interleave_claim,
    ),
    "chaos": ExperimentMatrix(
        (Axis("rpi", ("tcp", "sctp"), str, choices=("tcp", "sctp")),),
        _chaos_cell,
        title="Chaos matrix: fault scenarios x both stacks",
        claim=chaos_claim,
    ),
    "fig4": ExperimentMatrix(
        (Axis("rpi", ("tcp", "sctp"), str, choices=("tcp", "sctp")),),
        _fig4_cell,
        title="Figs. 4/5: two-tag Waitany under 2% loss",
        claim=fig4_claim,
    ),
    "crc32c": ExperimentMatrix(
        (),
        _crc32c_cell,
        title="§3.6: SCTP CRC32c checksum cost",
        claim=crc32c_claim,
    ),
    "select": ExperimentMatrix(
        (Axis("n_procs", SELECT_NPROCS, _int_axis),),
        _select_cell,
        title="§3.3: select() volume vs job size (collective storm)",
        claim=select_claim,
    ),
    "pingpong": ExperimentMatrix(
        (
            Axis("protocol", ("tcp", "sctp"), str, choices=("tcp", "sctp")),
            Axis("size", (1024, 30 * 1024), _int_axis),
            Axis("loss", (0.0,), float),
        ),
        _pingpong_cell,
    ),
    "farm": ExperimentMatrix(
        (
            Axis("protocol", ("tcp", "sctp"), str, choices=("tcp", "sctp")),
            Axis("size_label", ("short",), str, choices=("short", "long")),
            Axis("loss", (0.0, 0.01), float),
        ),
        _farm_sweep_cell,
    ),
}


def _matrix(name: str) -> ExperimentMatrix:
    try:
        return MATRICES[name]
    except KeyError:
        raise KeyError(f"unknown experiment: {name!r}") from None


def default_cells(name: str) -> List[Dict[str, Any]]:
    """The figure: one experiment's default axis product as parameter
    dicts, in enumeration order (one empty dict for an entry without axes)."""
    axes = _matrix(name).axes
    return [
        dict(zip((axis.name for axis in axes), combo))
        for combo in itertools.product(*(axis.values for axis in axes))
    ]


def _fmt_value(value: Any) -> str:
    if isinstance(value, float):
        return format(value, "g")
    if isinstance(value, (list, tuple)):
        return "(" + "+".join(_fmt_value(v) for v in value) + ")"
    return str(value)


def cell_id(experiment: str, params: Mapping[str, Any]) -> str:
    """Canonical cell id: axes in registry order, then sorted extras."""
    axis_order = [axis.name for axis in _matrix(experiment).axes]
    ordered = [name for name in axis_order if name in params]
    ordered += sorted(name for name in params if name not in axis_order)
    inner = ",".join(f"{name}={_fmt_value(params[name])}" for name in ordered)
    return f"{experiment}[{inner}]"


def resolve_sweep_params(name: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate and coerce one cell's parameters.

    Returns the *resolved* mapping — every axis coerced and checked
    against its choice set, every free parameter filled with its default
    when absent (JSON lists become tuples) — in axis order then free
    order, so two equivalent specs resolve to the same digest input.
    Raises ``KeyError`` for an unknown experiment and ``ValueError`` for
    unknown/illegal parameters.
    """
    matrix = _matrix(name)
    axes = {axis.name: axis for axis in matrix.axes}
    free = dict(matrix.free)
    unknown = sorted(k for k in params if k not in axes and k not in free)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) for experiment {name!r}: {', '.join(unknown)} "
            f"(axes: {', '.join(axes)}; free: {', '.join(free)})"
        )
    resolved: Dict[str, Any] = {}
    for axis in matrix.axes:
        if axis.name not in params:
            raise ValueError(f"experiment {name!r} cell is missing axis {axis.name!r}")
        try:
            value = axis.coerce(params[axis.name])
        except (TypeError, ValueError) as err:
            raise ValueError(
                f"bad value for {name!r} axis {axis.name!r}: {params[axis.name]!r} ({err})"
            ) from None
        if axis.choices is not None and value not in axis.choices:
            raise ValueError(
                f"illegal value for {name!r} axis {axis.name!r}: {value!r} "
                f"(choices: {', '.join(str(c) for c in axis.choices)})"
            )
        resolved[axis.name] = value
    for key, default in matrix.free:
        value = params.get(key, default)
        if isinstance(value, list):
            value = tuple(value)
        resolved[key] = value
    return resolved


def run_sweep_cell(name: str, params: Mapping[str, Any]) -> List[ExperimentRow]:
    """Run one cell from its (validated here) parameter mapping."""
    resolved = resolve_sweep_params(name, params)
    return _matrix(name).run(**resolved)


class CellError(RuntimeError):
    """A cell failed; the message carries its ``cell_id``."""


def run_cell_task(item: Tuple[str, Mapping[str, Any], bool]) -> Tuple[List[dict], List[dict]]:
    """Worker body of every fan-out: one ``(experiment, params,
    with_metrics)`` cell to plain ``(rows, metrics runs)`` data.

    Module-level and fed plain data, so it crosses a process boundary
    under any start method; the outputs carry no wall-clock values.
    """
    name, params, with_metrics = item
    try:
        with MetricsCollector() if with_metrics else nullcontext() as collector:
            rows = run_sweep_cell(name, params)
    except Exception as exc:
        # name the failing cell instead of a bare multiprocessing stack
        raise CellError(f"cell {cell_id(name, params)} failed: {exc!r}") from exc
    return [row.to_jsonable() for row in rows], collector.runs if with_metrics else []
