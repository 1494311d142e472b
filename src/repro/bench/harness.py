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
import os
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..core.world import WorldConfig
from ..metrics import MetricsCollector
from ..metrics.registry import _coerce
from ..workloads.farm import FarmParams, run_farm
from ..workloads.interleave_mix import run_interleave_mix
from ..workloads.mpbench import make_pingpong, run_pingpong

LIMIT_NS = 20_000_000_000_000  # hard per-run virtual-time ceiling (watchdog)


def full_scale() -> bool:
    """Whether to run paper-scale parameters (REPRO_FULL=1)."""
    return os.environ.get("REPRO_FULL", "") == "1"


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
# reproduce: rows in, one message per broken check out.  Checks are data,
# not ``assert``s, so ``python -O`` cannot strip them.
Claim = Callable[[List[ExperimentRow]], List[str]]


def _failed(*checks: Tuple[bool, str]) -> List[str]:
    """The messages of the ``(holds, message)`` checks that do not hold."""
    return [message for holds, message in checks if not holds]


# ---------------------------------------------------------------------------
# Fig. 8 — ping-pong throughput, no loss, normalized SCTP/TCP
# ---------------------------------------------------------------------------
FIG8_SIZES = [1, 1024, 4096, 8192, 16384, 22528, 32768, 65536, 98302, 131069]


def _fig8_cell(
    size: int, seed: int = 1, iterations: Optional[int] = None
) -> List[ExperimentRow]:
    """One fig8 matrix cell: both protocols at one message size."""
    iters = iterations or scaled(16, 50)
    tcp = run_pingpong("tcp", size, iterations=iters, seed=seed, limit_ns=LIMIT_NS)
    sctp = run_pingpong("sctp", size, iterations=iters, seed=seed, limit_ns=LIMIT_NS)
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


def fig8_claim(rows: List[ExperimentRow]) -> List[str]:
    """Fig. 8, paper shape: TCP wins for small messages, SCTP wins for large
    ones, with the crossover near 22 KiB."""
    ratios = {int(r.label.split()[1][:-1]): r.measured["sctp/tcp"] for r in rows}
    return _failed(
        (ratios[1] < 1.0, "TCP must win tiny messages"),
        (ratios[4096] < 1.05, "TCP competitive through small sizes"),
        (ratios[98302] > 1.0, "SCTP must win large messages"),
        (ratios[131069] > 1.05, "SCTP clearly ahead at 128K"),
    )


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
            "tcp", size, iterations=iters, loss_rate=loss, seed=seed,
            limit_ns=LIMIT_NS,
        ).throughput_bytes_per_s
        sctp_bps += run_pingpong(
            "sctp", size, iterations=iters, loss_rate=loss, seed=seed,
            limit_ns=LIMIT_NS,
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


def table1_claim(rows: List[ExperimentRow]) -> List[str]:
    """Table 1, paper shape: SCTP beats TCP at every loss/size cell (28x/43x
    at 30 KiB, ~3.2x at 300 KiB).  The paper's far larger factors are
    discussed (and not blindly asserted) in EXPERIMENTS.md."""
    by_cell = {r.label: r.measured["sctp/tcp"] for r in rows}
    mean_ratio = sum(by_cell.values()) / len(by_cell)
    return _failed(
        # at 2% loss SCTP must win both message sizes (paper's direction)
        (by_cell["pingpong 30K loss=2%"] > 1.0, "SCTP must win 30K at 2% loss"),
        (by_cell["pingpong 300K loss=2%"] > 1.0, "SCTP must win 300K at 2% loss"),
        # overall, SCTP comes out ahead under loss
        (mean_ratio > 1.1, f"SCTP should win on average under loss: {by_cell}"),
    )


# ---------------------------------------------------------------------------
# Fig. 9 — NAS parallel benchmarks, class B, Mop/s
# ---------------------------------------------------------------------------
FIG9_ORDER = ["LU", "SP", "EP", "CG", "BT", "MG", "IS"]


def _fig9_cell(kernel: str, cls: str = "B", seed: int = 1) -> List[ExperimentRow]:
    """One fig9 cell: both protocols on one NPB kernel."""
    # the NPB kernels need numpy; no other experiment pays for importing it
    from ..workloads.npb import run_npb

    tcp = run_npb(kernel, cls, rpi="tcp", seed=seed, limit_ns=LIMIT_NS)
    sctp = run_npb(kernel, cls, rpi="sctp", seed=seed, limit_ns=LIMIT_NS)
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


def fig9_claim(rows: List[ExperimentRow]) -> List[str]:
    """Fig. 9, paper shape: SCTP performance comparable to TCP on the NPB
    suite at class B; TCP keeps an edge on the short-message-dominated MG
    and BT."""
    by_name = {r.label.split()[1].split(".")[0]: r.measured for r in rows}
    failures = []
    for name, measured in by_name.items():
        ratio = measured["sctp/tcp"]
        if not measured["verified"]:
            failures.append(f"{name} failed numerical verification")
        if not 0.5 < ratio < 2.0:
            failures.append(f"{name}: protocols should be comparable, got {ratio:.2f}")
    # the paper's specific observation: TCP ahead on MG and BT
    return failures + _failed(
        (by_name["MG"]["sctp/tcp"] < 1.1, "TCP must stay ahead on MG"),
        (by_name["BT"]["sctp/tcp"] < 1.1, "TCP must stay ahead on BT"),
    )


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


def _farm_cell(
    fanout: int, size_label: str, loss: float, seed: int = 1
) -> List[ExperimentRow]:
    """One farm cell: both protocols at one (size, loss) for a fanout."""
    paper = FIG10_PAPER if fanout == 1 else FIG11_PAPER
    params = _farm_params(size_label, fanout)
    sctp = run_farm("sctp", params, loss_rate=loss, seed=seed, limit_ns=LIMIT_NS)
    tcp = run_farm("tcp", params, loss_rate=loss, seed=seed, limit_ns=LIMIT_NS)
    p_sctp, p_tcp = paper[(size_label, loss)]
    return [
        ExperimentRow(
            label=f"farm {size_label} fanout={fanout} loss={loss:.0%}",
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


def _farm_claim(short_min: float, long_min: float) -> Claim:
    """Figs. 10/11, paper shape: comparable at no loss; under 1-2% loss TCP's
    run time exceeds SCTP's by more than ``short_min``x (short messages)
    and ``long_min``x (long)."""

    def claim(rows: List[ExperimentRow]) -> List[str]:
        failures = []
        for row in rows:
            ratio = row.measured["tcp/sctp"]
            if row.label.endswith("loss=0%"):
                if not 0.4 < ratio < 2.5:
                    failures.append(f"{row.label}: no-loss runs comparable")
            elif not ratio > (short_min if "short" in row.label else long_min):
                failures.append(f"{row.label}: TCP must degrade under loss, got {ratio:.2f}x")
        return failures

    return claim


# Fig. 10: under loss TCP's run time blows up by ~10x (short) and ~2.6x
# (long) relative to SCTP's; our per-seed spread for long messages at
# demo scale is wide, so that direction is guarded with margin.
fig10_claim = _farm_claim(short_min=2.0, long_min=1.3)
# Fig. 11: ten tasks per request make the loss gap worse for TCP (more
# back-to-back data behind any lost segment), especially for long
# messages; SCTP degrades only mildly versus Fig. 10.
fig11_claim = _farm_claim(short_min=2.0, long_min=2.0)


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
            "sctp", params, loss_rate=loss, seed=seed, num_streams=10,
            limit_ns=LIMIT_NS,
        ).elapsed_s
        single_s += run_farm(
            "sctp", params, loss_rate=loss, seed=seed, num_streams=1,
            limit_ns=LIMIT_NS,
        ).elapsed_s
    multi_s /= len(use_seeds)
    single_s /= len(use_seeds)
    p10, p1 = FIG12_PAPER[(size_label, loss)]
    return [
        ExperimentRow(
            label=f"farm {size_label} fanout=10 loss={loss:.0%}",
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


def fig12_claim(rows: List[ExperimentRow]) -> List[str]:
    """Fig. 12, paper shape: under loss the single-stream variant
    re-introduces HOL blocking (~25% slower for long messages, ~35% at 2%
    loss for short); with no loss the two are equivalent."""
    failures = []
    for row in rows:
        loss = row.label.split("loss=")[1]
        ratio = row.measured["1s/10s"]
        if loss == "0%" and not 0.85 < ratio < 1.2:
            failures.append(f"{row.label}: equal without loss ({ratio:.2f})")
    # under loss the single-stream penalty must show up somewhere material
    lossy = [r.measured["1s/10s"] for r in rows if "0%" not in r.label.split("loss=")[1]]
    return failures + _failed((max(lossy) > 1.10, f"multistreaming must help under loss: {lossy}"))


# ---------------------------------------------------------------------------
# §3.5.1 extension — multihoming failover keeps an MPI run alive
# ---------------------------------------------------------------------------
def _chaos_world(rpi: str, seed: int, scenario, fault_start_ns: int):
    """A 2-proc, 2-path world with a DeliveryWatch on the host tap bus."""
    from ..core.world import World
    from ..faults import DeliveryWatch
    from ..simkernel import SECOND
    from ..transport.sctp import SCTPConfig

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
    if rpi == "tcp":
        totals = [ep.total_stats() for ep in world.tcp_endpoints]
        return {
            "rto_events": sum(t.rto_events for t in totals),
            "fast_rtx": sum(t.fast_retransmits for t in totals),
            "failovers": 0,
            "integrity_drops": sum(ep.checksum_drops for ep in world.tcp_endpoints),
        }
    totals = [ep.total_stats() for ep in world.sctp_endpoints]
    return {
        "rto_events": sum(t.rto_events for t in totals),
        "fast_rtx": sum(t.fast_retransmits for t in totals),
        "failovers": sum(t.failovers for t in totals),
        "integrity_drops": sum(ep.crc32c_drops for ep in world.sctp_endpoints),
    }


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
    recovery_s = (
        watch.recovery_ns / 1e9 if watch.recovery_ns is not None else float("inf")
    )
    return [
        ExperimentRow(
            label="pingpong w/ primary-path failure",
            measured={
                "completed": result.results[0] is not None,
                "elapsed_s": result.duration_ns / 1e9,
                "recovery_s": recovery_s,
                "failover_retransmits": counters["failovers"],
                "path_failures": sum(
                    ep.total_stats().path_failures for ep in world.sctp_endpoints
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


def failover_claim(rows: List[ExperimentRow]) -> List[str]:
    """§3.5.1 (not a paper figure): a ``repro.faults`` blackhole severs the
    primary path mid-run and the application must finish over the
    alternate, with retransmissions redirected (§4.1.1 last bullet)."""
    m = rows[0].measured
    return _failed(
        (m["completed"], "the MPI program must survive path failure"),
        (m["failover_retransmits"] > 0, "retransmissions must move to the alternate path"),
        (m["path_failures"] > 0, "path supervision must declare the severed path INACTIVE"),
        (
            0 < m["recovery_s"] < RECOVERY_BOUND_S,
            f"delivery resumed {m['recovery_s']}s after the blackhole; failover "
            f"should recover within {RECOVERY_BOUND_S}s (~2x the 1s min RTO)",
        ),
    )


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
        recovery_s = (
            watch.recovery_ns / 1e9
            if watch.recovery_ns is not None
            else float("inf")
        )
        rows.append(
            ExperimentRow(
                label=f"{rpi} {label}",
                measured={
                    "elapsed_s": elapsed_s,
                    "slowdown": elapsed_s / base_s,
                    "stall_s": watch.max_gap_ns / 1e9,
                    "recovery_s": recovery_s,
                    **counters,
                },
                note=f"baseline {base_s:.3g}s",
            )
        )
    return rows


def chaos_claim(rows: List[ExperimentRow]) -> List[str]:
    """Chaos matrix (not a paper figure), per-mechanism claims: SCTP rides a
    primary-path blackhole out via failover while TCP must sit through RTO
    backoff, and corruption is rejected by integrity checks on both stacks."""
    # every cell completed inside the virtual-time watchdog
    if len(rows) != 10:
        return [f"expected 10 rows, got {len(rows)}"]
    cell = {row.label: row.measured for row in rows}
    tcp_hole, sctp_hole = cell["tcp blackhole 2s"], cell["sctp blackhole 2s"]
    return _failed(
        # blackhole: SCTP's failover beats TCP's RTO backoff on both recovery
        # time (first data after the hole opened) and total run time
        (sctp_hole["failovers"] > 0, "SCTP must migrate to the alternate path"),
        (tcp_hole["rto_events"] > 0, "TCP can only wait out its RTO backoff"),
        (
            sctp_hole["recovery_s"] < tcp_hole["recovery_s"],
            "SCTP failover must restore delivery before TCP's backed-off "
            "retransmit gets through the re-opened path",
        ),
        (sctp_hole["elapsed_s"] < tcp_hole["elapsed_s"], "SCTP must finish the blackhole first"),
        # corruption: dropped by CRC32c / checksum, never delivered
        (cell["sctp corrupt 2%"]["integrity_drops"] > 0, "CRC32c must drop corruption"),
        (cell["tcp corrupt 2%"]["integrity_drops"] > 0, "TCP checksum must drop corruption"),
        # duplication/reordering is absorbed without a single timeout
        (cell["sctp dup+reorder"]["rto_events"] == 0, "SCTP dup+reorder must not time out"),
        (cell["tcp dup+reorder"]["rto_events"] == 0, "TCP dup+reorder must not time out"),
    )


# ---------------------------------------------------------------------------
# Figs. 4/5 — the two-tag Waitany microscenario (design §3.2.3)
# ---------------------------------------------------------------------------
def _fig4_cell(rpi: str, seed: int = 2) -> List[ExperimentRow]:
    """One stack's Waitany under 2% loss: P1 sends Msg-A then Msg-B (8 KiB)
    on different tags and P0's Waitany completes on whichever is available
    first."""
    from ..workloads.hol_micro import run_hol_micro

    iters = scaled(50, 200)
    result = run_hol_micro(rpi, iterations=iters, loss_rate=0.02, seed=seed, limit_ns=LIMIT_NS)
    measured = {
        "B_first": result.b_first_fraction,
        "first_wait_ms": result.mean_first_completion_ns / 1e6,
    }
    paper = {"shape": "B never first on TCP; overtakes on SCTP"}
    note = f"{iters} iters seed={seed}"
    return [ExperimentRow(f"waitany {rpi}", measured, paper, note)]


def fig4_claim(rows: List[ExperimentRow]) -> List[str]:
    """Figs. 4/5: over TCP Waitany can only ever complete on Msg-A (byte
    stream order); over SCTP Msg-B overtakes when loss delays Msg-A, and
    the mean wait until *some* message is available collapses."""
    tcp, sctp = (row.measured for row in rows)
    return _failed(
        (tcp["B_first"] == 0.0, "TCP byte stream can never deliver B first"),
        (sctp["B_first"] > 0.0, "SCTP streams must let B overtake"),
        (
            sctp["first_wait_ms"] < tcp["first_wait_ms"] / 2,
            "SCTP must slash the wait for the first available message",
        ),
    )


# ---------------------------------------------------------------------------
# §3.6 — the CRC32c checksum cost
# ---------------------------------------------------------------------------
def _crc32c_cell(seed: int = 1) -> List[ExperimentRow]:
    """SCTP 128 KiB ping-pong with CRC32c off (the paper's setup: TCP
    offloads its checksum to the NIC, CRC32c burned CPU) and on (the cost
    model's documented per-KiB charge)."""
    from ..network import CostModel

    iters = scaled(12, 50)
    off, on = (
        run_pingpong(
            "sctp", 128 * 1024, iterations=iters, seed=seed, limit_ns=LIMIT_NS,
            config=WorldConfig(n_procs=2, rpi="sctp", cost_model=cost_model),
        ).throughput_bytes_per_s / 1e6
        for cost_model in (CostModel(), CostModel().with_crc32c())
    )
    measured = {"off_MBps": off, "on_MBps": on, "on/off": on / off}
    return [ExperimentRow("pingpong sctp 128K", measured, note=f"{iters} iters")]


def crc32c_claim(rows: List[ExperimentRow]) -> List[str]:
    """§3.6: the checksum costs throughput, but not absurdly much."""
    on, off = rows[0].measured["on_MBps"], rows[0].measured["off_MBps"]
    return _failed(
        (on < off, "the checksum must cost throughput"),
        (on > 0.5 * off, "but not absurdly much"),
    )


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


def select_claim(rows: List[ExperimentRow]) -> List[str]:
    """§3.3: the TCP RPI's select() volume grows with job size (rows in
    ascending np order)."""
    selects = [row.measured["tcp_selects"] for row in rows]
    return _failed((selects[-1] > selects[0], f"select() calls must grow with np: {selects}"))


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
    config = WorldConfig(
        n_procs=2,
        rpi=protocol,
        loss_rate=loss,
        seed=seed,
        scenario=_named_scenario(scenario),
        interleaving=_interleave_flag(interleaving) == "on",
        scheduler=scheduler,
    )
    result = run_pingpong(
        protocol, size, iterations=iters, config=config, limit_ns=LIMIT_NS
    )
    label = f"pingpong {protocol} {size}B loss={loss:g}"
    if scenario != "none":
        label += f" {scenario}"
    if _interleave_flag(interleaving) == "on":
        label += " idata"
    if scheduler != "fcfs":
        label += f" sched={scheduler}"
    return [
        ExperimentRow(
            label=label,
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
    config = WorldConfig(
        n_procs=8,
        rpi=protocol,
        loss_rate=loss,
        seed=seed,
        num_streams=num_streams,
        scenario=_named_scenario(scenario),
        interleaving=_interleave_flag(interleaving) == "on",
        scheduler=scheduler,
    )
    result = run_farm(protocol, params, config=config, limit_ns=LIMIT_NS)
    label = f"farm {protocol} {size_label} fanout={fanout} loss={loss:g}"
    if scenario != "none":
        label += f" {scenario}"
    if _interleave_flag(interleaving) == "on":
        label += " idata"
    if scheduler != "fcfs":
        label += f" sched={scheduler}"
    return [
        ExperimentRow(
            label=label,
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
        protocol,
        bulk_size=bulk_kib * 1024,
        small_size=small_bytes,
        rounds=n_rounds,
        bulks_per_round=bulks_per_round,
        interleaving=flag == "on",
        scheduler=scheduler,
        loss_rate=loss,
        seed=seed,
        limit_ns=LIMIT_NS,
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


def interleave_claim(rows: List[ExperimentRow]) -> List[str]:
    """RFC 8260 shape: with I-DATA interleaving and the round-robin scheduler
    a small message no longer waits out the bulk message queued ahead of
    it on another stream, so its latency drops below the RFC 4960 baseline
    (no interleaving, first-come first-served)."""
    by_label = {row.label: row.measured for row in rows}
    return _failed((
        by_label["mix sctp idata=on sched=rr loss=0"]["small_us"]
        < by_label["mix sctp idata=off sched=fcfs loss=0"]["small_us"],
        "interleaving + rr must cut small-message latency under bulk",
    ))


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
    claim: Optional[Claim] = None  # set if and only if ``title`` is

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
        (Axis("size", tuple(FIG8_SIZES), int),),
        _fig8_cell,
        title="Fig. 8: ping-pong throughput (no loss)",
        claim=fig8_claim,
    ),
    "table1": ExperimentMatrix(
        (
            Axis("size", (30 * 1024, 300 * 1024), int),
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
        (Axis("n_procs", (4, 8, scaled(12, 16)), int),),
        _select_cell,
        title="§3.3: select() volume vs job size (collective storm)",
        claim=select_claim,
    ),
    "pingpong": ExperimentMatrix(
        (
            Axis("protocol", ("tcp", "sctp"), str, choices=("tcp", "sctp")),
            Axis("size", (1024, 30 * 1024), int),
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
