"""The ledger's names: workloads, end-to-end metrics, per-layer metrics.

The one place a metric is declared.  ``BENCHMARK.json`` at the repo
root is this file rendered (``python benchmarks/ledger/catalog.py``
prints it; ``test_ledger.py`` fails when the two drift), ``run.py``
refuses to print a metric that is not declared here, and ``compare.py``
reads the bounds and the exact-count flags from here.  Imports nothing
from ``repro`` so the comparison tool works on result files alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

RUN_SECONDS = 12
LIMIT_NS = 20_000_000_000_000  # virtual-time ceiling of a leg: a hang becomes a failure

#: file's package under ``src/repro`` -> layer.  ``transport`` itself
#: (the RTO estimator both stacks share) is charged to the stack that
#: called it; ``analyze`` is static analysis and runs on no workload.
PACKAGE_LAYER: Dict[str, str] = {
    "simkernel": "simkernel",
    "network": "network",
    "transport/tcp": "transport.tcp",
    "transport/sctp": "transport.sctp",
    "transport": "transport.shared",
    "core": "core",
    "util": "util",
    "workloads": "workloads",
    "metrics": "metrics",
    "faults": "faults",
    "bench": "bench",
    "sweep": "sweep",
    "supervise": "supervise",
    "analyze": "other",
}

#: ``other`` = builtins, stdlib and the benchmark's own frames.
LAYERS: Tuple[str, ...] = (
    "simkernel",
    "network",
    "transport.tcp",
    "transport.sctp",
    "core",
    "util",
    "workloads",
    "metrics",
    "faults",
    "bench",
    "sweep",
    "supervise",
    "other",
)

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "pingpong_16k",
        "2 ranks, 16 KiB x 300, TCP leg then SCTP leg: the fig8 cell, most even layer split,"
        " the reference for packet-path work and the only one where transport.tcp is a fifth",
    ),
    (
        "pingpong_64b",
        "same world, 64 B x 1500: one packet per message, so per-message middleware cost"
        " dominates and fragmentation/SACK/bundling are bypassed",
    ),
    (
        "farm_lossy",
        "8 ranks, 200 tasks x 30 KiB, fanout 10, 10 streams, 1 % loss, both legs: wildcard"
        " matching, multistreaming and the only direct workload on loss recovery",
    ),
    (
        "halo_pods",
        "16 ranks, 2 pods, SCTP, 128 KiB x 10 ring shift above EAGER_LIMIT: rendezvous path,"
        " 16 associations, deep timer heap; transport.tcp is bypassed",
    ),
    (
        "sweep_interleave",
        "19-cell interleave spec, cold run_sweep through harness, digest, cache and merge:"
        " I-DATA with rr/wfq/prio schedulers and four lossy cells",
    ),
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    what: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    moves: str  # the end-to-end metric this should move ("none" = context only)
    exact: bool  # a count that repeats bit-for-bit between runs of one commit
    what: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "run_s", "s", "lower", 0.20,
        "calibrated seconds per repetition, measured phase only (World.run of each leg,"
        " or one cold run_sweep); median over repetitions",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "calibrated seconds from process start to ready-to-run (repro imported, worlds or"
        " spec built, app constructed); median over 11 fresh interpreters",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.15,
        "max ru_maxrss of the workload's process and its children",
    ),
)


def _layer_metrics() -> List[PerLayer]:
    rows: List[PerLayer] = []
    for layer in LAYERS:
        rows.append(PerLayer(
            f"{layer}.self_share", "frac", "lower", layer, "run_s", False,
            "share of the traced repetition's self time spent in this layer's files",
        ))
        rows.append(PerLayer(
            f"{layer}.calls", "count", "lower", layer, "run_s", True,
            "function calls into this layer during the traced repetition",
        ))
    return rows


PER_LAYER: Tuple[PerLayer, ...] = (
    *_layer_metrics(),
    PerLayer("simkernel.events", "count", "lower", "simkernel", "run_s", True,
             "kernel events fired in one repetition"),
    PerLayer("simkernel.ns_per_event", "ns", "lower", "simkernel", "run_s", False,
             "raw wall nanoseconds per kernel event, untraced repetition"),
    PerLayer("simkernel.events_per_s", "1/s", "higher", "simkernel", "run_s", False,
             "kernel events per raw wall second (falls when events are fused)"),
    PerLayer("simkernel.vsec_per_wall_s", "ratio", "higher", "simkernel", "run_s", False,
             "virtual seconds simulated per raw wall second"),
    PerLayer("simkernel.heap_depth_mean", "count", "lower", "simkernel", "run_s", True,
             "mean timer-heap depth sampled at every schedule"),
    PerLayer("simkernel.heap_compactions", "count", "lower", "simkernel", "run_s", True,
             "lazy-deletion heap rebuilds"),
    PerLayer("simkernel.bare_events_per_s", "1/s", "higher", "simkernel", "run_s", False,
             "isolated: post_after chain through a bare Kernel"),
    PerLayer("simkernel.timer_churn_per_s", "1/s", "higher", "simkernel", "run_s", False,
             "isolated: call_after + cancel waves through a bare Kernel"),
    PerLayer("simkernel.pdes_rounds", "count", "lower", "simkernel", "none", True,
             "barrier rounds of the 2-shard run (halo_pods only, else 0)"),
    PerLayer("simkernel.pdes_events_per_round", "count", "higher", "simkernel", "none", True,
             "events per barrier round of the 2-shard run (halo_pods only, else 0)"),
    PerLayer("simkernel.pdes_wall_ratio_1", "ratio", "lower", "simkernel", "none", False,
             "2-shard wall / serial-horizon wall, first run (halo_pods only, else 0)"),
    PerLayer("simkernel.pdes_wall_ratio_2", "ratio", "lower", "simkernel", "none", False,
             "2-shard wall / serial-horizon wall, second run (halo_pods only, else 0)"),
    PerLayer("network.packets", "count", "lower", "network", "run_s", True,
             "packets transmitted by all hosts"),
    PerLayer("network.events_per_packet", "count", "lower", "network", "run_s", True,
             "kernel events per transmitted packet (ROADMAP target <= 4)"),
    PerLayer("network.switch_forwarded", "count", "lower", "network", "run_s", True,
             "packets forwarded by all switches"),
    PerLayer("network.drops", "count", "lower", "network", "none", True,
             "packets dropped by links and Dummynet pipes"),
    PerLayer("network.link_pkts_per_s", "1/s", "higher", "network", "run_s", False,
             "isolated: packets per second through one saturated Link"),
    PerLayer("transport.tcp.leg_s", "s", "lower", "transport.tcp", "run_s", False,
             "calibrated seconds of the TCP leg (0 when the workload has none)"),
    PerLayer("transport.tcp.segments", "count", "lower", "transport.tcp", "none", True,
             "TCP segments sent"),
    PerLayer("transport.tcp.retransmit_frac", "frac", "lower", "transport.tcp", "none", True,
             "retransmitted / sent TCP segments"),
    PerLayer("transport.tcp.sacked_ranges", "count", "lower", "transport.tcp", "none", True,
             "SACK ranges received by TCP senders"),
    PerLayer("transport.sctp.leg_s", "s", "lower", "transport.sctp", "run_s", False,
             "calibrated seconds of the SCTP leg (0 when the workload has none)"),
    PerLayer("transport.sctp.packets", "count", "lower", "transport.sctp", "none", True,
             "SCTP packets sent"),
    PerLayer("transport.sctp.chunks_per_packet", "count", "higher", "transport.sctp", "none",
             True, "DATA + I-DATA chunks per SCTP packet sent (bundling)"),
    PerLayer("transport.sctp.sacks", "count", "lower", "transport.sctp", "none", True,
             "SACK chunks sent"),
    PerLayer("transport.sctp.gap_blocks", "count", "lower", "transport.sctp", "none", True,
             "gap-ack blocks sent"),
    PerLayer("transport.sctp.retransmit_frac", "frac", "lower", "transport.sctp", "none", True,
             "retransmitted / sent DATA + I-DATA chunks"),
    PerLayer("transport.sctp.scheduler_decisions", "count", "lower", "transport.sctp", "none",
             True, "stream-scheduler dequeue decisions"),
    PerLayer("transport.sctp.idata_chunks", "count", "lower", "transport.sctp", "none", True,
             "I-DATA chunks sent"),
    PerLayer("core.msgs", "count", "lower", "core", "none", True,
             "MPI sends started (eager + rendezvous + synchronous, incl. init and barriers)"),
    PerLayer("core.packets_per_msg", "count", "lower", "core", "none", True,
             "network.packets / core.msgs"),
    PerLayer("core.advance_calls_per_msg", "count", "lower", "core", "run_s", True,
             "progression-engine advance calls per MPI send"),
    PerLayer("core.unexpected_frac", "frac", "lower", "core", "none", True,
             "messages that arrived before their receive was posted"),
    PerLayer("core.rendezvous_frac", "frac", "lower", "core", "none", True,
             "sends above EAGER_LIMIT (long-message protocol)"),
    PerLayer("faults.dropped_frac", "frac", "lower", "faults", "none", True,
             "Dummynet drops / packets offered to Dummynet pipes"),
    PerLayer("metrics.on_overhead", "ratio", "lower", "metrics", "none", False,
             "metrics-on repetition / metrics-off repetition, calibrated (base = off)"),
    PerLayer("sweep.overhead_frac", "frac", "lower", "sweep", "run_s", False,
             "(cold run_sweep - sum of direct run_sweep_cell) / cold"
             " (sweep_interleave only, else 0)"),
    PerLayer("sweep.code_version_s", "s", "lower", "sweep", "setup_s", False,
             "isolated: first code_version() tree hash in a process, calibrated"),
    PerLayer("sweep.warm_resume_s", "s", "lower", "sweep", "run_s", False,
             "run_sweep again on the filled cache, calibrated (sweep_interleave only, else 0)"),
    PerLayer("sweep.cache_roundtrip_us", "us", "lower", "sweep", "run_s", False,
             "isolated: SweepCache put + get of one cell, raw microseconds"),
    PerLayer("supervise.task_overhead_s", "s", "lower", "supervise", "run_s", False,
             "isolated: supervised_map over 8 no-op tasks, calibrated seconds per task"),
    PerLayer("bench.import_s", "s", "lower", "bench", "setup_s", False,
             "calibrated seconds of a fresh interpreter importing repro"),
    PerLayer("bench.build_s", "s", "lower", "bench", "setup_s", False,
             "calibrated seconds building the workload's worlds/spec and apps"),
    PerLayer("bench.raw_wall_s", "s", "lower", "bench", "none", False,
             "raw wall seconds of the untraced repetition"),
    PerLayer("bench.cal_s", "s", "lower", "bench", "none", False,
             "median raw seconds of the calibration kernel during this run"),
    PerLayer("bench.cal_cv", "frac", "lower", "bench", "none", False,
             "coefficient of variation of the calibration kernel during this run"),
    PerLayer("bench.trace_overhead", "ratio", "lower", "bench", "none", False,
             "traced repetition / untraced repetition, calibrated"),
)

PER_LAYER_BY_NAME: Dict[str, PerLayer] = {m.name: m for m in PER_LAYER}
END_TO_END_BY_NAME: Dict[str, EndToEnd] = {m.name: m for m in END_TO_END}


def benchmark_json() -> Dict[str, object]:
    """``BENCHMARK.json`` in the shape the driver's contract prescribes."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
