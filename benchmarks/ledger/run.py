"""The layered performance ledger: one command, every metric by name.

Whole suite (five workloads, each in a fresh child process, one
repetition at a time; then one traced pass per workload)::

    python benchmarks/ledger/run.py [--seed N] [--out results.json]
                                    [--trace-out trace.json] [--quick]

One workload, the form the benchmark driver calls (the last line of
standard output is one JSON object: correct, attempted, failed, metrics)::

    python benchmarks/ledger/run.py --workload pingpong_16k --seed 7 \
        --seconds 12 --trace 0|1

``--trace 0`` measures the end-to-end metrics with neither the profiler
nor the metrics registry on.  ``--trace 1`` does a fixed amount of work
instead of filling ``--seconds``: metrics-off/on repetition pairs, one
repetition under the layer profiler, and the isolated layer drivers.
See README.md beside this file for the protocol and the glossary.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # as early as this file can read a clock

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# the driver's command line cannot set PYTHONPATH; the checkout's own
# sources must win over any installed copy
sys.path.insert(0, str(ROOT / "src"))

import catalog
from calib import REF_CAL_S, Bracket, summarize

SCHEMA = 1
SETUP_PROBES = 11  # measured fresh interpreters per run (one more is discarded)
TRACE_PROBES = 3
ONOFF_PAIRS = 3  # metrics-off / metrics-on repetition pairs in the traced pass
MIN_REPS = 3

Timer = Callable[[Callable[[], Any]], Tuple[Any, float, float]]


@dataclass
class Rep:
    """One repetition: calibrated and raw seconds of its measured phase."""

    cal_s: float = 0.0
    raw_s: float = 0.0
    legs: Dict[str, float] = field(default_factory=dict)  # leg -> calibrated s
    digest: Optional[str] = None  # None = the repetition failed


def run_rep(wl: Any, seed: int, limit_ns: int, workdir: Path, timer: Timer) -> Rep:
    """Build and run every leg of one repetition; never raises for a
    failing workload -- a repetition that raises, runs into ``limit_ns``
    or loses work comes back with ``digest=None``."""
    import workloads

    gc.collect()
    rep = Rep()
    outputs: Dict[str, Any] = {}
    try:
        for leg, call in wl.legs(seed, limit_ns, workdir):
            outputs[leg], raw, calibrated = timer(call)
            rep.raw_s += raw
            rep.cal_s += calibrated
            rep.legs[leg] = calibrated
        rep.digest = workloads.virt_digest(wl.virtual(outputs))
    except Exception:
        # the boundary that keeps the command alive: report and count it
        print(f"repetition of {wl.name} failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    return rep


class Tally:
    """Operations attempted and failed, against one reference digest."""

    def __init__(self, ops_per_rep: int) -> None:
        self.ops = ops_per_rep
        self.attempted = 0
        self.failed = 0
        self.digest: Optional[str] = None

    def add(self, rep: Rep) -> Rep:
        self.attempted += self.ops
        if self.digest is None:
            self.digest = rep.digest
        if rep.digest is None or rep.digest != self.digest:
            self.failed += self.ops
        return rep


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


# -- set-up probes -----------------------------------------------------------
def probe_main(args: argparse.Namespace) -> int:
    """Child side: import, build every leg, say when ready, run nothing."""
    import workloads

    imported = time.perf_counter()
    wl = workloads.get(args.probe, args.quick)
    legs = list(wl.legs(args.seed, args.limit_ns, Path(args.workdir)))
    ready = time.perf_counter()
    print(json.dumps({
        "ready_at": ready,
        "import_s": imported - _PROCESS_START,
        "build_s": ready - imported,
        "legs": len(legs),
    }))
    return 0


def setup_probes(
    bracket: Bracket, name: str, seed: int, quick: bool, workdir: Path, count: int
) -> Dict[str, List[float]]:
    """Calibrated set-up seconds of ``count`` fresh interpreters (after one
    discarded): process start -> repro imported -> worlds built -> ready."""
    command = [
        sys.executable, str(HERE / "run.py"), "--probe", name, "--seed", str(seed),
        "--workdir", str(workdir), *(["--quick"] if quick else []),
    ]

    def spawn() -> Dict[str, float]:
        spawned = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        doc = json.loads(done.stdout.splitlines()[-1])
        # perf_counter is CLOCK_MONOTONIC: one clock for parent and child
        return {
            "setup_s": doc["ready_at"] - spawned,
            "import_s": doc["import_s"],
            "build_s": doc["build_s"],
        }

    samples: Dict[str, List[float]] = {"setup_s": [], "import_s": [], "build_s": []}
    for i in range(count + 1):
        doc, raw, calibrated = bracket.time(spawn)
        if i == 0:
            continue  # first start pays for cold page cache and .pyc files
        for key, values in samples.items():
            values.append(doc[key] * calibrated / raw)
    return samples


# -- one workload ------------------------------------------------------------
def measure_end_to_end(args: argparse.Namespace, wl: Any, workdir: Path) -> Dict[str, Any]:
    bracket = Bracket()
    n_probes = 1 if args.quick else SETUP_PROBES
    setup = setup_probes(bracket, wl.name, args.seed, args.quick, workdir, n_probes)
    tally = Tally(wl.ops)
    tally.add(run_rep(wl, args.seed, args.limit_ns, workdir, bracket.time))  # warm-up
    reps: List[Rep] = []
    min_reps = 1 if args.quick else MIN_REPS
    deadline = time.perf_counter() + (0.0 if args.quick else args.seconds)
    while len(reps) < min_reps or time.perf_counter() < deadline:
        reps.append(tally.add(run_rep(wl, args.seed, args.limit_ns, workdir, bracket.time)))
    metrics = {
        "run_s": summarize([rep.cal_s for rep in reps]),
        "setup_s": summarize(setup["setup_s"]),
        "peak_rss_mb": summarize([peak_rss_mb()]),
    }
    context = {
        "bench.raw_wall_s": statistics.median(rep.raw_s for rep in reps),
        "bench.cal_s": bracket.cal_median(),
        "bench.cal_cv": bracket.cal_cv(),
    }
    return _result(args, wl, tally, metrics, catalog.END_TO_END_BY_NAME, context)


def measure_per_layer(args: argparse.Namespace, wl: Any, workdir: Path) -> Dict[str, Any]:
    import drivers
    import layers
    import workloads
    from repro.metrics import MetricsCollector

    bracket = Bracket()
    limit = args.limit_ns
    values: Dict[str, float] = dict.fromkeys(catalog.PER_LAYER_BY_NAME, 0.0)
    values["sweep.code_version_s"] = drivers.code_version_first_call(bracket)
    n_probes = 1 if args.quick else TRACE_PROBES
    setup = setup_probes(bracket, wl.name, args.seed, args.quick, workdir, n_probes)
    values["bench.import_s"] = statistics.median(setup["import_s"])
    values["bench.build_s"] = statistics.median(setup["build_s"])

    tally = Tally(wl.ops)
    tally.add(run_rep(wl, args.seed, limit, workdir, bracket.time))  # warm-up
    off: List[Rep] = []
    ratios: List[float] = []
    snapshots: List[Dict[str, Any]] = []
    for _ in range(1 if args.quick else ONOFF_PAIRS):
        off.append(tally.add(run_rep(wl, args.seed, limit, workdir, bracket.time)))
        with MetricsCollector() as collector:
            on = tally.add(run_rep(wl, args.seed, limit, workdir, bracket.time))
        snapshots = [run["metrics"] for run in collector.runs]
        ratios.append(on.cal_s / off[-1].cal_s if off[-1].cal_s else 0.0)
    untraced_cal = statistics.median(rep.cal_s for rep in off)
    untraced_raw = statistics.median(rep.raw_s for rep in off)
    values["metrics.on_overhead"] = statistics.median(ratios)
    values["bench.raw_wall_s"] = untraced_raw
    for leg, key in (("tcp", "transport.tcp.leg_s"), ("sctp", "transport.sctp.leg_s")):
        values[key] = statistics.median(rep.legs.get(leg, 0.0) for rep in off)

    trace = layers.LayerTrace()
    traced = tally.add(run_rep(
        wl, args.seed, limit, workdir, lambda fn: bracket.time(lambda: trace.run(fn))
    ))
    report = trace.report()
    values["bench.trace_overhead"] = traced.cal_s / untraced_cal if untraced_cal else 0.0
    for layer, row in report["layers"].items():
        values[f"{layer}.self_share"] = row["self_share"]
        values[f"{layer}.calls"] = row["calls"]

    counts = layers.simulated_counts(snapshots)
    values.update(counts)
    events = counts["simkernel.events"]
    if events and untraced_raw:
        values["simkernel.ns_per_event"] = untraced_raw / events * 1e9
        values["simkernel.events_per_s"] = events / untraced_raw
        values["simkernel.vsec_per_wall_s"] = layers.virtual_seconds(snapshots) / untraced_raw

    n_events, n_timers, n_packets = drivers.ISOLATED_SIZES[args.quick]
    values["simkernel.bare_events_per_s"] = drivers.rate(bracket, drivers.bare_events(n_events))
    values["simkernel.timer_churn_per_s"] = drivers.rate(bracket, drivers.timer_churn(n_timers))
    values["network.link_pkts_per_s"] = drivers.rate(bracket, drivers.link_packets(n_packets))
    spec = workloads.sweep_spec(args.seed, args.quick)
    values["sweep.cache_roundtrip_us"] = drivers.cache_roundtrip_us(spec, workdir)
    values["supervise.task_overhead_s"] = drivers.supervise_task_overhead(bracket)
    if wl.name == "sweep_interleave" and tally.failed == 0:
        values.update(drivers.sweep_probes(bracket, spec, workdir, untraced_cal))
    if wl.name == "halo_pods" and tally.failed == 0:
        # every event up to the horizon fires in both legs; a quarter past
        # the run's own end keeps the lingering timers cheap
        horizon_ns = int(layers.virtual_seconds(snapshots) * 1.25e9)
        config, app = workloads.halo_world(args.seed, args.quick)
        values.update(drivers.pdes_probe(config, app, horizon_ns))
    values["bench.cal_s"] = bracket.cal_median()
    values["bench.cal_cv"] = bracket.cal_cv()

    metrics = {name: {"value": value} for name, value in values.items()}
    result = _result(args, wl, tally, metrics, catalog.PER_LAYER_BY_NAME, {})
    result["layer_trace"] = report
    return result


def _result(
    args: argparse.Namespace,
    wl: Any,
    tally: Tally,
    metrics: Dict[str, Dict[str, float]],
    declared: Dict[str, Any],
    context: Dict[str, float],
) -> Dict[str, Any]:
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics measured and declared differ: {sorted(set(metrics) ^ set(declared))}"
        )
    return {
        "schema": SCHEMA,
        "workload": wl.name,
        "seed": args.seed,
        "quick": args.quick,
        "trace": args.trace,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "virt_digest": tally.digest,
        "metrics": {
            name: {**row, "unit": declared[name].unit} for name, row in metrics.items()
        },
        "context": context,
    }


def print_result(result: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the contract's JSON line."""
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}"
          f"{' (quick)' if result['quick'] else ''}")
    for name, row in result["metrics"].items():
        spread = f"  [q1 {row['q1']:.6g} .. q3 {row['q3']:.6g}] n={row['n']}" if "n" in row else ""
        print(f"  {name:<36} {row['value']:>14.6g} {row['unit']}{spread}")
    for name, value in result["context"].items():
        print(f"  ({name:<34} {value:>14.6g})")
    print(f"  failed ops: {result['failed']} of {result['attempted']}"
          f" (failed_frac {result['failed_frac']:g})   virt_digest {result['virt_digest']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": row["value"], "unit": row["unit"]}
            for name, row in result["metrics"].items()
        },
    }))


def write_json(path: str, document: Any) -> None:
    Path(path).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


@contextlib.contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A directory under ``.ledger-work/`` in the checkout, gone on exit."""
    scratch = ROOT / ".ledger-work"
    scratch.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=scratch))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it


def workload_main(args: argparse.Namespace) -> int:
    import workloads

    wl = workloads.get(args.workload, args.quick)
    with scratch_dir(f"{wl.name}-") as workdir:
        # everything repro or its children write to a temp dir stays in the checkout
        tempfile.tempdir = os.environ["TMPDIR"] = str(workdir)
        measure = measure_per_layer if args.trace else measure_end_to_end
        result = measure(args, wl, workdir)
    trace_report = result.pop("layer_trace", None)
    if args.out:
        write_json(args.out, result)
    if args.trace_out and trace_report is not None:
        write_json(args.trace_out, trace_report)
    print_result(result)
    return 0


# -- the whole suite ---------------------------------------------------------
def suite_main(args: argparse.Namespace) -> int:
    """Every workload in a fresh child, end-to-end pass then traced pass."""
    suite: Dict[str, Any] = {
        "schema": SCHEMA,
        "meta": {
            "seed": args.seed,
            "quick": args.quick,
            "run_seconds": args.seconds,
            "ref_cal_s": REF_CAL_S,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workloads": {},
    }
    traces: Dict[str, Any] = {}
    status = 0
    with scratch_dir("suite-") as handoff:
        out, trace_out = handoff / "result.json", handoff / "trace.json"
        for name, _why in catalog.WORKLOADS:
            entry: Dict[str, Any] = {"context": {}, "attempted": 0, "failed": 0}
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", str(out), "--trace-out", str(trace_out),
                    *(["--quick"] if args.quick else []),
                ]
                # one child at a time: never more busy processes than the
                # child itself starts (two, in the PDES probe)
                subprocess.run(command, check=True, timeout=600)
                result = json.loads(out.read_text(encoding="utf-8"))
                entry[section] = result["metrics"]
                entry["context"].update(result["context"])
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                if entry.setdefault("virt_digest", result["virt_digest"]) != result["virt_digest"]:
                    print(f"{name}: traced pass computed a different virt_digest")
                    entry["failed"] = entry["attempted"]
            traces[name] = json.loads(trace_out.read_text(encoding="utf-8"))
            entry["failed_frac"] = entry["failed"] / entry["attempted"]
            status |= int(entry["failed"] > 0)
            suite["workloads"][name] = entry
    if args.out:
        write_json(args.out, suite)
    if args.trace_out:
        write_json(args.trace_out, {"schema": SCHEMA, "workloads": traces})
    return status


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[name for name, _ in catalog.WORKLOADS],
                        help="run this one workload in this process (default: the suite)")
    parser.add_argument("--seed", type=int, default=1,
                        help="WorldConfig.seed / the sweep spec's seed parameter")
    parser.add_argument("--seconds", type=float, default=float(catalog.RUN_SECONDS),
                        help="length of the measured phase of an end-to-end run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, observers off; 1: per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="one repetition of shrunken workloads: a smoke test, no measurement")
    parser.add_argument("--out", metavar="PATH", help="write the full result document here")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the layer-edge spans and hot functions here")
    # internal: the fresh-interpreter side of the set-up probe
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    # test hook: starve the workload of virtual time so that it fails
    parser.add_argument("--limit-ns", type=int, default=catalog.LIMIT_NS, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    try:
        import repro
    except ImportError as err:
        print(f"cannot import repro from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"repro came from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.probe:
        return probe_main(args)
    if args.workload:
        return workload_main(args)
    return suite_main(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
