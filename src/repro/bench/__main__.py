"""Command-line experiment runner: ``python -m repro.bench <experiment>``.

Runs one (or all) of the paper's experiments and prints the
paper-vs-measured table, without pytest.  Useful for quick interactive
exploration and for scripting sweeps.

    python -m repro.bench fig8
    python -m repro.bench table1 fig10
    python -m repro.bench all
    python -m repro.bench fig8 --metrics-json out.json
    python -m repro.bench chaos --jobs 4 --metrics-json out.json
    python -m repro.bench fig8 --profile
    REPRO_FULL=1 python -m repro.bench fig9

``--metrics-json PATH`` additionally enables the metrics registry for
every simulated world and writes one deterministic JSON document: per
experiment, the result rows plus one full metrics snapshot per world
run.  The document contains no wall-clock time and is byte-identical
across same-seed invocations (CI's determinism gate relies on this).

``--jobs N`` shards every experiment's cell matrix across N worker
processes (each (protocol, loss, size, fanout) cell is an isolated
deterministic simulation) and merges results in enumeration order, so
the output — including ``--metrics-json`` — is byte-identical to a
serial run (CI's parallel determinism gate relies on *this*).

``--profile`` wraps the run in :mod:`cProfile` and prints the top 20
functions by cumulative time, for hot-path hunts without ad-hoc
scripts (read from ``Profile.getstats()``, one row per code object:
``pstats`` keys rows by file:line:name and so merges every generated
dataclass ``__init__`` into one).  With ``--jobs > 1`` only the parent
process is profiled, which is rarely what you want — profile serial
runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import (
    ExperimentRow,
    chaos_matrix,
    fig8_pingpong_noloss,
    fig9_nas,
    fig10_farm,
    fig11_farm_fanout,
    fig12_hol_blocking,
    format_table,
    interleave_matrix,
    multihoming_failover,
    table1_pingpong_loss,
)
from ..metrics import MetricsCollector

EXPERIMENTS = {
    "fig8": ("Fig. 8: ping-pong throughput (no loss)", fig8_pingpong_noloss),
    "table1": ("Table 1: ping-pong throughput under loss", table1_pingpong_loss),
    "fig9": ("Fig. 9: NPB class B Mop/s (8 procs)", fig9_nas),
    "fig10": ("Fig. 10: farm run times, fanout=1", fig10_farm),
    "fig11": ("Fig. 11: farm run times, fanout=10", fig11_farm_fanout),
    "fig12": ("Fig. 12: 10 streams vs 1 stream (SCTP)", fig12_hol_blocking),
    "failover": ("Multihoming: primary-path failure mid-run", multihoming_failover),
    "interleave": ("RFC 8260: small-message latency under bulk", interleave_matrix),
    "chaos": ("Chaos matrix: fault scenarios x both stacks", chaos_matrix),
}

METRICS_SCHEMA = 1


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the paper's experiments.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help=f"experiment names ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="collect metrics snapshots and write a deterministic JSON "
        "document (rows + one snapshot per simulated world) to PATH",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard experiment cells across N worker processes; output "
        "(tables and metrics JSON) is byte-identical to a serial run",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-20 cumulative functions",
    )
    return parser.parse_args(argv)


def _run_serial(names: list[str], with_metrics: bool, doc: dict) -> None:
    """The original in-process path (one collector per experiment)."""
    for name in names:
        title, fn = EXPERIMENTS[name]
        started = time.time()  # repro: allow[AN101] — wall display only
        if with_metrics:
            with MetricsCollector() as collector:
                rows = fn()
            doc["experiments"][name] = {
                "title": title,
                "rows": [row.to_jsonable() for row in rows],
                "runs": collector.runs,
            }
        else:
            rows = fn()
        print(format_table(title, rows))
        # wall time goes to stdout only: the JSON must be run-invariant
        elapsed = time.time() - started  # repro: allow[AN101] — wall display only
        print(f"  [{name}: {elapsed:.1f}s wall]")
        print()


def _run_parallel(names: list[str], jobs: int, with_metrics: bool, doc: dict) -> None:
    """Cell-sharded fan-out; merged output matches the serial path."""
    from .parallel import run_experiments

    started = time.time()  # repro: allow[AN101] — wall display only
    merged = run_experiments(names, jobs=jobs, with_metrics=with_metrics)
    elapsed = time.time() - started  # repro: allow[AN101] — wall display only
    for name in names:
        title, _ = EXPERIMENTS[name]
        rows = [ExperimentRow.from_jsonable(d) for d in merged[name]["rows"]]
        if with_metrics:
            doc["experiments"][name] = {
                "title": title,
                "rows": merged[name]["rows"],
                "runs": merged[name]["runs"],
            }
        print(format_table(title, rows))
        print()
    print(f"  [{', '.join(names)}: {elapsed:.1f}s wall across {jobs} jobs]")


def profile_table(profiler, top: int = 20) -> str:
    """The ``top`` functions by cumulative time, one row per code object.

    Generated code (``<string>``: dataclass ``__init__``/``__eq__``)
    shares file, line and name across classes, so its rows also carry
    the parameter names, which tell the classes apart.
    """
    rows = []
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):  # builtin
            label = code
        else:
            name = getattr(code, "co_qualname", code.co_name)  # 3.11+
            if code.co_filename.startswith("<"):
                name += "(" + ", ".join(code.co_varnames[: code.co_argcount]) + ")"
            label = f"{code.co_filename}:{code.co_firstlineno}({name})"
        rows.append((entry.totaltime, entry.inlinetime, entry.callcount, label))
    rows.sort(key=lambda row: (-row[0], row[3]))
    lines = [f"{'ncalls':>10} {'tottime':>9} {'cumtime':>9}  function"]
    for cum, own, calls, label in rows[:top]:
        lines.append(f"{calls:>10} {own:>9.3f} {cum:>9.3f}  {label}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}")
        return 2
    names = args.experiments or ["all"]
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}")
        print(f"available: {', '.join(EXPERIMENTS)}, all")
        return 2
    if args.metrics_json is not None:
        # fail before running minutes of experiments, not after
        try:
            with open(args.metrics_json, "w", encoding="utf-8"):
                pass
        except OSError as err:
            print(f"cannot write metrics JSON to {args.metrics_json}: {err}")
            return 2
    profiler = None
    if args.profile:
        import cProfile

        if args.jobs > 1:
            print("note: --profile with --jobs > 1 profiles only the parent process")
        profiler = cProfile.Profile()
        profiler.enable()
    doc = {"schema": METRICS_SCHEMA, "experiments": {}}
    with_metrics = args.metrics_json is not None
    try:
        if args.jobs > 1:
            _run_parallel(names, args.jobs, with_metrics, doc)
        else:
            _run_serial(names, with_metrics, doc)
    finally:
        if profiler is not None:
            profiler.disable()
            print()
            print(profile_table(profiler))
    if args.metrics_json is not None:
        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        print(f"metrics JSON written to {args.metrics_json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
