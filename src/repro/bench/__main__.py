"""Command-line experiment runner: ``python -m repro.bench <figure>``.

Runs one (or all) of the paper's figures — the titled registry entries
of :mod:`repro.bench.harness` — and prints the paper-vs-measured table.

    python -m repro.bench fig8
    python -m repro.bench table1 fig10
    python -m repro.bench all
    python -m repro.bench fig8 --metrics-json out.json
    python -m repro.bench chaos --jobs 4 --metrics-json out.json
    python -m repro.bench fig8 --profile
    REPRO_FULL=1 python -m repro.bench fig9

A figure is its entry's ``default_cells``: isolated deterministic
simulations, merged in enumeration order.  ``--jobs N`` only changes
*where* they run (N supervised worker processes instead of this one),
so tables and ``--metrics-json`` are byte-identical for every N (CI's
parallel determinism gate relies on this).

``--metrics-json PATH`` additionally enables the metrics registry for
every simulated world and writes one deterministic JSON document: per
figure, the result rows plus one full metrics snapshot per world run.
The document contains no wall-clock time and is byte-identical across
same-seed invocations (CI's determinism gate relies on *this*).

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
import itertools
import json
import sys
import time
from typing import Iterator, List, Tuple

from ..supervise import STRICT, supervised_map
from .harness import MATRICES, ExperimentRow, cell_id, default_cells, format_table, run_cell_task

METRICS_SCHEMA = 1


def _parse_args(argv: list[str], figures: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the paper's experiments.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help=f"experiment names ({', '.join(figures)}) or 'all'",
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


def run_figures(
    names: List[str], jobs: int, with_metrics: bool
) -> Iterator[Tuple[str, List[dict], List[dict]]]:
    """Yield ``(figure, rows, metrics runs)`` for every named figure.

    All figures' cells form one task list, run in this process (lazily:
    a figure is yielded as soon as its last cell finishes) or by ``jobs``
    supervised workers (strictly: a lost worker raises naming its cell),
    and concatenated per figure in enumeration, never completion, order.
    """
    cells = {name: default_cells(name) for name in names}
    items = [(name, params, with_metrics) for name in names for params in cells[name]]
    if jobs <= 1:
        outputs = map(run_cell_task, items)
    else:
        ids = [cell_id(name, params) for name, params, _ in items]
        fanned = supervised_map(run_cell_task, items, jobs=jobs, policy=STRICT, task_ids=ids)
        outputs = iter(fanned.unwrap())
    for name in names:
        rows: List[dict] = []
        runs: List[dict] = []
        for cell_rows, cell_runs in itertools.islice(outputs, len(cells[name])):
            rows += cell_rows
            runs += cell_runs
        yield name, rows, runs


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
    # the figures, in the order ``all`` runs them
    titles = {name: m.title for name, m in MATRICES.items() if m.title is not None}
    args = _parse_args(argv, list(titles))
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}")
        return 2
    names = list(titles) if args.experiments == ["all"] else args.experiments
    unknown = [n for n in names if n not in titles]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}")
        print(f"available: {', '.join(titles)}, all")
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
    started = time.time()  # repro: allow[AN101] — wall display only
    try:
        for name, rows, runs in run_figures(names, args.jobs, args.metrics_json is not None):
            doc["experiments"][name] = {"title": titles[name], "rows": rows, "runs": runs}
            table = [ExperimentRow(**row) for row in rows]
            print(format_table(titles[name], table))
            print()
        # wall time goes to stdout only: the JSON must be run-invariant
        elapsed = time.time() - started  # repro: allow[AN101] — wall display only
        print(f"  [{', '.join(names)}: {elapsed:.1f}s wall, --jobs {args.jobs}]")
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
