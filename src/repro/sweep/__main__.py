"""Sweep CLI: ``python -m repro.sweep <subcommand>``.

    # run a sweep spec (resumable: cached cells are not recomputed)
    python -m repro.sweep run benchmarks/sweep_smoke.json --jobs 4 \\
        --out sweep_result.json

    # list the cells a spec expands to, without running anything
    python -m repro.sweep cells benchmarks/sweep_smoke.json

    # the CI determinism + cache gate (serial vs --jobs, warm resume,
    # cache kill) in one call
    python -m repro.sweep verify benchmarks/sweep_smoke.json --jobs 4

    # append a normalized snapshot (with the ledger's end-to-end medians)
    # to the committed trajectory and regenerate the EXPERIMENTS.md table
    python -m repro.sweep report --sweep sweep_result.json \\
        --ledger results.json --trajectory BENCH_trajectory.json \\
        --experiments-md EXPERIMENTS.md

Exit codes: 0 success, 1 gate/verify failure, 2 usage/spec error or an
unreadable trajectory (left as it is).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..bench.harness import ExperimentRow, format_table
from .cache import SweepCache
from .report import (
    TrajectoryError,
    append_trajectory,
    build_entry,
    update_experiments_md,
)
from .runner import dumps_result, run_sweep
from .spec import SweepError, load_spec
from .verify import verify_spec


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Declarative sweep orchestrator over the bench cell registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a sweep spec (cache-resumable)")
    runp.add_argument("spec", help="sweep spec path (JSON)")
    runp.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="shard dirty cells across N worker processes")
    runp.add_argument("--cache", default=".sweep-cache", metavar="DIR",
                      help="per-cell result cache directory (default: .sweep-cache)")
    runp.add_argument("--no-cache", action="store_true",
                      help="recompute every cell; do not read or write the cache")
    runp.add_argument("--out", metavar="PATH", default=None,
                      help="write the merged result document (byte-stable JSON)")

    cellsp = sub.add_parser("cells", help="list a spec's expanded cells")
    cellsp.add_argument("spec")

    verifyp = sub.add_parser(
        "verify",
        help="determinism + cache gate: serial vs --jobs byte parity, "
        "zero-recompute warm resume, cache-kill rerun",
    )
    verifyp.add_argument("spec")
    verifyp.add_argument("--jobs", type=int, default=4, metavar="N")

    reportp = sub.add_parser(
        "report", help="append a trajectory entry, regenerate the trend table"
    )
    reportp.add_argument("--sweep", required=True, metavar="PATH",
                         help="merged sweep result document (from 'run --out')")
    reportp.add_argument("--ledger", metavar="PATH", default=None,
                         help="benchmarks/ledger/run.py --out document whose "
                         "end-to-end medians to record (read only)")
    reportp.add_argument("--trajectory", metavar="PATH",
                         default="BENCH_trajectory.json",
                         help="trajectory file to append to (default: %(default)s)")
    reportp.add_argument("--experiments-md", metavar="PATH", default=None,
                         help="regenerate the trend table in this markdown file")
    reportp.add_argument("--git-sha", default=None, help=argparse.SUPPRESS)
    reportp.add_argument("--date", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}")
        return 2
    cache = None if args.no_cache else SweepCache(args.cache)
    result = run_sweep(spec, jobs=args.jobs, cache=cache)
    for cell in result.doc["cells"]:
        rows = [ExperimentRow(**row) for row in cell["rows"]]
        print(format_table(cell["id"], rows))
    print(
        f"\nsweep {spec.name!r}: {len(spec.cells)} cells "
        f"({len(result.executed)} executed, {len(result.cached)} from cache), "
        f"code {result.doc['code_version']}, scale {result.doc['scale']}"
    )
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dumps_result(result.doc))
        print(f"merged result written to {args.out}")
    return 0


def _cmd_cells(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    for cell in spec.cells:
        print(cell.id)
    print(
        f"# {len(spec.cells)} cells across "
        f"{len(spec.experiments())} experiment(s): {', '.join(spec.experiments())}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    if args.jobs < 2:
        print(f"--jobs must be >= 2 (serial is compared against it), got {args.jobs}")
        return 2
    failures = verify_spec(spec, jobs=args.jobs)
    if failures:
        print("SWEEP VERIFY FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"sweep verify OK: {len(spec.cells)} cells byte-identical serial vs "
        f"--jobs {args.jobs}, warm resume recomputed 0 cells, "
        "cache-kill rerun reproduced the document"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    with open(args.sweep, encoding="utf-8") as fh:
        sweep_doc = json.load(fh)
    ledger_doc = None
    if args.ledger is not None:
        with open(args.ledger, encoding="utf-8") as fh:
            ledger_doc = json.load(fh)
    entry = build_entry(
        sweep_doc, ledger_doc=ledger_doc, git_sha=args.git_sha, date=args.date
    )
    trajectory = append_trajectory(args.trajectory, entry)
    print(
        f"appended run {entry['run_id']} (git {entry['git_sha'][:9]}, "
        f"{len(entry['cells'])} cells) to {args.trajectory} "
        f"[{len(trajectory['entries'])} entries]"
    )
    if args.experiments_md is not None:
        update_experiments_md(args.experiments_md, trajectory)
        print(f"trend table regenerated in {args.experiments_md}")
    return 0


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    commands = {
        "run": _cmd_run,
        "cells": _cmd_cells,
        "verify": _cmd_verify,
        "report": _cmd_report,
    }
    try:
        return commands[args.command](args)
    except SweepError as err:
        print(f"sweep spec error: {err}")
        return 2
    except TrajectoryError as err:
        print(f"trajectory error: {err}")
        return 2
    except OSError as err:
        print(f"i/o error: {err}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
