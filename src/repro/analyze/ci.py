"""The static analyzer: every rule over one program, one suppression pass.

``python -m repro.analyze ci`` is the whole tool: load the program, run
every function in :data:`CHECKS`, suppress, report.  Suppression is
explicit and auditable, modelled on ``noqa``:

* ``# repro: allow[AN101]`` on the finding's line (the sink line for a
  taint finding), or
* ``# repro: allow-file[AN101]`` anywhere, for the whole file; both
  accept a comma-separated rule list;
* whole-program findings (AN2xx) whose justification lives far
  from their anchor line ride in the committed baseline instead
  (:mod:`repro.analyze.baseline`);
* an allow entry that matched no finding of *any* rule is itself a
  finding (AN106) — stale suppressions hide future bugs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

from . import baseline as baseline_mod
from . import flow, lint
from .callgraph import RULES, Finding, Program

#: the rule registry: plain functions ``Program -> findings``
CHECKS = (lint.check, flow.check_taint)


class Verdict(NamedTuple):
    """What one suppression pass leaves."""

    findings: List[Finding]  # unsuppressed, in report order
    baselined: int  # findings the baseline absorbed
    stale: List[str]  # baseline entries that matched nothing


def run_rules(program: Program) -> List[Finding]:
    """Every rule's raw (pre-suppression) findings over *program*."""
    raw = [m.syntax_error for m in program.modules.values() if m.syntax_error]
    for check in CHECKS:
        raw.extend(check(program))
    return raw


def suppress(
    program: Program, raw: Iterable[Finding], baseline: Dict[str, Dict]
) -> Verdict:
    """Allow comments, then the baseline, then AN106 for what went unused.

    Report order is ``(path, line, rule, ...)`` over every field, so it
    depends on neither argument, walk nor set-iteration order.
    """
    allows = {m.path: m.allows for m in program.modules.values()}
    used = set()
    kept: List[Finding] = []
    for finding in raw:
        covering = [
            c for c in allows[finding.path] if c.covers(finding.rule, finding.line)
        ]
        used.update((finding.path, c, finding.rule) for c in covering)
        if not covering:
            kept.append(finding)

    # only entries for code this run looked at can be judged stale
    in_scope = {
        fp: entry
        for fp, entry in baseline.items()
        if entry["function"].split(".")[0] in program.package_roots
    }
    new, stale = baseline_mod.apply_baseline(kept, in_scope)
    baselined = len(kept) - len(new)

    for path, comments in allows.items():
        for comment in comments:
            for rule in comment.rules:
                if rule == "AN106" or (path, comment, rule) in used:
                    continue
                if any(c.covers("AN106", comment.line) for c in comments):
                    continue
                scope = "allow-file" if comment.file_wide else "allow"
                new.append(
                    Finding(
                        path, comment.line, comment.col, "AN106",
                        f"unused suppression: {scope}[{rule}] matches no "
                        f"{rule} finding; delete it",
                    )
                )
    new.sort(
        key=lambda f: (f.path, f.line, f.rule, f.col, f.source, f.sink,
                       f.function, f.message, f.trace)
    )
    return Verdict(new, baselined, stale)


def report_json(findings: Iterable[Finding]) -> str:
    """Machine-readable report (stable key order, newline-terminated)."""
    payload = {
        "tool": "repro.analyze",
        "rules": RULES,
        "findings": [asdict(f) for f in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI body for ``python -m repro.analyze ci`` (returns exit code)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-analyze ci",
        description=(
            "static determinism analysis of the simulator sources: "
            "call-site rules and interprocedural taint"
        ),
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"])
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=baseline_mod.DEFAULT_BASELINE,
        help="accepted whole-program findings (default: %(default)s)",
    )
    parser.add_argument(
        "--update-baseline",
        metavar="FILE",
        help="write every current whole-program finding to FILE and use it",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="write a machine-readable report to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule}  {desc}")
        return 0

    program = Program.load(*args.paths)
    raw = run_rules(program)
    if args.update_baseline:
        baseline_mod.write_baseline(
            suppress(program, raw, {}).findings, args.update_baseline
        )
        args.baseline = args.update_baseline
    verdict = suppress(program, raw, baseline_mod.load_baseline(args.baseline))

    if args.json:
        text = report_json(verdict.findings)
        if args.json == "-":
            sys.stdout.write(text)
        else:
            Path(args.json).write_text(text, encoding="utf-8")
    if args.json != "-":
        for finding in verdict.findings:
            print(finding.render())
        for entry in verdict.stale:
            print(f"warning: baseline entry no longer matches anything: {entry}")
        flow_new = sum(bool(f.function) for f in verdict.findings)
        print(
            "repro.analyze ci: "
            f"lint={len(verdict.findings) - flow_new} new-flow={flow_new} "
            f"baselined={verdict.baselined} stale-baseline={len(verdict.stale)} "
            f"-> {'FAIL' if verdict.findings else 'OK'}"
        )
    return 1 if verdict.findings else 0


__all__ = ["CHECKS", "Verdict", "main", "report_json", "run_rules", "suppress"]
