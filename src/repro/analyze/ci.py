"""The static analyzer: every rule over one program, one suppression pass.

``python -m repro.analyze ci`` is the whole tool: load the program, run
every function in :data:`CHECKS`, suppress, report.  Suppression is
explicit and auditable, modelled on ``noqa``, and lives next to the code
it accepts:

* ``# repro: allow[AN101] — reason`` on the finding's line (the sink
  line for a taint finding), or
* ``# repro: allow-file[AN101] — reason`` anywhere, for the whole file;
  both accept a comma-separated rule list, and the reason follows the
  bracket on the same line;
* an allow entry that matched no finding of *any* rule is itself a
  finding (AN106) — stale suppressions hide future bugs.
"""

from __future__ import annotations

import sys
from typing import Iterable, List, Optional, Sequence

from . import flow, lint
from .callgraph import Finding, Program

#: the rule registry: plain functions ``Program -> findings``
CHECKS = (lint.check, flow.check_taint)


def run_rules(program: Program) -> List[Finding]:
    """Every rule's raw (pre-suppression) findings over *program*."""
    raw = [m.syntax_error for m in program.modules.values() if m.syntax_error]
    for check in CHECKS:
        raw.extend(check(program))
    return raw


def suppress(program: Program, raw: Iterable[Finding]) -> List[Finding]:
    """Drop what an allow comment covers, then add AN106 for unused allows.

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

    for path, comments in allows.items():
        for comment in comments:
            for rule in comment.rules:
                if rule == "AN106" or (path, comment, rule) in used:
                    continue
                if any(c.covers("AN106", comment.line) for c in comments):
                    continue
                scope = "allow-file" if comment.file_wide else "allow"
                kept.append(
                    Finding(
                        path, comment.line, comment.col, "AN106",
                        f"unused suppression: {scope}[{rule}] matches no "
                        f"{rule} finding; delete it",
                    )
                )
    kept.sort(
        key=lambda f: (f.path, f.line, f.rule, f.col, f.source, f.sink,
                       f.function, f.message, f.trace)
    )
    return kept


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
    args = parser.parse_args(argv)

    try:
        program = Program.load(*args.paths)
    except OSError as exc:  # a missing or unreadable path: usage, not findings
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    findings = suppress(program, run_rules(program))
    for finding in findings:
        print(finding.render())
    flow_count = sum(bool(f.function) for f in findings)
    print(
        "repro.analyze ci: "
        f"lint={len(findings) - flow_count} flow={flow_count} "
        f"-> {'FAIL' if findings else 'OK'}"
    )
    return 1 if findings else 0


__all__ = ["CHECKS", "main", "run_rules", "suppress"]
