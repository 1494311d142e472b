"""CLI for the analysis toolbox: ``python -m repro.analyze`` / ``repro-analyze``.

Subcommands
===========

``lint [paths...] [--json FILE] [--list-rules] [--fix]``
    Determinism lint over the given files/directories (default
    ``src/repro``).  Exits 1 on any unsuppressed finding.  ``--fix``
    prints a removal listing for unused ``allow`` comments (AN106).

``flow [root] [--baseline FILE] [--update-baseline FILE] [--sarif FILE]``
    Interprocedural determinism-taint (AN2xx) and fork-purity (AN3xx)
    analysis over a source tree.  Exits 1 on any finding not covered by
    the baseline.

``ci [--root src/repro] [--baseline ANALYZE_baseline.json] [--sarif FILE]``
    The CI umbrella: lint + flow against the committed baseline in one
    blocking step.  Exits nonzero if either stage reports anything new.

``perturb EXPERIMENT name=value ... [--modes lifo,shuffle:7] [--json FILE]``
    Schedule-perturbation race detector on one bench cell.  Exits 1 when
    any perturbed tie-break produces a different metrics digest than the
    production FIFO order.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from . import lint, perturb

_USAGE = """\
usage: repro-analyze {lint,flow,ci,perturb} ...

subcommands:
  lint     determinism lint over simulator sources (AN101-AN106)
  flow     interprocedural taint + fork-purity analysis (AN2xx/AN3xx)
  ci       lint + flow against the committed baseline (the CI gate)
  perturb  schedule-perturbation race detector on a bench cell

run `repro-analyze <subcommand> --help` for details.
"""


def _ci(argv: Sequence[str]) -> int:
    """lint + flow in one blocking step, as CI runs it."""
    import argparse

    from . import baseline as baseline_mod
    from . import flow

    parser = argparse.ArgumentParser(
        prog="repro-analyze ci",
        description=(
            "run the determinism lint and the interprocedural flow "
            "analysis as one blocking gate"
        ),
    )
    parser.add_argument("--root", default="src/repro")
    parser.add_argument("--package", default="repro")
    parser.add_argument(
        "--baseline",
        default=baseline_mod.DEFAULT_BASELINE,
        help="accepted-findings baseline (default: %(default)s)",
    )
    parser.add_argument(
        "--sarif", metavar="FILE", help="write combined SARIF report to FILE"
    )
    args = parser.parse_args(argv)

    lint_findings = lint.lint_paths([args.root])
    for finding in lint_findings:
        print(finding.render())

    flow_findings = flow.analyze_tree(args.root, args.package)
    base = baseline_mod.load_baseline(args.baseline)
    new_findings, unused = baseline_mod.apply_baseline(flow_findings, base)
    for finding in new_findings:
        print(finding.render())
    for entry in unused:
        print(f"warning: baseline entry no longer matches anything: {entry}")

    if args.sarif:
        from pathlib import Path

        fingerprints = {
            f: baseline_mod.fingerprint(f) for f in new_findings
        }
        Path(args.sarif).write_text(
            flow.sarif_report(
                new_findings, lint_findings, fingerprints=fingerprints
            ),
            encoding="utf-8",
        )

    failed = bool(lint_findings) or bool(new_findings)
    print(
        "repro.analyze ci: "
        f"lint={len(lint_findings)} new-flow={len(new_findings)} "
        f"baselined={len(flow_findings) - len(new_findings)} "
        f"stale-baseline={len(unused)} -> {'FAIL' if failed else 'OK'}"
    )
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch to a subcommand; returns the process exit code."""
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0
    command, rest = args[0], args[1:]
    if command == "lint":
        return lint.main(rest)
    if command == "flow":
        from . import flow

        return flow.main(rest)
    if command == "ci":
        return _ci(rest)
    if command == "perturb":
        return perturb.main(rest)
    sys.stderr.write(f"repro-analyze: unknown subcommand {command!r}\n\n{_USAGE}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
