"""CLI for the analysis toolbox: ``python -m repro.analyze`` / ``repro-analyze``.

Subcommands
===========

``ci [paths...]``
    The static analyzer (:mod:`repro.analyze.ci`) over the given files /
    directories (default ``src/repro``): the call-site rules (AN10x).
    Exits 1 on any finding that no ``# repro: allow[...]`` comment
    accepts, 2 on a usage error (a path that is missing or cannot be
    read included).  This is the CI gate.

``perturb EXPERIMENT name=value ... [--modes lifo,shuffle:7] [--json FILE]``
    Schedule-perturbation race detector on one bench cell.  Exits 1 when
    any perturbed tie-break produces a different metrics digest than the
    production FIFO order.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

_USAGE = """\
usage: repro-analyze {ci,perturb} ...

subcommands:
  ci       static determinism analysis of the sources (the CI gate)
  perturb  schedule-perturbation race detector on a bench cell

run `repro-analyze <subcommand> --help` for details.
"""


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch to a subcommand; returns the process exit code."""
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0
    command, rest = args[0], args[1:]
    if command == "ci":
        from . import ci

        return ci.main(rest)
    if command == "perturb":
        from . import perturb

        return perturb.main(rest)
    sys.stderr.write(f"repro-analyze: unknown subcommand {command!r}\n\n{_USAGE}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
