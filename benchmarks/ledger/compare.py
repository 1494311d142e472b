"""Compare two ledger result files (``run.py --out``): base A, candidate B.

    python benchmarks/ledger/compare.py A.json B.json

One row per workload x end-to-end metric, every ratio given with its
base (B / A).  A row is

* ``worse``       B is worse than A by more than the metric's bound;
* ``better``      B is better than A by more than the bound;
* ``within``      the medians differ by no more than the bound;
* ``unresolved``  either side cannot place its own median to within the
                  bound (see :func:`median_uncertainty`), so the run
                  cannot tell -- which is not "unchanged".

``failed_frac`` has no tolerance: any rise fails.  ``virt_digest``
changes and changes of exact (``*``) counts are listed but do not fail:
a protocol fix legitimately changes them, a pure speed-up must not.
Exit status is 1 on any ``worse`` row or any rise in ``failed_frac``.
Two runs of one commit compared this way are the benchmark's own
acceptance check: every row must be ``within``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple

import catalog


def median_uncertainty(row: Dict[str, float]) -> float:
    """Two standard errors of one side's median, as a share of it.

    From the quartile range of the side's ``n`` samples: sigma is about
    IQR / 1.349 and a median's standard error about 1.2533 sigma /
    sqrt(n), together 0.93 IQR / sqrt(n).  0 for a single sample, which
    carries no spread to judge by.
    """
    if row.get("n", 1) < 2 or not row["value"]:
        return 0.0
    return 2 * 0.93 * (row["q3"] - row["q1"]) / row["n"] ** 0.5 / row["value"]


def verdict(metric: catalog.EndToEnd, base: Dict[str, float], cand: Dict[str, float]) -> str:
    if max(median_uncertainty(base), median_uncertainty(cand)) > metric.bound:
        return "unresolved"
    ratio = cand["value"] / base["value"]
    if metric.better == "higher":
        ratio = 1.0 / ratio
    if ratio > 1.0 + metric.bound:
        return "worse"
    if ratio < 1.0 - metric.bound:
        return "better"
    return "within"


def compare(base: Dict[str, Any], cand: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report lines and whether B regressed against A."""
    lines: List[str] = []
    regressed = False
    if base["meta"]["quick"] or cand["meta"]["quick"]:
        lines.append("NOTE: --quick results are one repetition of shrunken workloads;"
                     " the verdicts below mean nothing")
    header = f"{'workload':<18}{'metric':<14}{'A (base)':>12}{'B':>12}{'B/A':>8}  verdict"
    lines += [header, "-" * len(header)]
    notes: List[str] = []
    for name, _why in catalog.WORKLOADS:
        a, b = base["workloads"].get(name), cand["workloads"].get(name)
        if a is None or b is None:
            notes.append(f"{name}: missing from {'A' if a is None else 'B'}")
            regressed = regressed or b is None
            continue
        for metric in catalog.END_TO_END:
            row_a, row_b = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            result = verdict(metric, row_a, row_b)
            regressed = regressed or result == "worse"
            lines.append(
                f"{name:<18}{metric.name:<14}{row_a['value']:>12.5g}{row_b['value']:>12.5g}"
                f"{row_b['value'] / row_a['value']:>8.3f}  {result}"
                f" (bound {metric.bound:g}, median +- A {median_uncertainty(row_a):.3f}"
                f" B {median_uncertainty(row_b):.3f})"
            )
        rose = b["failed_frac"] > a["failed_frac"]
        regressed = regressed or rose
        lines.append(
            f"{name:<18}{'failed_frac':<14}{a['failed_frac']:>12.5g}{b['failed_frac']:>12.5g}"
            f"{'':>8}  {'ROSE' if rose else 'ok'} (no tolerance)"
        )
        if a["virt_digest"] != b["virt_digest"]:
            notes.append(
                f"{name}: virt_digest changed {str(a['virt_digest'])[:12]} ->"
                f" {str(b['virt_digest'])[:12]} (virtual-time outputs differ)"
            )
        for metric in catalog.PER_LAYER:
            if not metric.exact:
                continue
            va = a["per_layer"][metric.name]["value"]
            vb = b["per_layer"][metric.name]["value"]
            if va != vb:
                ratio = f" (B/A {vb / va:.4f})" if va else ""
                notes.append(f"{name}: {metric.name}* {va:g} -> {vb:g}{ratio}")
    if notes:
        lines += ["", "changes in virtual-time outputs and exact counts:"]
        lines += [f"  {note}" for note in notes]
    else:
        lines += ["", "every virt_digest and every exact count is identical"]
    return lines, regressed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    lines, regressed = compare(*docs)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
