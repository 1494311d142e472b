"""Machine-readable baseline of accepted whole-program findings.

The taint rules (:mod:`repro.analyze.flow`) are conservative by
design, and a few of their findings over this tree are *accepted
behaviour* (``REPRO_FULL`` is deliberately part of the sweep-cache key).
Rather than sprinkle ``allow`` comments for
whole-program findings whose anchor line is far from the decision that
justifies them, accepted findings live in a committed baseline file
(``ANALYZE_baseline.json`` at the repo root) that CI diffs against:
*new* findings fail the build, baselined ones ride along, and entries
that stop matching anything are reported so the baseline shrinks as
code improves.

Fingerprints are **line-insensitive**: sha256 over (rule, source
descriptor, sink descriptor, function qualname) — not line numbers — so
unrelated edits above a finding don't churn the baseline.  Paths are
likewise excluded because the function qualname already pins the
location at file-move granularity.  A per-line finding (AN1xx) has no
function, source or sink, so nothing but its rule id would go into a
fingerprint: those are never baselined — an ``allow`` comment on the
line is their mechanism.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from .callgraph import Finding

BASELINE_VERSION = 1
DEFAULT_BASELINE = "ANALYZE_baseline.json"


def fingerprint(finding: Finding) -> str:
    """Stable, line-insensitive identity for one finding."""
    payload = "\x1f".join(
        (finding.rule, finding.function, finding.source, finding.sink)
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def write_baseline(findings: Sequence[Finding], path: str) -> None:
    """Write the whole-program *findings* as the accepted baseline (stable)."""
    entries = []
    seen = set()
    for finding in sorted(
        findings, key=lambda f: (f.rule, f.function, f.source, f.sink)
    ):
        if not finding.function:
            continue
        fp = fingerprint(finding)
        if fp in seen:
            continue
        seen.add(fp)
        entries.append(
            {
                "fingerprint": fp,
                "rule": finding.rule,
                "function": finding.function,
                "source": finding.source,
                "sink": finding.sink,
                # advisory only — not part of the fingerprint
                "path": finding.path,
                "note": "",
            }
        )
    document = {
        "version": BASELINE_VERSION,
        "tool": "repro.analyze.flow",
        "entries": entries,
    }
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_baseline(path: str) -> Dict[str, Dict]:
    """fingerprint → entry map; missing file means an empty baseline."""
    file = Path(path)
    if not file.exists():
        return {}
    document = json.loads(file.read_text(encoding="utf-8"))
    version = document.get("version")
    if version != BASELINE_VERSION:
        raise ValueError(
            f"baseline {path} has version {version!r}; "
            f"this tool expects {BASELINE_VERSION}"
        )
    return {e["fingerprint"]: e for e in document.get("entries", [])}


def apply_baseline(
    findings: Sequence[Finding], baseline: Dict[str, Dict]
) -> Tuple[List[Finding], List[str]]:
    """Split findings into (new, unused-baseline-entry descriptions).

    A finding whose fingerprint appears in the baseline is suppressed.
    Baseline entries that matched nothing are returned as human-readable
    strings so stale entries surface instead of rotting.
    """
    matched = set()
    new: List[Finding] = []
    for finding in findings:
        fp = fingerprint(finding)
        if finding.function and fp in baseline:
            matched.add(fp)
        else:
            new.append(finding)
    unused = [
        f"{entry['rule']} {entry['function']}: {entry['source']} -> {entry['sink']}"
        for fp, entry in sorted(baseline.items())
        if fp not in matched
    ]
    return new, unused


__all__ = [
    "BASELINE_VERSION",
    "DEFAULT_BASELINE",
    "apply_baseline",
    "fingerprint",
    "load_baseline",
    "write_baseline",
]
