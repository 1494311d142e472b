"""Persistent perf/result trajectory: the repo's committed curve.

``BENCH_trajectory.json`` is an append-only list of normalized
snapshots — one per recorded sweep run — so re-anchors and CI see how
the reproduction's results and simulator performance move over time
instead of a single latest number.  Each entry records:

* ``run_id`` — short digest of (git sha, merged-sweep digest);
* ``git_sha`` / ``date`` — the commit the sweep ran at and its commit
  date (commit metadata, not wall clock, so entries stay deterministic
  for a given tree);
* ``cells`` — per-cell numeric scores distilled from the merged sweep
  document (label -> metric -> value);
* ``lines`` — physical source lines per ``src/repro/<package>``, so
  "least code" is tracked on the same curve as wall seconds;
* ``ledger`` — each workload's end-to-end medians (``run_s``,
  ``setup_s``, ``peak_rss_mb``) from the document
  ``benchmarks/ledger/run.py --out`` writes.  They are calibrated wall
  seconds on whatever machine ran them: a curve to read, never a gate
  (entries of schema 1 carry a ``simperf`` block of events/s scores
  instead, and older entries a ``derived`` block; both are kept in the
  file and no longer read).

Whether a result holds is the figure's ``Claim`` (``repro.bench``), not
a summary of this file.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Optional

from .digest import canonical_json, source_lines

TRAJECTORY_SCHEMA = 2
BEGIN_MARK = "<!-- sweep-trajectory:begin -->"
END_MARK = "<!-- sweep-trajectory:end -->"

# ledger workloads get one run_s trend-table column each, in this order
_LEDGER_COLUMNS = (
    "pingpong_16k", "pingpong_64b", "farm_lossy", "halo_pods", "sweep_interleave"
)


def _git(args: List[str]) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    value = out.stdout.strip()
    return value if out.returncode == 0 and value else None


def build_entry(
    sweep_doc: Dict[str, Any],
    ledger_doc: Optional[Dict[str, Any]] = None,
    git_sha: Optional[str] = None,
    date: Optional[str] = None,
) -> Dict[str, Any]:
    """Normalize one merged sweep document into a trajectory entry."""
    if git_sha is None:
        git_sha = _git(["rev-parse", "HEAD"]) or "unknown"
    if date is None:
        date = _git(["show", "-s", "--format=%cs", "HEAD"]) or "unknown"
    sweep_digest = hashlib.sha256(canonical_json(sweep_doc).encode()).hexdigest()
    run_id = hashlib.sha256(f"{git_sha}:{sweep_digest}".encode()).hexdigest()[:12]
    cells: Dict[str, Dict[str, Dict[str, float]]] = {}
    for cell in sweep_doc.get("cells", []):
        scores: Dict[str, Dict[str, float]] = {}
        for row in cell.get("rows", []):
            numeric = {
                key: value
                for key, value in row.get("measured", {}).items()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            }
            if numeric:
                scores[row.get("label", "?")] = numeric
        cells[cell["id"]] = scores
    entry: Dict[str, Any] = {
        "schema": TRAJECTORY_SCHEMA,
        "run_id": run_id,
        "git_sha": git_sha,
        "date": date,
        "sweep": sweep_doc.get("name", "?"),
        "scale": sweep_doc.get("scale", "?"),
        "code_version": sweep_doc.get("code_version", "?"),
        "cells": cells,
        "lines": source_lines(),
    }
    failures = sweep_doc.get("failures")
    if failures:
        # a salvaged partial run: record what was lost alongside what
        # survived, so the trajectory shows the run was degraded
        entry["failures"] = failures
    if ledger_doc is not None:
        entry["ledger"] = {
            name: {
                metric: row["value"]
                for metric, row in sorted(workload["end_to_end"].items())
            }
            for name, workload in sorted(ledger_doc["workloads"].items())
        }
    return entry


class TrajectoryError(ValueError):
    """A trajectory file exists but cannot be read as one."""


def load_trajectory(path: str) -> Dict[str, Any]:
    """The trajectory document at ``path``, or a fresh empty one when no
    file is there.  A file that cannot be read, or holds no ``entries``
    list, raises :class:`TrajectoryError`, so nothing overwrites it."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {"schema": TRAJECTORY_SCHEMA, "entries": []}
    except (OSError, ValueError) as err:
        raise TrajectoryError(f"{path}: not a readable trajectory ({err})") from err
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise TrajectoryError(f"{path}: not a trajectory (no 'entries' list)")
    return doc


def append_trajectory(path: str, entry: Dict[str, Any]) -> Dict[str, Any]:
    """Append one entry to the trajectory file (created if missing)."""
    doc = load_trajectory(path)
    doc["schema"] = TRAJECTORY_SCHEMA
    doc["entries"].append(entry)
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return doc


def render_trend_table(trajectory: Dict[str, Any], limit: int = 12) -> str:
    """Markdown trend table over the trajectory's most recent entries."""
    entries = trajectory.get("entries", [])[-limit:]
    header = ["run", "date", "git", "scale", "cells", "src lines"]
    header += [f"{name} run_s" for name in _LEDGER_COLUMNS]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for entry in entries:
        ledger = entry.get("ledger") or {}
        row = [
            entry.get("run_id", "?"),
            entry.get("date", "?"),
            str(entry.get("git_sha", "?"))[:9],
            entry.get("scale", "?"),
            str(len(entry.get("cells", {}))),
            # entries predating the lines field leave the column blank
            f"{sum(entry['lines'].values()):,}" if entry.get("lines") else "",
        ]
        for name in _LEDGER_COLUMNS:
            value = ledger.get(name, {}).get("run_s")
            row.append(f"{value:.3f}" if value is not None else "—")
        lines.append("| " + " | ".join(row) + " |")
    if not entries:
        lines.append("| _no recorded runs yet_ |" + " |" * (len(header) - 1))
    return "\n".join(lines)


def update_experiments_md(path: str, trajectory: Dict[str, Any]) -> None:
    """Rewrite the generated trend table between the EXPERIMENTS.md
    markers (the section is appended if the markers are missing)."""
    table = render_trend_table(trajectory)
    block = f"{BEGIN_MARK}\n{table}\n{END_MARK}"
    target = Path(path)
    text = target.read_text(encoding="utf-8") if target.is_file() else ""
    begin = text.find(BEGIN_MARK)
    end = text.find(END_MARK)
    if begin != -1 and end != -1 and end >= begin:
        text = text[:begin] + block + text[end + len(END_MARK):]
    else:
        if text and not text.endswith("\n"):
            text += "\n"
        text += f"\n## Perf/result trajectory (generated)\n\n{block}\n"
    target.write_text(text, encoding="utf-8")
