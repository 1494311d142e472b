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
  instead, kept in the file and no longer rendered);
* ``derived`` — cross-cell summaries distilled from the cells: the
  SCTP/TCP metric ratio of every protocol-paired cell, and the loss
  values where a ratio crosses 1.0 (the paper's protocol-crossover
  points).  These are *recomputed* from the cells, never measured, so
  older entries without the field render identically.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

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


def _parse_cell_id(cell_id: str) -> Tuple[str, Dict[str, str]]:
    """Split ``"exp[k=v,...]"`` into (experiment, params)."""
    if "[" not in cell_id or not cell_id.endswith("]"):
        return cell_id, {}
    experiment, _, rest = cell_id.partition("[")
    params: Dict[str, str] = {}
    for part in rest[:-1].split(","):
        key, sep, value = part.partition("=")
        if sep:
            params[key] = value
    return experiment, params


def _family_key(experiment: str, params: Dict[str, str], drop: Tuple[str, ...]) -> str:
    kept = ",".join(f"{k}={v}" for k, v in params.items() if k not in drop)
    return f"{experiment}[{kept}]"


def _cell_metrics(scores: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Flatten a cell's label->metric->value rows (first label wins)."""
    flat: Dict[str, float] = {}
    for label in sorted(scores):
        for metric, value in scores[label].items():
            flat.setdefault(metric, value)
    return flat


def derive_summaries(
    cells: Dict[str, Dict[str, Dict[str, float]]],
) -> Dict[str, Any]:
    """Cross-cell summaries: SCTP/TCP ratios and loss-crossover points.

    * ``sctp_tcp_ratio`` — for every pair of cells identical except for
      ``protocol=``, the per-metric ratio sctp/tcp, keyed by the cell id
      with the protocol param removed.
    * ``loss_crossover`` — within a ratio family identical except for
      ``loss=``, the adjacent loss values between which a metric's ratio
      crosses 1.0 — i.e. where one protocol overtakes the other, the
      quantity the paper's loss sweeps exist to locate.
    """
    pairs: Dict[str, Dict[str, Dict[str, float]]] = {}
    for cid, scores in cells.items():
        experiment, params = _parse_cell_id(cid)
        proto = params.get("protocol")
        if proto not in ("sctp", "tcp"):
            continue
        key = _family_key(experiment, params, drop=("protocol",))
        pairs.setdefault(key, {})[proto] = _cell_metrics(scores)

    ratios: Dict[str, Dict[str, float]] = {}
    for key in sorted(pairs):
        pair = pairs[key]
        if "sctp" not in pair or "tcp" not in pair:
            continue
        cell_ratios = {
            metric: sctp_value / pair["tcp"][metric]
            for metric, sctp_value in sorted(pair["sctp"].items())
            if pair["tcp"].get(metric)  # shared metric, nonzero denominator
        }
        if cell_ratios:
            ratios[key] = cell_ratios

    families: Dict[str, List[Tuple[float, Dict[str, float]]]] = {}
    for key, cell_ratios in ratios.items():
        experiment, params = _parse_cell_id(key)
        try:
            loss = float(params["loss"])
        except (KeyError, ValueError):
            continue
        family = _family_key(experiment, params, drop=("loss",))
        families.setdefault(family, []).append((loss, cell_ratios))

    crossovers: Dict[str, List[Dict[str, float]]] = {}
    for family in sorted(families):
        points = sorted(families[family])
        found = []
        for metric in sorted({m for _, r in points for m in r}):
            series = [(loss, r[metric]) for loss, r in points if metric in r]
            for (lo_loss, lo_ratio), (hi_loss, hi_ratio) in zip(series, series[1:]):
                if (lo_ratio - 1.0) * (hi_ratio - 1.0) < 0:
                    found.append(
                        {
                            "metric": metric,
                            "loss_below": lo_loss,
                            "loss_above": hi_loss,
                            "ratio_below": lo_ratio,
                            "ratio_above": hi_ratio,
                        }
                    )
        if found:
            crossovers[family] = found
    return {"sctp_tcp_ratio": ratios, "loss_crossover": crossovers}


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
        "derived": derive_summaries(cells),
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
    header = ["run", "date", "git", "scale", "cells", "src lines",
              "sctp/tcp (med)", "crossovers"]
    header += [f"{name} run_s" for name in _LEDGER_COLUMNS]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for entry in entries:
        ledger = entry.get("ledger") or {}
        # entries predating the derived field are summarized on the fly
        derived = entry.get("derived") or derive_summaries(entry.get("cells") or {})
        ratio_values = [
            value
            for cell in derived.get("sctp_tcp_ratio", {}).values()
            for value in cell.values()
        ]
        n_crossovers = sum(
            len(points) for points in derived.get("loss_crossover", {}).values()
        )
        row = [
            entry.get("run_id", "?"),
            entry.get("date", "?"),
            str(entry.get("git_sha", "?"))[:9],
            entry.get("scale", "?"),
            str(len(entry.get("cells", {}))),
            # entries predating the lines field leave the column blank
            f"{sum(entry['lines'].values()):,}" if entry.get("lines") else "",
            f"{statistics.median(ratio_values):.3f}" if ratio_values else "—",
            str(n_crossovers) if ratio_values else "—",
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
