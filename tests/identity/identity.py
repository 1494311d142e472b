"""The output gate: every figure's rows and runs against ``IDENTITY.json``.

``IDENTITY.json`` beside this file holds, for every titled figure of
``repro.bench.harness.MATRICES`` at its default cells and demo scale,
each result row verbatim and, for each world run in order, its label,
the sha256 of its canonical metrics snapshot and its
``kernel.events_processed``.  It is written from a serial run::

    PYTHONPATH=src python -m repro.bench all --metrics-json all.json
    PYTHONPATH=src python tests/identity/identity.py all.json          # check
    PYTHONPATH=src python tests/identity/identity.py --write all.json  # re-pin

The check reads a ``python -m repro.bench --metrics-json`` document,
compares each figure in it with the table and exits 1 naming every
moved row (old -> new values) and every moved run (index, label, events
old -> new).  A figure the table lacks fails; a figure the document
lacks is skipped, so a run of a few figures checks those.  ``--write``
rewrites the entries of the figures the document holds and keeps the
rest.  The document's bytes do not depend on ``--jobs`` or on
``REPRO_SANITIZE``, so one table gates the serial, forked and armed runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

from repro.sweep.digest import canonical_json

TABLE = Path(__file__).resolve().with_name("IDENTITY.json")


def entry(figure: Dict[str, Any]) -> Dict[str, Any]:
    """A figure of a metrics document as the table holds it."""
    return {
        "rows": figure["rows"],
        "runs": [
            {
                "label": run["label"],
                "sha256": hashlib.sha256(canonical_json(run["metrics"]).encode()).hexdigest(),
                "events": run["metrics"].get("kernel.events_processed"),
            }
            for run in figure["runs"]
        ],
    }


def _flat(value: Any, prefix: str = "") -> Dict[str, str]:
    """Dotted key -> canonical JSON of each leaf (so NaN equals NaN)."""
    if isinstance(value, dict) and value:
        flat: Dict[str, str] = {}
        for key, inner in value.items():
            flat.update(_flat(inner, f"{prefix}.{key}" if prefix else str(key)))
        return flat
    return {prefix: canonical_json(value)}


def _row_moves(name: str, old: List[dict], new: List[dict]) -> List[str]:
    old_rows = {row["label"]: row for row in old}
    new_rows = {row["label"]: row for row in new}
    lines = []
    for label in old_rows.keys() - new_rows.keys():
        lines.append(f"{name}: row {label!r} is gone")
    for label in new_rows.keys() - old_rows.keys():
        lines.append(f"{name}: row {label!r} is new")
    for label in old_rows.keys() & new_rows.keys():
        was, now = _flat(old_rows[label]), _flat(new_rows[label])
        for key in sorted(was.keys() | now.keys()):
            if was.get(key) != now.get(key):
                lines.append(
                    f"{name}: row {label!r} {key}: {was.get(key, '-')} -> {now.get(key, '-')}"
                )
    if not lines and [r["label"] for r in old] != [r["label"] for r in new]:
        lines.append(f"{name}: rows reordered")
    return sorted(lines)


def _run_moves(name: str, old: List[dict], new: List[dict]) -> List[str]:
    lines = []
    for index in range(max(len(old), len(new))):
        was = old[index] if index < len(old) else None
        now = new[index] if index < len(new) else None
        if was == now:
            continue
        if was is None or now is None:
            side, run = ("new", now) if was is None else ("gone", was)
            lines.append(f"{name}: run {index} {run['label']!r} is {side}")
            continue
        label = repr(now["label"])
        if was["label"] != now["label"]:
            label = f"{was['label']!r} -> {label}"
        lines.append(f"{name}: run {index} {label} moved: events {was['events']} -> {now['events']}")
    return lines


def compare(table: Dict[str, Any], doc: Dict[str, Any]) -> List[str]:
    """One line per moved row or run of each figure in ``doc``; empty
    when every figure in it matches the table."""
    lines = []
    for name, figure in doc["experiments"].items():
        if name not in table:
            lines.append(f"{name}: not in {TABLE.name}")
            continue
        now = entry(figure)
        lines += _row_moves(name, table[name]["rows"], now["rows"])
        lines += _run_moves(name, table[name]["runs"], now["runs"])
    return lines


def main(argv: List[str], table_path: Path = TABLE) -> int:
    parser = argparse.ArgumentParser(
        prog="identity.py", description="Check a repro.bench metrics document against the table."
    )
    parser.add_argument("doc", help="a python -m repro.bench --metrics-json document")
    parser.add_argument(
        "--write", action="store_true", help="rewrite the table's entries of the document's figures"
    )
    args = parser.parse_args(argv)
    doc = json.loads(Path(args.doc).read_text(encoding="utf-8"))
    table = json.loads(table_path.read_text(encoding="utf-8")) if table_path.is_file() else {}
    moves = compare(table, doc)
    for line in moves:
        print(line)
    names = ", ".join(doc["experiments"])
    if args.write:
        table.update((name, entry(figure)) for name, figure in doc["experiments"].items())
        table_path.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        print(f"{table_path.name}: wrote {names}")
        return 0
    rows = sum(len(figure["rows"]) for figure in doc["experiments"].values())
    runs = sum(len(figure["runs"]) for figure in doc["experiments"].values())
    verdict = f"{len(moves)} moved" if moves else "identical"
    print(f"{names}: {rows} rows, {runs} runs against {table_path.name}: {verdict}")
    return 1 if moves else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
