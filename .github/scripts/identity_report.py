"""Compare two ``repro.bench --metrics-json`` documents, as Markdown.

    python .github/scripts/identity_report.py BASE.json HEAD.json

Reports whether every experiment's rows are byte-identical and whether
every run's metrics are equal once the schedule-sensitive keys
(``repro.analyze.perturb.filter_schedule_sensitive``) are dropped; for a
difference it names the first keys that differ.  Always exits 0: the
report is read by a person, since protocol fixes legitimately move
outputs.
"""

import json
import sys

from repro.analyze.perturb import filter_schedule_sensitive

SHOW = 10  # differing keys listed per run


def _first_differences(base, head):
    """Sorted keys whose values differ between two flat mappings."""
    return sorted(k for k in base.keys() | head.keys() if base.get(k) != head.get(k))


def _listed(keys):
    more = f" (+{len(keys) - SHOW} more)" if len(keys) > SHOW else ""
    return ", ".join(f"`{k}`" for k in keys[:SHOW]) + more


def report(base, head):
    """Markdown: one bullet per experiment, the differing keys under it."""
    lines = []
    moved = False
    experiments = base["experiments"].keys() | head["experiments"].keys()
    for name in sorted(experiments):
        b, h = base["experiments"].get(name), head["experiments"].get(name)
        if b is None or h is None:
            lines.append(f"- `{name}`: **only in {'head' if b is None else 'base'}**")
            moved = True
            continue
        diffs = []
        b_rows = {row["label"]: json.dumps(row, sort_keys=True) for row in b["rows"]}
        h_rows = {row["label"]: json.dumps(row, sort_keys=True) for row in h["rows"]}
        rows = _first_differences(b_rows, h_rows)
        if rows:
            diffs.append(f"rows: {_listed(rows)}")
        b_runs, h_runs = b.get("runs", []), h.get("runs", [])
        if len(b_runs) != len(h_runs):
            diffs.append(f"run count {len(b_runs)} vs {len(h_runs)}")
        for b_run, h_run in zip(b_runs, h_runs, strict=False):
            keys = _first_differences(
                filter_schedule_sensitive(b_run["metrics"]),
                filter_schedule_sensitive(h_run["metrics"]),
            )
            if keys:
                diffs.append(f"{b_run['label']}: {_listed(keys)}")
        verdict = "**outputs differ**" if diffs else "rows identical, metrics equal"
        lines.append(f"- `{name}` ({len(h_runs)} runs): {verdict}")
        lines.extend(f"  - {d}" for d in diffs[:SHOW])
        moved = moved or bool(diffs)
    title = "outputs moved" if moved else "identical"
    return "\n".join([f"### Cross-commit identity vs PR base: {title}", "", *lines])


def main(argv):
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        head = json.load(f)
    print(report(base, head))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
