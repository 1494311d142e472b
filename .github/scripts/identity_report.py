"""Compare two ``repro.bench --metrics-json`` documents, as Markdown.

    python .github/scripts/identity_report.py BASE.json HEAD.json

Reports whether every experiment's rows are byte-identical and whether
every run's metrics are equal once the schedule-sensitive keys
(``repro.analyze.perturb.filter_schedule_sensitive``) are dropped; for a
difference it names the first keys that differ.  A key present on one
side only (a probe added or removed) is not a difference in output: it
is listed apart, per side, with a count, the first names and whether
every one of its values is 0.  Always exits 0: the report is read by a
person, since protocol fixes legitimately move outputs.
"""

import json
import sys

from repro.analyze.perturb import filter_schedule_sensitive

SHOW = 10  # differing keys listed per run


def _first_differences(base, head):
    """Sorted keys whose values differ between two flat mappings."""
    return sorted(k for k in base.keys() | head.keys() if base.get(k) != head.get(k))


def _changed(base, head):
    """Sorted keys present on both sides with different values."""
    return sorted(k for k in base.keys() & head.keys() if base[k] != head[k])


def _one_sided(side, metrics, other):
    """A note on the keys only ``metrics`` has, or None when there are none."""
    keys = sorted(metrics.keys() - other.keys())
    if not keys:
        return None
    zero = "all 0" if all(metrics[k] == 0 for k in keys) else "**not all 0**"
    return f"{len(keys)} keys only in {side} ({zero}): {_listed(keys)}"


def _listed(keys):
    more = f" (+{len(keys) - SHOW} more)" if len(keys) > SHOW else ""
    return ", ".join(f"`{k}`" for k in keys[:SHOW]) + more


def report(base, head):
    """Markdown: one bullet per experiment, the differing keys and the
    keys on one side only under it."""
    lines = []
    moved = one_sided = False
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
        notes = []
        for b_run, h_run in zip(b_runs, h_runs, strict=False):
            b_metrics = filter_schedule_sensitive(b_run["metrics"])
            h_metrics = filter_schedule_sensitive(h_run["metrics"])
            keys = _changed(b_metrics, h_metrics)
            if keys:
                diffs.append(f"{b_run['label']}: {_listed(keys)}")
            for note in (
                _one_sided("base", b_metrics, h_metrics),
                _one_sided("head", h_metrics, b_metrics),
            ):
                if note:
                    notes.append(f"{b_run['label']}: {note}")
        if diffs:
            verdict = "**outputs differ**"
        elif notes:
            verdict = "rows identical, shared metrics equal, keys only on one side"
        else:
            verdict = "rows identical, metrics equal"
        lines.append(f"- `{name}` ({len(h_runs)} runs): {verdict}")
        lines.extend(f"  - {d}" for d in diffs[:SHOW])
        lines.extend(f"  - {n}" for n in notes[:SHOW])
        moved = moved or bool(diffs)
        one_sided = one_sided or bool(notes)
    if moved:
        title = "outputs moved"
    elif one_sided:
        title = "identical apart from keys on one side"
    else:
        title = "identical"
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
