"""Trajectory reporting: normalized entries, the ledger's end-to-end
medians, and the generated EXPERIMENTS.md trend table."""

import json
from pathlib import Path

import pytest

import repro
from repro.sweep import (
    BEGIN_MARK,
    END_MARK,
    TrajectoryError,
    append_trajectory,
    build_entry,
    load_trajectory,
    render_trend_table,
    update_experiments_md,
)
from repro.sweep.__main__ import main

SWEEP_DOC = {
    "schema": 1,
    "name": "smoke",
    "code_version": "abc",
    "scale": "scaled",
    "cells": [
        {
            "id": "pingpong[protocol=tcp]",
            "experiment": "pingpong",
            "params": {"protocol": "tcp"},
            "digest": "d1",
            "rows": [
                {
                    "label": "pingpong tcp",
                    "measured": {"MBps": 58.6, "ok": True, "note": "x"},
                    "paper": {},
                    "note": "",
                }
            ],
        }
    ],
}

# the shape benchmarks/ledger/run.py --out writes, cut to what is read
LEDGER_DOC = {
    "schema": 1,
    "workloads": {
        "pingpong_16k": {
            "end_to_end": {
                "run_s": {"value": 0.5, "q1": 0.4, "q3": 0.6, "n": 15, "unit": "s"},
                "setup_s": {"value": 0.17, "unit": "s"},
                "peak_rss_mb": {"value": 33.0, "unit": "MiB"},
            },
            "per_layer": {"simkernel.calls": {"value": 418252, "unit": "count"}},
        },
    },
}


def _entry(**kwargs):
    return build_entry(SWEEP_DOC, git_sha="deadbeef", date="2026-08-07", **kwargs)


def test_entry_is_normalized_and_numeric_only():
    entry = _entry(ledger_doc=LEDGER_DOC)
    scores = entry["cells"]["pingpong[protocol=tcp]"]["pingpong tcp"]
    assert scores == {"MBps": 58.6}  # bools and strings dropped
    assert entry["ledger"] == {
        "pingpong_16k": {"run_s": 0.5, "setup_s": 0.17, "peak_rss_mb": 33.0}
    }
    assert entry["schema"] == 2
    assert entry["git_sha"] == "deadbeef"
    assert "derived" not in entry  # a result is its figure's claim, not a summary here
    # run id is a pure function of (sha, sweep doc)
    assert entry["run_id"] == _entry()["run_id"]
    # "least code" rides along: physical .py lines per src/repro package
    bench_dir = Path(repro.__file__).parent / "bench"
    assert entry["lines"]["bench"] == sum(
        len(path.read_bytes().splitlines()) for path in bench_dir.rglob("*.py")
    )
    assert set(entry["lines"]) >= {"simkernel", "transport", "sweep", "."}


def test_append_and_load_roundtrip(tmp_path):
    path = str(tmp_path / "BENCH_trajectory.json")
    assert load_trajectory(path)["entries"] == []
    doc = append_trajectory(path, _entry(ledger_doc=LEDGER_DOC))
    assert len(doc["entries"]) == 1
    doc = append_trajectory(path, _entry(ledger_doc=LEDGER_DOC))
    assert len(load_trajectory(path)["entries"]) == 2


@pytest.mark.parametrize("damage", ["truncated", "no entries list"])
def test_report_leaves_a_trajectory_it_cannot_read_as_it_is(tmp_path, capsys, damage):
    path = tmp_path / "BENCH_trajectory.json"
    for _ in range(2):
        append_trajectory(str(path), _entry())
    whole = path.read_bytes()
    damaged = {"truncated": whole[: len(whole) // 2], "no entries list": b'{"runs": []}'}[damage]
    path.write_bytes(damaged)
    with pytest.raises(TrajectoryError):
        load_trajectory(str(path))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(SWEEP_DOC))
    argv = ["report", "--sweep", str(sweep), "--trajectory", str(path),
            "--git-sha", "deadbeef", "--date", "2026-08-07"]
    assert main(argv) == 2
    assert str(path) in capsys.readouterr().out
    assert path.read_bytes() == damaged


def test_trend_table_renders_entries():
    trajectory = {"entries": [_entry(ledger_doc=LEDGER_DOC)]}
    table = render_trend_table(trajectory)
    assert "| run |" in table.splitlines()[0]
    assert _entry()["run_id"] in table
    header, _rule, row = (line.split(" | ") for line in table.splitlines())
    assert row[header.index("pingpong_16k run_s")] == "0.500"
    assert row[header.index("halo_pods run_s")] == "—"  # not in the document
    column = header.index("src lines")
    assert row[column] == f"{sum(_entry()['lines'].values()):,}"
    # a schema-1 entry: no lines, and a simperf block that is not rendered
    old = {k: v for k, v in _entry().items() if k != "lines"}
    old["simperf"] = {"kernel_events": 0.123}
    old_row = render_trend_table({"entries": [old]}).splitlines()[2]
    assert old_row.split(" | ")[column] == "" and "0.123" not in old_row
    empty = render_trend_table({"entries": []})
    assert "no recorded runs" in empty


# an SCTP and a TCP cell at the same loss: once summarized as a ratio
RATIO_SWEEP_DOC = {
    "schema": 1,
    "name": "smoke",
    "code_version": "abc",
    "scale": "scaled",
    "cells": [
        {
            "id": "pingpong[protocol=sctp,loss=0]",
            "rows": [{"label": "s", "measured": {"MBps": 50.0}}],
        },
        {
            "id": "pingpong[protocol=tcp,loss=0]",
            "rows": [{"label": "t", "measured": {"MBps": 40.0}}],
        },
    ],
}


def test_build_entry_embeds_derived_and_table_renders_it():
    # entries keep each cell's scores and no derived summary: a result is
    # its figure's claim, and the table renders the scores it is given
    entry = build_entry(RATIO_SWEEP_DOC, git_sha="deadbeef", date="2026-08-07")
    assert "derived" not in entry
    assert entry["cells"]["pingpong[protocol=sctp,loss=0]"] == {"s": {"MBps": 50.0}}
    assert entry["cells"]["pingpong[protocol=tcp,loss=0]"] == {"t": {"MBps": 40.0}}
    table = render_trend_table({"entries": [entry]})
    assert entry["run_id"] in table
    assert "sctp/tcp (med)" not in table.splitlines()[0]
    assert "1.250" not in table


def test_trend_table_backfills_derived_for_old_entries():
    # an older entry's stored derived block is kept in the file, not read,
    # and an entry without one gets nothing computed on the fly
    entry = build_entry(RATIO_SWEEP_DOC, git_sha="deadbeef", date="2026-08-07")
    older = dict(entry, derived={"sctp_tcp_ratio": {"pingpong[loss=0]": {"MBps": 1.25}}})
    header = render_trend_table({"entries": [entry]}).splitlines()[0]
    for shown in (entry, older):
        table = render_trend_table({"entries": [shown]})
        assert table.splitlines()[0] == header
        assert "1.250" not in table
    assert "derived" not in entry
    assert older["derived"] == {"sctp_tcp_ratio": {"pingpong[loss=0]": {"MBps": 1.25}}}


def test_update_experiments_md_replaces_between_markers(tmp_path):
    path = tmp_path / "EXPERIMENTS.md"
    path.write_text(f"# header\n\n{BEGIN_MARK}\nstale\n{END_MARK}\n\n## after\n")
    update_experiments_md(str(path), {"entries": [_entry()]})
    text = path.read_text()
    assert "stale" not in text
    assert _entry()["run_id"] in text
    assert text.startswith("# header")
    assert text.rstrip().endswith("## after")
    # idempotent: markers survive the rewrite
    update_experiments_md(str(path), {"entries": [_entry()]})
    assert text == path.read_text()


def test_update_experiments_md_appends_when_markers_missing(tmp_path):
    path = tmp_path / "EXPERIMENTS.md"
    path.write_text("# doc")
    update_experiments_md(str(path), {"entries": []})
    text = path.read_text()
    assert BEGIN_MARK in text and END_MARK in text
    assert "## Perf/result trajectory" in text
