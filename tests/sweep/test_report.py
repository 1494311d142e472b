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
    derive_summaries,
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


# ---------------------------------------------------------------------------
# derived summaries: SCTP/TCP ratios and loss-crossover points
# ---------------------------------------------------------------------------
PAIRED_CELLS = {
    "pingpong[protocol=sctp,size=4096,loss=0]": {"row": {"MBps": 50.0, "rtt_ms": 2.0}},
    "pingpong[protocol=tcp,size=4096,loss=0]": {"row": {"MBps": 40.0, "rtt_ms": 2.5}},
    "pingpong[protocol=sctp,size=4096,loss=0.01]": {"row": {"MBps": 30.0}},
    "pingpong[protocol=tcp,size=4096,loss=0.01]": {"row": {"MBps": 40.0}},
    # unpaired: no tcp counterpart, must be skipped
    "farm[protocol=sctp,fanout=2]": {"row": {"elapsed_s": 1.0}},
    # protocol-free: not a comparison cell at all
    "nas[kernel=IS]": {"row": {"mops": 3.0}},
}


def test_derive_summaries_ratios():
    derived = derive_summaries(PAIRED_CELLS)
    ratios = derived["sctp_tcp_ratio"]
    assert set(ratios) == {
        "pingpong[size=4096,loss=0]",
        "pingpong[size=4096,loss=0.01]",
    }
    assert ratios["pingpong[size=4096,loss=0]"] == {
        "MBps": 50.0 / 40.0,
        "rtt_ms": 2.0 / 2.5,
    }
    assert ratios["pingpong[size=4096,loss=0.01]"] == {"MBps": 30.0 / 40.0}


def test_derive_summaries_finds_loss_crossover():
    derived = derive_summaries(PAIRED_CELLS)
    # MBps ratio goes 1.25 (loss=0) -> 0.75 (loss=0.01): crosses 1.0
    crossings = derived["loss_crossover"]["pingpong[size=4096]"]
    assert crossings == [
        {
            "metric": "MBps",
            "loss_below": 0.0,
            "loss_above": 0.01,
            "ratio_below": 1.25,
            "ratio_above": 0.75,
        }
    ]


def test_derive_summaries_no_crossover_without_sign_change():
    cells = {
        "pingpong[protocol=sctp,loss=0]": {"r": {"MBps": 50.0}},
        "pingpong[protocol=tcp,loss=0]": {"r": {"MBps": 40.0}},
        "pingpong[protocol=sctp,loss=0.01]": {"r": {"MBps": 45.0}},
        "pingpong[protocol=tcp,loss=0.01]": {"r": {"MBps": 40.0}},
    }
    assert derive_summaries(cells)["loss_crossover"] == {}


def test_derive_summaries_skips_zero_denominators():
    cells = {
        "farm[protocol=sctp,loss=0]": {"r": {"elapsed_s": 1.0}},
        "farm[protocol=tcp,loss=0]": {"r": {"elapsed_s": 0.0}},
    }
    assert derive_summaries(cells)["sctp_tcp_ratio"] == {}


def test_build_entry_embeds_derived_and_table_renders_it():
    sweep_doc = {
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
    entry = build_entry(sweep_doc, git_sha="deadbeef", date="2026-08-07")
    assert entry["derived"]["sctp_tcp_ratio"] == {
        "pingpong[loss=0]": {"MBps": 1.25}
    }
    table = render_trend_table({"entries": [entry]})
    assert "sctp/tcp (med)" in table.splitlines()[0]
    assert "1.250" in table


def test_trend_table_backfills_derived_for_old_entries():
    # an entry committed before the derived field existed still gets
    # ratio columns, computed on the fly from its cells
    entry = build_entry(
        {
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
        },
        git_sha="deadbeef",
        date="2026-08-07",
    )
    del entry["derived"]
    table = render_trend_table({"entries": [entry]})
    assert "1.250" in table


def test_update_experiments_md_appends_when_markers_missing(tmp_path):
    path = tmp_path / "EXPERIMENTS.md"
    path.write_text("# doc")
    update_experiments_md(str(path), {"entries": []})
    text = path.read_text()
    assert BEGIN_MARK in text and END_MARK in text
    assert "## Perf/result trajectory" in text
