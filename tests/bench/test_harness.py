"""Bench harness plumbing (fast checks; the experiments themselves run
under `pytest benchmarks/`)."""

import os

from repro.bench import ExperimentRow, format_table
from repro.bench.harness import FIG8_SIZES, TABLE1_PAPER, full_scale, scaled


def test_scaled_picks_by_env(monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    assert not full_scale()
    assert scaled(10, 100) == 10
    monkeypatch.setenv("REPRO_FULL", "1")
    assert full_scale()
    assert scaled(10, 100) == 100


def test_format_table_renders_measured_and_paper():
    rows = [
        ExperimentRow(
            label="case-a",
            measured={"x": 1.5, "big": 123456.0},
            paper={"x": 2.0},
            note="scaled",
        ),
        ExperimentRow(label="case-b", measured={"y": 3}),
    ]
    text = format_table("My Table", rows)
    assert "My Table" in text
    assert "case-a" in text and "case-b" in text
    assert "paper:" in text
    assert "123,456" in text
    assert "(scaled)" in text


def test_paper_reference_values_match_the_paper():
    # Table 1 as published (§4.1.1)
    assert TABLE1_PAPER[(30 * 1024, 0.01)] == (54_779, 1_924)
    assert TABLE1_PAPER[(300 * 1024, 0.02)] == (2_825, 885)
    # Fig. 8 sweeps up to the paper's largest plotted size
    assert FIG8_SIZES[-1] == 131069


def test_fig10_11_12_reference_ratios():
    from repro.bench.harness import FIG10_PAPER, FIG12_PAPER

    # the text's claims: 10-11x short-message gap at loss (fig 10) ...
    s, t = FIG10_PAPER[("short", 0.02)]
    assert 10 < t / s < 13
    # ... 2.58x/2.7x long-message gap ...
    s, t = FIG10_PAPER[("long", 0.01)]
    assert 2.4 < t / s < 2.8
    # ... ~35% single-stream penalty at 2% loss (fig 12)
    m10, m1 = FIG12_PAPER[("short", 0.02)]
    assert 1.3 < m1 / m10 < 1.4


def test_profile_table_keeps_dataclass_inits_apart():
    """``--profile`` reads getstats() per code object: pstats keys rows by
    file:line:name, under which every generated ``__init__`` collides."""
    import cProfile
    from dataclasses import dataclass

    from repro.bench.__main__ import profile_table

    @dataclass
    class Alpha:
        left: int

    @dataclass
    class Beta:
        right: int

    profiler = cProfile.Profile()
    profiler.enable()
    for i in range(30):
        Alpha(i)
    for i in range(70):
        Beta(i)
    profiler.disable()
    rows = [line.split(None, 3) for line in profile_table(profiler, top=50).splitlines()[1:]]
    inits = {row[3]: int(row[0]) for row in rows if "__init__" in row[3]}
    assert sorted(inits.values()) == [30, 70]
    assert any("self, left" in label for label in inits)
    assert any("self, right" in label for label in inits)
