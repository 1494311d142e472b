"""Figure claims: the paper's qualitative results, checked by
``python -m repro.bench`` on every figure it runs."""

import json

import pytest

from repro.bench import ExperimentRow, harness
from repro.bench import __main__ as bench_main
from repro.bench.harness import FIG9_ORDER, MATRICES


def _rows(key, by_label):
    return [ExperimentRow(label, {key: value}) for label, value in by_label.items()]


def _farm(fanout, key, ratios):
    labels = [f"farm {size} fanout={fanout} loss={loss}"
              for size in ("short", "long") for loss in ("0%", "1%", "2%")]
    return _rows(key, dict(zip(labels, ratios)))


# One hand-built row set per figure that breaks its claim, and a fragment
# of the message that must name what broke.
COUNTEREXAMPLES = {
    "fig8": (  # SCTP ahead even for 1 B messages
        _rows("sctp/tcp", {f"pingpong {size}B": 1.2 for size in (1, 4096, 98302, 131069)}),
        "TCP must win tiny messages",
    ),
    "table1": (
        _rows("sctp/tcp", {"pingpong 30K loss=1%": 1.5, "pingpong 30K loss=2%": 1.5,
                           "pingpong 300K loss=1%": 1.5, "pingpong 300K loss=2%": 0.9}),
        "SCTP must win 300K at 2% loss",
    ),
    "fig9": (  # SCTP pulls ahead on MG
        [ExperimentRow(f"NPB {k}.B", {"sctp/tcp": 1.3 if k == "MG" else 1.0, "verified": True})
         for k in FIG9_ORDER],
        "TCP must stay ahead on MG",
    ),
    "fig10": (
        _farm(1, "tcp/sctp", [1.0, 10.0, 10.0, 1.0, 2.0, 1.2]),
        "farm long fanout=1 loss=2%: TCP must degrade under loss",
    ),
    "fig11": (
        _farm(10, "tcp/sctp", [1.0, 10.0, 10.0, 1.0, 1.9, 3.0]),
        "farm long fanout=10 loss=1%: TCP must degrade under loss",
    ),
    "fig12": (  # one stream as good as ten under loss
        _farm(10, "1s/10s", [1.0, 1.05, 1.1, 1.0, 1.02, 1.08]),
        "multistreaming must help under loss",
    ),
    "failover": (
        [ExperimentRow("pingpong w/ primary-path failure", {
            "completed": True, "failover_retransmits": 5, "path_failures": 1, "recovery_s": 3.5})],
        "should recover within 2.0s",
    ),
    "interleave": (
        _rows("small_us", {"mix sctp idata=off sched=fcfs loss=0": 100.0,
                           "mix sctp idata=on sched=rr loss=0": 100.0}),
        "interleaving + rr must cut small-message latency",
    ),
    "chaos": (  # both stacks recover from the blackhole alike
        [ExperimentRow(f"{rpi} {scenario}", dict.fromkeys(
            ("elapsed_s", "recovery_s", "failovers", "rto_events", "integrity_drops"), 1))
         for rpi in ("tcp", "sctp")
         for scenario in ("bernoulli 2%", "burst", "blackhole 2s", "corrupt 2%", "dup+reorder")],
        "SCTP failover must restore delivery before TCP",
    ),
    "fig4": (
        [ExperimentRow("waitany tcp", {"B_first": 0.1, "first_wait_ms": 80.0}),
         ExperimentRow("waitany sctp", {"B_first": 0.2, "first_wait_ms": 4.0})],
        "TCP byte stream can never deliver B first",
    ),
    "crc32c": (
        [ExperimentRow("pingpong sctp 128K", {"off_MBps": 70.0, "on_MBps": 71.0})],
        "the checksum must cost throughput",
    ),
    "select": (
        _rows("tcp_selects", {f"collective storm np={n}": 300 for n in (4, 8, 12)}),
        "select() calls must grow with np",
    ),
}


def test_claim_set_exactly_for_titled_entries():
    for name, matrix in MATRICES.items():
        assert (matrix.title is None) == (matrix.claim is None), name
    for stray in ({"title": "unchecked figure"}, {"claim": lambda rows: []}):
        with pytest.raises(ValueError, match="claim if and only if"):
            harness.ExperimentMatrix((), list, **stray)


@pytest.mark.parametrize("figure", [name for name, m in MATRICES.items() if m.claim])
def test_claim_rejects_counterexample(figure):
    rows, fragment = COUNTEREXAMPLES[figure]
    failures = MATRICES[figure].claim(rows)
    assert any(fragment in message for message in failures), failures


@pytest.mark.parametrize("figure", [name for name, m in MATRICES.items() if m.claim])
def test_claim_messages_ignore_row_order(figure):
    """A claim names its rows by label: reversed rows give the same messages."""
    rows, _ = COUNTEREXAMPLES[figure]
    claim = MATRICES[figure].claim
    assert claim(rows[::-1]) == claim(rows)


def _fig8_rows(crossing_at):
    """Fig. 8 rows that hold every point check, with sctp/tcp reaching 1.0
    exactly at ``crossing_at`` bytes."""
    sizes = harness.FIG8_SIZES
    ratios = {1: 0.4, 1024: 0.6, 4096: 0.9, 98302: 1.1, 131069: 1.2}
    for size in sizes:
        if size not in ratios:
            ratios[size] = 0.95 if size < crossing_at else (1.0 if size == crossing_at else 1.05)
    return _rows("sctp/tcp", {f"pingpong {size}B": ratios[size] for size in sizes})


@pytest.mark.parametrize("crossing_at, holds", [(8192, False), (16384, True), (65536, False)])
def test_fig8_claim_pins_the_crossover(crossing_at, holds):
    failures = MATRICES["fig8"].claim(_fig8_rows(crossing_at))
    assert harness.fig8_crossover(
        {int(r.label.split()[1][:-1]): r.measured["sctp/tcp"] for r in _fig8_rows(crossing_at)}
    ) == crossing_at
    if holds:
        assert failures == []
    else:
        assert len(failures) == 1 and "must cross 1.0 within 11-44 KiB" in failures[0]
    # interpolated between the measured sizes around the crossing
    assert harness.fig8_crossover({8192: 0.9, 16384: 1.1}) == pytest.approx(12288)


def _figure(name, failures):
    return harness.ExperimentMatrix(
        (), lambda: [ExperimentRow(name, {"value": 1.0})],
        title=f"{name} figure", claim=lambda rows: failures,
    )


def test_failed_claim_exits_1_after_running_everything(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(MATRICES, "broken", _figure("broken", ["the planted check broke"]))
    monkeypatch.setitem(MATRICES, "sound", _figure("sound", []))
    out = tmp_path / "m.json"
    assert bench_main.main(["broken", "sound", "--metrics-json", str(out)]) == 1
    stdout = capsys.readouterr().out
    assert "CLAIM FAILED broken: the planted check broke" in stdout
    assert "CLAIM FAILED sound" not in stdout
    # the later figure still ran, and the document was still written
    assert stdout.index("CLAIM FAILED broken") < stdout.index("== sound figure ==")
    doc = json.loads(out.read_text())
    assert list(doc["experiments"]) == ["broken", "sound"]
    assert doc["experiments"]["sound"]["rows"][0]["label"] == "sound"
