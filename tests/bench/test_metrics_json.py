"""The bench harness's --metrics-json mode: determinism + document shape."""

import json

from repro.bench import ExperimentRow, harness
from repro.bench import __main__ as bench_main
from repro.core.world import run_app
from repro.metrics import MetricsCollector


async def _tiny(comm):
    if comm.rank == 0:
        await comm.send(b"z" * 2048, dest=1)
    else:
        await comm.recv(source=0)
    return comm.rank


def _tiny_experiment(seed: int = 5):
    result = run_app(_tiny, n_procs=2, rpi="sctp", seed=seed)
    return [
        ExperimentRow(
            label="tiny exchange",
            measured={"duration_s": result.duration_ns / 1e9},
            paper={"shape": "n/a"},
        )
    ]


TINY = harness.ExperimentMatrix(
    (), _tiny_experiment, title="Tiny exchange", claim=lambda rows: []
)


def test_same_seed_runs_serialise_byte_identically():
    def one():
        with MetricsCollector() as col:
            _tiny_experiment()
        return json.dumps(col.runs, sort_keys=True, indent=2)

    assert one() == one()


def test_row_to_jsonable_round_trips():
    row = _tiny_experiment()[0]
    doc = row.to_jsonable()
    json.dumps(doc)  # stock encoder, no numpy leakage
    assert doc["label"] == "tiny exchange"
    assert isinstance(doc["measured"]["duration_s"], float)


def test_cli_writes_metrics_json(tmp_path, monkeypatch, capsys):
    out = tmp_path / "m.json"
    monkeypatch.setitem(harness.MATRICES, "tiny", TINY)
    rc = bench_main.main(["tiny", "--metrics-json", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    exp = doc["experiments"]["tiny"]
    assert exp["title"] == "Tiny exchange"
    assert len(exp["rows"]) == 1
    assert len(exp["runs"]) == 1
    run = exp["runs"][0]
    assert "rpi=sctp" in run["label"]
    assert run["metrics"]["transport.sctp.node1.messages_delivered"] >= 1
    # wall-clock time is printed but never serialised
    assert "wall" in capsys.readouterr().out
    assert "wall" not in out.read_text()


def test_cli_without_flag_collects_nothing(monkeypatch):
    monkeypatch.setitem(harness.MATRICES, "tiny", TINY)
    assert bench_main.main(["tiny"]) == 0


def test_cli_rejects_unknown_experiment():
    assert bench_main.main(["nonesuch"]) == 2
