"""The output gate's table and check, on small synthetic documents.

No simulation runs here: CI's determinism job checks real
``python -m repro.bench --metrics-json`` documents against the table.
"""

import copy
import json

from repro.bench.harness import MATRICES

from . import identity


def _doc():
    def run(label, events, packets):
        return {"label": label, "metrics": {"kernel.events_processed": events, "net.packets": packets}}

    fig8 = {
        "title": "Fig. 8",
        "rows": [
            {"label": "pingpong 1B", "measured": {"sctp/tcp": 0.5}, "paper": {}, "note": ""},
            {"label": "pingpong 128K", "measured": {"sctp/tcp": 1.2}, "paper": {}, "note": ""},
        ],
        "runs": [run("rpi=tcp", 100, 40), run("rpi=sctp", 90, 30)],
    }
    chaos = {"title": "Chaos", "rows": [], "runs": [run("rpi=sctp", 7, 3)]}
    return {"schema": 1, "experiments": {"fig8": fig8, "chaos": chaos}}


def _table(doc):
    doc = copy.deepcopy(doc)  # the table must not share rows with the document
    return {name: identity.entry(figure) for name, figure in doc["experiments"].items()}


def test_table_holds_exactly_the_titled_figures():
    table = json.loads(identity.TABLE.read_text(encoding="utf-8"))
    assert set(table) == {name for name, matrix in MATRICES.items() if matrix.title}
    for name, figure in table.items():
        assert figure["rows"], name
        assert all(set(run) == {"label", "sha256", "events"} for run in figure["runs"]), name


def test_identical_documents():
    doc = _doc()
    assert identity.compare(_table(doc), doc) == []


def test_a_moved_row_is_named_with_its_values():
    doc = _doc()
    table = _table(doc)
    doc["experiments"]["fig8"]["rows"][1]["measured"]["sctp/tcp"] = 1.25
    assert identity.compare(table, doc) == [
        "fig8: row 'pingpong 128K' measured.sctp/tcp: 1.2 -> 1.25"
    ]


def test_a_changed_value_is_an_output_difference():
    doc = _doc()
    table = _table(doc)
    doc["experiments"]["fig8"]["runs"][1]["metrics"]["net.packets"] = 31
    assert identity.compare(table, doc) == ["fig8: run 1 'rpi=sctp' moved: events 90 -> 90"]
    doc["experiments"]["fig8"]["runs"][0]["metrics"]["kernel.events_processed"] = 101
    assert identity.compare(table, doc)[0] == "fig8: run 0 'rpi=tcp' moved: events 100 -> 101"


def test_absent_figures_are_skipped_and_unknown_ones_fail():
    doc = _doc()
    table = _table(doc)
    del doc["experiments"]["chaos"]
    assert identity.compare(table, doc) == []
    doc["experiments"]["fig99"] = doc["experiments"]["fig8"]
    assert identity.compare(table, doc) == [f"fig99: not in {identity.TABLE.name}"]


def test_write_rewrites_only_the_documents_figures(tmp_path, capsys):
    table_path = tmp_path / "IDENTITY.json"
    full = tmp_path / "full.json"
    full.write_text(json.dumps(_doc()))
    assert identity.main(["--write", str(full)], table_path) == 0
    written = table_path.read_bytes()
    assert identity.main(["--write", str(full)], table_path) == 0
    assert table_path.read_bytes() == written
    assert identity.main([str(full)], table_path) == 0

    moved = _doc()
    del moved["experiments"]["fig8"]
    moved["experiments"]["chaos"]["runs"][0]["metrics"]["kernel.events_processed"] = 8
    part = tmp_path / "part.json"
    part.write_text(json.dumps(moved))
    capsys.readouterr()
    assert identity.main([str(part)], table_path) == 1
    assert "chaos: run 0 'rpi=sctp' moved: events 7 -> 8" in capsys.readouterr().out
    assert identity.main(["--write", str(part)], table_path) == 0
    table = json.loads(table_path.read_text())
    assert table["fig8"] == json.loads(written)["fig8"]
    assert table["chaos"]["runs"][0]["events"] == 8
