"""The CI identity report tells a changed output from a key on one side."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "identity_report.py"


@pytest.fixture(scope="module")
def identity_report():
    spec = importlib.util.spec_from_file_location("identity_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _doc(metrics):
    row = {"label": "size=1024", "measured": {"tcp": 1.5, "sctp": 1.2}}
    run = {"label": "rpi=sctp", "metrics": metrics}
    return {"experiments": {"fig8": {"rows": [row], "runs": [run]}}}


SHARED = {"net.packets.sent": 40, "transport.sctp.h0.packets_sent": 20}


def test_identical_documents(identity_report):
    text = identity_report.report(_doc(SHARED), _doc(dict(SHARED)))
    assert "vs PR base: identical\n" in text
    assert "rows identical, metrics equal" in text
    assert "only in" not in text


def test_zero_keys_on_one_side_are_listed_apart(identity_report):
    base = dict(SHARED, **{f"transport.tcp.h{i}.rto_events": 0 for i in range(12)})
    head = dict(SHARED, **{"net.dummynet.h0p0.passed_packets": 7})
    text = identity_report.report(_doc(base), _doc(head))
    assert "outputs differ" not in text and "outputs moved" not in text
    assert "identical apart from keys on one side" in text
    assert "12 keys only in base (all 0): `transport.tcp.h0.rto_events`" in text
    assert "(+2 more)" in text  # ten names shown
    assert "1 keys only in head (**not all 0**): `net.dummynet.h0p0.passed_packets`" in text


def test_a_changed_value_is_an_output_difference(identity_report):
    head = dict(SHARED, **{"net.packets.sent": 41})
    text = identity_report.report(_doc(SHARED), _doc(head))
    assert "vs PR base: outputs moved" in text
    assert "**outputs differ**" in text
    assert "rpi=sctp: `net.packets.sent`" in text
    assert "only in" not in text
