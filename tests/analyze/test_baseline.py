"""Baseline lifecycle: fingerprints, suppression, stale-entry reporting."""

import json

import pytest

from repro.analyze.baseline import (
    BASELINE_VERSION,
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.analyze.callgraph import Finding


def finding(rule="AN201", line=10, source="time.time() (a.py)", sink="x"):
    return Finding(
        rule=rule,
        path="src/app/a.py",
        line=line,
        col=1,
        function="app.a.f",
        source=source,
        sink=sink,
        message="m",
        trace=("source: ...", "sink: ..."),
    )


def test_fingerprint_is_line_insensitive_but_identity_sensitive():
    assert fingerprint(finding(line=10)) == fingerprint(finding(line=99))
    assert fingerprint(finding()) != fingerprint(finding(rule="AN202"))
    assert fingerprint(finding()) != fingerprint(finding(sink="y"))


def test_roundtrip_suppresses_known_and_reports_stale(tmp_path):
    path = tmp_path / "base.json"
    known = finding()
    write_baseline([known], str(path))
    base = load_baseline(str(path))

    # the recorded finding rides, even after drifting to another line
    new, unused = apply_baseline([finding(line=42)], base)
    assert new == [] and unused == []

    # an unrecorded finding is new; a stale entry is reported
    other = finding(rule="AN202")
    new, unused = apply_baseline([other], base)
    assert new == [other]
    [stale] = unused
    assert "AN201" in stale and "app.a.f" in stale


def test_missing_baseline_means_everything_is_new(tmp_path):
    base = load_baseline(str(tmp_path / "absent.json"))
    new, unused = apply_baseline([finding()], base)
    assert len(new) == 1 and unused == []


def test_version_mismatch_is_loud(tmp_path):
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"version": BASELINE_VERSION + 1, "entries": []}))
    with pytest.raises(ValueError, match="version"):
        load_baseline(str(path))


def test_baseline_file_is_stable_and_deduped(tmp_path):
    path = tmp_path / "base.json"
    write_baseline([finding(line=10), finding(line=99)], str(path))
    doc = json.loads(path.read_text())
    assert len(doc["entries"]) == 1  # same fingerprint, one entry
    first = path.read_text()
    write_baseline([finding(line=99), finding(line=10)], str(path))
    assert path.read_text() == first  # order of input must not matter


def test_committed_baseline_entries_all_have_notes():
    """Every accepted finding must say *why* it is accepted."""
    base = load_baseline("ANALYZE_baseline.json")
    assert base, "committed baseline should not be empty"
    for entry in base.values():
        assert entry["note"].strip(), f"missing note: {entry['fingerprint']}"
