"""Runner + cache contract: digests, invalidation, resumability, and
byte-stable deterministic merging whatever order cells complete in."""

import dataclasses
import functools
import json
import os
import signal

import pytest

from repro.bench import harness
from repro.supervise import SupervisePolicy
from repro.sweep import (
    SweepCache,
    cell_digest,
    dumps_result,
    merge_cells,
    run_sweep,
    spec_from_dict,
)

TINY = {
    "name": "tiny",
    "sweeps": [
        {
            "experiment": "pingpong",
            "matrix": {"protocol": ["tcp", "sctp"]},
            "params": {"size": 512, "loss": 0.0, "iterations": 2},
        }
    ],
}


def _tiny_spec():
    return spec_from_dict(TINY)


def test_cold_run_then_warm_resume_recomputes_nothing(tmp_path):
    spec = _tiny_spec()
    cache = SweepCache(tmp_path / "cache")
    cold = run_sweep(spec, cache=cache)
    assert len(cold.executed) == 2 and not cold.cached
    warm = run_sweep(spec, cache=cache)
    assert not warm.executed and len(warm.cached) == 2
    assert dumps_result(warm.doc) == dumps_result(cold.doc)


def test_cache_clear_forces_recompute(tmp_path):
    spec = _tiny_spec()
    cache = SweepCache(tmp_path / "cache")
    cold = run_sweep(spec, cache=cache)
    assert cache.clear() == 2
    again = run_sweep(spec, cache=cache)
    assert len(again.executed) == 2 and not again.cached
    assert dumps_result(again.doc) == dumps_result(cold.doc)


def test_no_cache_run_works():
    result = run_sweep(_tiny_spec(), cache=None)
    assert len(result.executed) == 2
    assert result.doc["cells"][0]["rows"]


def test_digest_changes_with_params_code_and_scale():
    base = cell_digest("pingpong", {"size": 512}, code="c1", scale="scaled")
    assert cell_digest("pingpong", {"size": 1024}, code="c1", scale="scaled") != base
    assert cell_digest("pingpong", {"size": 512}, code="c2", scale="scaled") != base
    assert cell_digest("pingpong", {"size": 512}, code="c1", scale="full") != base
    assert cell_digest("farm", {"size": 512}, code="c1", scale="scaled") != base
    # and it is stable: same inputs, same key
    assert cell_digest("pingpong", {"size": 512}, code="c1", scale="scaled") == base


def test_config_digest_change_invalidates_cached_cell(tmp_path):
    """Editing a cell's parameters in the spec dirties exactly that cell."""
    spec = _tiny_spec()
    cache = SweepCache(tmp_path / "cache")
    run_sweep(spec, cache=cache)
    edited = json.loads(json.dumps(TINY))
    edited["sweeps"][0]["params"]["iterations"] = 3
    warm = run_sweep(spec_from_dict(edited), cache=cache)
    assert len(warm.executed) == 2  # new digests -> both cells recomputed
    mixed = json.loads(json.dumps(TINY))
    mixed["sweeps"][0]["matrix"]["protocol"] = ["tcp", "sctp"]
    both = run_sweep(spec_from_dict(mixed), cache=cache)
    assert not both.executed  # unchanged digests still hit


def test_tampered_cache_entry_is_a_miss(tmp_path):
    spec = _tiny_spec()
    cache = SweepCache(tmp_path / "cache")
    cold = run_sweep(spec, cache=cache)
    digest = cold.doc["cells"][0]["digest"]
    path = cache.path(digest)
    doc = json.loads(path.read_text())
    doc["digest"] = "0" * 64  # content no longer matches its key
    path.write_text(json.dumps(doc))
    assert cache.get(digest) is None
    path.write_text("{truncated")
    assert cache.get(digest) is None


def test_merge_is_deterministic_under_shuffled_completion():
    """merge_cells is a pure function of (spec, rows): feeding it the
    same rows mapping built in reversed/shuffled insert order yields the
    same bytes — completion order can never leak into the document."""
    spec = _tiny_spec()
    result = run_sweep(spec, cache=None)
    rows_by_digest = {
        cell["digest"]: cell["rows"] for cell in result.doc["cells"]
    }
    reversed_order = dict(reversed(list(rows_by_digest.items())))
    code = result.doc["code_version"]
    scale = result.doc["scale"]
    merged_a = merge_cells(spec, rows_by_digest, code=code, scale=scale)
    merged_b = merge_cells(spec, reversed_order, code=code, scale=scale)
    assert dumps_result(merged_a) == dumps_result(merged_b) == dumps_result(result.doc)


def test_parallel_matches_serial_bytes(tmp_path):
    spec = _tiny_spec()
    serial = run_sweep(spec, jobs=1, cache=None)
    parallel = run_sweep(spec, jobs=2, cache=SweepCache(tmp_path / "cache"))
    assert dumps_result(serial.doc) == dumps_result(parallel.doc)
    # and the parallel run's cache warms a serial resume
    warm = run_sweep(spec, jobs=1, cache=SweepCache(tmp_path / "cache"))
    assert not warm.executed


# ---------------------------------------------------------------------------
# supervision: retry, quarantine, partial-result salvage
# ---------------------------------------------------------------------------
def _misbehaving_tcp_cell(monkeypatch, action, marker=None):
    """Make TINY's tcp cell crash (``os._exit``) or hang (SIGSTOP) in its
    worker: on every attempt, or only while ``marker`` does not exist yet.

    Workers fork, so they see the patched registry entry; ``wraps`` keeps
    the runner's signature, so the cell resolves and digests as before."""
    original = harness.MATRICES["pingpong"]

    @functools.wraps(original.run)
    def run(**params):
        if params["protocol"] == "tcp" and (marker is None or not marker.exists()):
            if marker is not None:
                marker.touch()
            if action == "crash":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGSTOP)
        return original.run(**params)

    monkeypatch.setitem(
        harness.MATRICES, "pingpong", dataclasses.replace(original, run=run)
    )


def test_supervised_run_without_failures_is_byte_identical():
    spec = _tiny_spec()
    plain = run_sweep(spec, cache=None)
    supervised = run_sweep(
        spec, jobs=2, cache=None, supervise=SupervisePolicy(max_attempts=2)
    )
    assert not supervised.quarantined and not supervised.manifest
    assert "failures" not in supervised.doc
    assert dumps_result(supervised.doc) == dumps_result(plain.doc)


@pytest.mark.parametrize("action", ["crash", "hang"])
def test_crash_is_retried_and_document_survives_intact(tmp_path, monkeypatch, action):
    spec = _tiny_spec()
    plain = run_sweep(spec, cache=None)
    victim = spec.cells[0].id
    _misbehaving_tcp_cell(monkeypatch, action, marker=tmp_path / "struck")
    policy = SupervisePolicy(max_attempts=2, hang_timeout_s=1.0)
    result = run_sweep(spec, jobs=2, cache=SweepCache(tmp_path / "c"), supervise=policy)
    assert not result.quarantined
    [rec] = result.manifest
    assert rec["cell"] == victim and rec["outcome"] == "recovered"
    assert [a["outcome"] for a in rec["attempts"]] == [action, "ok"]
    assert "failures" not in result.doc  # recovered != failed
    assert dumps_result(result.doc) == dumps_result(plain.doc)


def test_quarantined_cell_is_salvaged_around(tmp_path, monkeypatch):
    spec = _tiny_spec()
    plain = run_sweep(spec, cache=None)
    victim = spec.cells[0].id
    survivor = spec.cells[1].id
    _misbehaving_tcp_cell(monkeypatch, "crash")  # every attempt dies
    cache = SweepCache(tmp_path / "c")
    result = run_sweep(
        spec, jobs=2, cache=cache, supervise=SupervisePolicy(max_attempts=2)
    )
    assert result.quarantined == [victim]
    assert result.executed == [survivor]
    # the surviving cell merged byte-identically to the unfailed run's
    [survived] = result.doc["cells"]
    [reference] = [c for c in plain.doc["cells"] if c["id"] == survivor]
    assert json.dumps(survived, sort_keys=True) == json.dumps(reference, sort_keys=True)
    # the failure manifest is embedded, attempts and all
    [failure] = result.doc["failures"]
    assert failure["cell"] == victim and failure["outcome"] == "quarantined"
    assert len(failure["attempts"]) == 2
    # the survivor's cache entry is good: a healthy resume recomputes
    # only the quarantined cell and reproduces the full document
    monkeypatch.undo()
    healed = run_sweep(spec, cache=cache)
    assert healed.executed == [victim] and healed.cached == [survivor]
    assert dumps_result(healed.doc) == dumps_result(plain.doc)


def test_corrupt_cache_entry_recovers_with_warning(tmp_path, caplog):
    spec = _tiny_spec()
    cache = SweepCache(tmp_path / "cache")
    cold = run_sweep(spec, cache=cache)
    digest = cold.doc["cells"][0]["digest"]
    cache.path(digest).write_text("z" * 40)  # torn write / bad copy
    with caplog.at_level("WARNING", logger="repro.sweep.cache"):
        warm = run_sweep(spec, cache=cache)
    assert len(warm.executed) == 1  # only the corrupted cell recomputed
    assert dumps_result(warm.doc) == dumps_result(cold.doc)
    [record] = caplog.records
    assert digest in record.getMessage()  # the warning names the entry
    # ... and the bad entry was overwritten on the way out
    again = run_sweep(spec, cache=cache)
    assert not again.executed
