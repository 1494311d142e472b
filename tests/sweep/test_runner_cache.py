"""Runner + cache contract: digests, invalidation, resumability, and
byte-stable deterministic merging whatever order cells complete in."""

import dataclasses
import functools
import json
import os
import re

import pytest

from repro.bench import harness
from repro.simkernel import Kernel
from repro.simkernel import kernel as kernel_module
from repro.supervise import SuperviseError
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
# a lost cell: named in the error, finished cells kept in the cache
# ---------------------------------------------------------------------------
def _livelock():
    """A zero-delay self-rescheduling callback: the kernel's guard raises."""
    kernel = Kernel(seed=1)

    def spin():
        kernel.post_after(0, spin)

    kernel.post_after(0, spin)
    kernel.run()


def _misbehaving_cell(monkeypatch, action, victim, marker=None):
    """Make the pingpong cells whose params match ``victim`` crash
    (``os._exit``), livelock (``hang``) or raise in their worker: on every
    run, or only while ``marker`` does not exist yet.

    Workers fork, so they see the patched registry entry; ``wraps`` keeps
    the runner's signature, so the cell resolves and digests as before."""
    original = harness.MATRICES["pingpong"]

    @functools.wraps(original.run)
    def run(**params):
        struck = all(params[key] == value for key, value in victim.items())
        if struck and (marker is None or not marker.exists()):
            if marker is not None:
                marker.touch()
            if action == "crash":
                os._exit(3)
            if action == "hang":
                _livelock()
            raise RuntimeError("planted cell failure")
        return original.run(**params)

    monkeypatch.setitem(
        harness.MATRICES, "pingpong", dataclasses.replace(original, run=run)
    )


@pytest.mark.parametrize("action", ["crash", "hang"])
def test_crash_is_retried_and_document_survives_intact(tmp_path, monkeypatch, action):
    """A cell that crashes, or livelocks until the kernel's guard raises,
    is named in the error; re-running the sweep is the retry, and the
    document equals an unfailed run's."""
    monkeypatch.setattr(kernel_module, "STALL_EVENTS", 4096)
    spec = _tiny_spec()
    plain = run_sweep(spec, cache=None)
    victim = spec.cells[0].id
    _misbehaving_cell(monkeypatch, action, {"protocol": "tcp"}, tmp_path / "struck")
    cache = SweepCache(tmp_path / "c")
    with pytest.raises(SuperviseError) as err:
        run_sweep(spec, jobs=2, cache=cache)
    message = str(err.value)
    assert f"task {victim} failed (1 of 2 tasks lost)" in message
    expected = "exited with code 3" if action == "crash" else "LivelockError"
    assert expected in message
    retried = run_sweep(spec, jobs=2, cache=cache)
    assert retried.executed == [victim]
    assert dumps_result(retried.doc) == dumps_result(plain.doc)


def test_quarantined_cell_is_salvaged_around(tmp_path, monkeypatch):
    """A cell that always crashes raises naming it; the survivor is
    already in the cache, so a healthy resume runs only the victim."""
    spec = _tiny_spec()
    plain = run_sweep(spec, cache=None)
    victim = spec.cells[0].id
    survivor = spec.cells[1].id
    _misbehaving_cell(monkeypatch, "crash", {"protocol": "tcp"})  # every run dies
    cache = SweepCache(tmp_path / "c")
    with pytest.raises(SuperviseError, match=rf"task {re.escape(victim)} failed"):
        run_sweep(spec, jobs=2, cache=cache)
    [entry] = cache.root.glob("*.json")
    assert json.loads(entry.read_text())["cell"] == survivor
    monkeypatch.undo()
    healed = run_sweep(spec, cache=cache)
    assert healed.executed == [victim] and healed.cached == [survivor]
    assert dumps_result(healed.doc) == dumps_result(plain.doc)


THREE = {
    "name": "three",
    "sweeps": [
        {
            "experiment": "pingpong",
            "matrix": {"size": [64, 128, 256]},
            "params": {"protocol": "sctp", "loss": 0.0, "iterations": 2},
        }
    ],
}


def test_serial_sweep_keeps_finished_cells_when_a_later_cell_fails(tmp_path, monkeypatch):
    """Each cell is cached as it finishes: after the third of three
    serial cells raises, a resume executes only that cell."""
    spec = spec_from_dict(THREE)
    plain = run_sweep(spec, cache=None)
    _misbehaving_cell(monkeypatch, "raise", {"size": 256})
    cache = SweepCache(tmp_path / "c")
    with pytest.raises(harness.CellError, match="planted cell failure"):
        run_sweep(spec, jobs=1, cache=cache)
    assert len(list(cache.root.glob("*.json"))) == 2
    monkeypatch.undo()
    resumed = run_sweep(spec, jobs=1, cache=cache)
    assert resumed.executed == [spec.cells[2].id]
    assert resumed.cached == [cell.id for cell in spec.cells[:2]]
    assert dumps_result(resumed.doc) == dumps_result(plain.doc)


def test_cells_with_one_digest_run_once(monkeypatch):
    """Two cells that resolve to the same computation (an explicit seed
    restating the default) run once and share its rows, cache or not."""
    spec = spec_from_dict({
        "name": "twins",
        "sweeps": [{
            "experiment": "pingpong",
            "cells": [{"protocol": "tcp"}, {"protocol": "tcp", "seed": 1}],
            "params": {"size": 512, "loss": 0.0, "iterations": 2},
        }],
    })
    first, second = spec.cells
    assert first.id != second.id and first.resolved == second.resolved
    calls = []
    original = harness.MATRICES["pingpong"]

    @functools.wraps(original.run)
    def run(**params):
        calls.append(params)
        return original.run(**params)

    monkeypatch.setitem(
        harness.MATRICES, "pingpong", dataclasses.replace(original, run=run)
    )
    result = run_sweep(spec, jobs=1, cache=None)
    assert len(calls) == 1
    assert result.executed == [first.id, second.id] and not result.cached
    one, two = result.doc["cells"]
    assert one["digest"] == two["digest"] and one["rows"] == two["rows"]


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
