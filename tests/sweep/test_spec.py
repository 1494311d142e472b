"""Sweep spec parsing/expansion: canonical ids, order, and every
malformed-spec edge the loader must reject before a simulation runs."""

import json

import pytest

from repro.sweep import SweepError, load_spec, spec_from_dict

PINGPONG_BLOCK = {
    "experiment": "pingpong",
    "matrix": {"protocol": ["tcp", "sctp"], "loss": [0.0, 0.01]},
    "params": {"size": 1024, "iterations": 2},
}


def _spec(blocks):
    return {"name": "t", "sweeps": blocks}


def test_matrix_expansion_order_and_ids():
    spec = spec_from_dict(_spec([PINGPONG_BLOCK]))
    assert [cell.id for cell in spec.cells] == [
        "pingpong[protocol=tcp,size=1024,loss=0,iterations=2]",
        "pingpong[protocol=tcp,size=1024,loss=0.01,iterations=2]",
        "pingpong[protocol=sctp,size=1024,loss=0,iterations=2]",
        "pingpong[protocol=sctp,size=1024,loss=0.01,iterations=2]",
    ]
    assert spec.experiments() == ["pingpong"]


def test_resolved_params_fill_free_defaults():
    spec = spec_from_dict(_spec([PINGPONG_BLOCK]))
    first = spec.cells[0]
    assert first.resolved["seed"] == 1  # default filled
    assert first.resolved["scenario"] == "none"
    assert first.resolved["size"] == 1024
    assert "seed" not in first.params  # explicit view stays as written


def test_explicit_cell_list():
    spec = spec_from_dict(
        _spec(
            [
                {
                    "experiment": "farm",
                    "cells": [
                        {"protocol": "tcp", "loss": 0.0},
                        {"protocol": "sctp", "loss": 0.02},
                    ],
                    "params": {"size_label": "short", "num_tasks": 10},
                }
            ]
        )
    )
    assert len(spec.cells) == 2
    assert spec.cells[1].resolved["loss"] == 0.02
    assert spec.cells[1].resolved["num_tasks"] == 10


def test_bare_block_is_single_cell():
    spec = spec_from_dict(
        _spec(
            [
                {
                    "experiment": "pingpong",
                    "params": {"protocol": "tcp", "size": 512, "loss": 0.0},
                }
            ]
        )
    )
    assert len(spec.cells) == 1


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda d: d.pop("name"), "name"),
        (lambda d: d.update(sweeps=[]), "non-empty 'sweeps'"),
        (lambda d: d.update(bogus=1), "unknown top-level"),
        (lambda d: d["sweeps"][0].pop("experiment"), "experiment"),
        (lambda d: d["sweeps"][0].update(experiment="nope"), "unknown experiment"),
        (lambda d: d["sweeps"][0].update(extra=1), "unknown key"),
        (
            lambda d: d["sweeps"][0]["matrix"].update(bogus=[1]),
            "unknown parameter",
        ),
        (
            lambda d: d["sweeps"][0]["matrix"].update(loss=[]),
            "empty value list",
        ),
        (
            lambda d: d["sweeps"][0].update(cells=[{"protocol": "tcp"}]),
            "not both",
        ),
        (
            lambda d: d["sweeps"][0]["params"].update(protocol="tcp"),
            "both per-cell and in 'params'",
        ),
        (
            lambda d: d["sweeps"][0]["matrix"].update(protocol=["udp"]),
            "illegal value",
        ),
        (
            lambda d: d["sweeps"][0]["matrix"].pop("protocol"),
            "missing axis",
        ),
    ],
)
def test_malformed_specs_raise(mutate, match):
    doc = json.loads(json.dumps(_spec([PINGPONG_BLOCK])))
    mutate(doc)
    with pytest.raises(SweepError, match=match):
        spec_from_dict(doc)


def test_duplicate_cell_ids_rejected():
    doc = _spec([PINGPONG_BLOCK, PINGPONG_BLOCK])
    with pytest.raises(SweepError, match="duplicate cell id"):
        spec_from_dict(doc)


def test_load_spec_json_and_missing(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_spec([PINGPONG_BLOCK])))
    assert len(load_spec(str(path)).cells) == 4
    with pytest.raises(SweepError, match="cannot read"):
        load_spec(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SweepError, match="invalid JSON"):
        load_spec(str(bad))


def test_committed_smoke_spec_shape():
    """The committed CI spec keeps its acceptance-criteria coverage."""
    spec = load_spec("benchmarks/sweep_smoke.json")
    assert len(spec.cells) >= 6
    assert len(spec.experiments()) >= 2
    protocols = {cell.resolved.get("protocol") for cell in spec.cells}
    assert protocols >= {"tcp", "sctp"}
    losses = sorted({cell.resolved.get("loss") for cell in spec.cells})
    assert len(losses) >= 2
