"""The experiment registry: a figure's default cells are frozen, every
cell is addressed as (experiment, params), and the free parameters are
whatever the runner's signature says."""

import inspect

import pytest

from repro.bench import harness

_FARM_CELLS = [
    {"size_label": size_label, "loss": loss}
    for size_label in ("short", "long")
    for loss in (0.0, 0.01, 0.02)
]

# the figures' cells, in the order a run merges them; a change here
# reorders every --metrics-json document and committed transcript
DEFAULT_CELLS = {
    "fig8": [
        {"size": size}
        for size in (1, 1024, 4096, 8192, 16384, 22528, 32768, 65536, 98302, 131069)
    ],
    "table1": [
        {"size": 30720, "loss": 0.01}, {"size": 30720, "loss": 0.02},
        {"size": 307200, "loss": 0.01}, {"size": 307200, "loss": 0.02},
    ],
    "fig9": [{"kernel": k} for k in ("LU", "SP", "EP", "CG", "BT", "MG", "IS")],
    "fig10": _FARM_CELLS,
    "fig11": _FARM_CELLS,
    "fig12": _FARM_CELLS,
    "failover": [{}],
    "interleave": [
        {"protocol": "sctp", "interleaving": "off", "scheduler": "fcfs"},
        {"protocol": "sctp", "interleaving": "off", "scheduler": "rr"},
        {"protocol": "sctp", "interleaving": "on", "scheduler": "fcfs"},
        {"protocol": "sctp", "interleaving": "on", "scheduler": "rr"},
    ],
    "chaos": [{"rpi": "tcp"}, {"rpi": "sctp"}],
    "fig4": [{"rpi": "tcp"}, {"rpi": "sctp"}],
    "crc32c": [{}],
    "select": [{"n_procs": n} for n in (4, 8, 12)],
}

# resolve_sweep_params() of each entry's first default cell.  Sweep
# digests hash these mappings and result documents print them, and the
# free parameters come from the runner signatures, so nothing but this
# pin would notice a renamed, reordered or re-defaulted keyword.
GOLDEN_RESOLVED = {
    "fig8": [("size", 1), ("seed", 1), ("iterations", None)],
    "table1": [("size", 30720), ("loss", 0.01), ("seeds", (1, 2, 3, 4, 5))],
    "fig9": [("kernel", "LU"), ("cls", "B"), ("seed", 1)],
    "fig10": [("size_label", "short"), ("loss", 0.0), ("seed", 1)],
    "fig11": [("size_label", "short"), ("loss", 0.0), ("seed", 1)],
    "fig12": [("size_label", "short"), ("loss", 0.0), ("seeds", (1, 2, 3))],
    "failover": [("seed", 1)],
    "chaos": [("rpi", "tcp"), ("seed", 1)],
    "fig4": [("rpi", "tcp"), ("seed", 2)],
    "crc32c": [("seed", 1)],
    "select": [("n_procs", 4), ("seed", 1)],
    "pingpong": [
        ("protocol", "tcp"), ("size", 1024), ("loss", 0.0), ("seed", 1),
        ("iterations", None), ("scenario", "none"), ("interleaving", "off"),
        ("scheduler", "fcfs"),
    ],
    "interleave": [
        ("protocol", "sctp"), ("interleaving", "off"), ("scheduler", "fcfs"),
        ("loss", 0.0), ("seed", 1), ("rounds", None), ("bulk_kib", 128),
        ("small_bytes", 1024), ("bulks_per_round", 1),
    ],
    "farm": [
        ("protocol", "tcp"), ("size_label", "short"), ("loss", 0.0),
        ("fanout", 1), ("seed", 1), ("num_streams", 10), ("num_tasks", None),
        ("scenario", "none"), ("interleaving", "off"), ("scheduler", "fcfs"),
    ],
}


def _axis_names(name):
    return [axis.name for axis in harness.MATRICES[name].axes]


def test_default_cells_of_every_figure_are_frozen():
    figures = [name for name, m in harness.MATRICES.items() if m.title is not None]
    assert figures == list(DEFAULT_CELLS)  # also the order ``all`` runs them
    for name, cells in DEFAULT_CELLS.items():
        assert harness.default_cells(name) == cells, name
        # key order is the axis order: it shapes labels and task ids
        for got, want in zip(harness.default_cells(name), cells):
            assert list(got) == list(want) == _axis_names(name)


def test_every_experiment_is_sweep_addressable():
    for name in harness.MATRICES:
        for cell in harness.default_cells(name):
            assert harness.resolve_sweep_params(name, cell), name


def test_resolved_params_match_the_golden_mappings():
    assert set(GOLDEN_RESOLVED) == set(harness.MATRICES)
    for name, golden in GOLDEN_RESOLVED.items():
        resolved = harness.resolve_sweep_params(name, harness.default_cells(name)[0])
        assert list(resolved.items()) == golden, name


def test_runner_signatures_cover_axes_and_free_exactly():
    """Every runner parameter is an axis or has a default (so is free)."""
    for name, matrix in harness.MATRICES.items():
        params = list(inspect.signature(matrix.run).parameters)
        axes = _axis_names(name)
        free = [key for key, _default in matrix.free]
        assert sorted(params) == sorted(axes + free), name


def test_resolve_fills_defaults_in_axis_then_free_order():
    resolved = harness.resolve_sweep_params(
        "pingpong", {"loss": "0.01", "protocol": "tcp", "size": "512"}
    )
    assert list(resolved) == [
        "protocol", "size", "loss", "seed", "iterations", "scenario",
        "interleaving", "scheduler",
    ]
    assert resolved["size"] == 512 and resolved["loss"] == 0.01  # coerced
    assert resolved["seed"] == 1


def test_resolve_converts_json_lists_to_tuples():
    resolved = harness.resolve_sweep_params(
        "table1", {"size": 30720, "loss": 0.01, "seeds": [1, 2]}
    )
    assert resolved["seeds"] == (1, 2)


def test_resolve_rejects_unknown_and_illegal():
    with pytest.raises(KeyError):
        harness.resolve_sweep_params("nope", {})
    with pytest.raises(ValueError, match="unknown parameter"):
        harness.resolve_sweep_params("fig8", {"size": 1, "bogus": 2})
    with pytest.raises(ValueError, match="missing axis"):
        harness.resolve_sweep_params("fig8", {})
    with pytest.raises(ValueError, match="illegal value"):
        harness.resolve_sweep_params(
            "farm", {"protocol": "tcp", "size_label": "huge", "loss": 0.0}
        )
    with pytest.raises(ValueError, match="bad value"):
        harness.resolve_sweep_params("fig8", {"size": "not-a-number"})


def test_fault_scenario_axis():
    clean = harness.run_sweep_cell(
        "pingpong", {"protocol": "tcp", "size": 4096, "loss": 0.0, "iterations": 4}
    )
    faulty = harness.run_sweep_cell(
        "pingpong",
        {
            "protocol": "tcp",
            "size": 4096,
            "loss": 0.0,
            "iterations": 4,
            "scenario": "bernoulli2",
        },
    )
    assert faulty[0].measured["MBps"] < clean[0].measured["MBps"]
    assert "bernoulli2" in faulty[0].label
    with pytest.raises(ValueError, match="unknown fault scenario"):
        harness.run_sweep_cell(
            "pingpong",
            {"protocol": "tcp", "size": 4096, "loss": 0.0, "scenario": "gremlins"},
        )
