"""Bench fan-out: cell decomposition and serial/parallel parity.

CI checks a full ``--jobs 4`` metrics document against the table in
``tests/identity/IDENTITY.json``, which is written from a serial run;
these tests cover the same contract at unit scale so a parity break is
caught in seconds, not at the end of a matrix run.
"""

import os

import pytest

from repro.bench import __main__ as bench_main
from repro.bench import harness, multihoming_failover
from repro.supervise import SuperviseError, supervised_map


def test_default_cells_are_stable_and_ordered():
    first = harness.default_cells("fig8")
    second = harness.default_cells("fig8")
    assert first and first == second
    assert all(list(cell) == ["size"] for cell in first)
    assert len({cell["size"] for cell in first}) == len(first)


def test_unknown_experiment_and_cell_raise():
    with pytest.raises(KeyError):
        harness.default_cells("nope")
    with pytest.raises(KeyError):
        harness.run_sweep_cell("nope", {"size": 1})
    with pytest.raises(ValueError, match="unknown parameter"):
        harness.run_sweep_cell("fig8", {"size": 1, "no_such_param": 2})


def test_cell_union_matches_full_experiment():
    """Running a figure cell-by-cell reproduces the cell function's run."""
    ((name, rows, runs),) = bench_main.run_figures(["failover"], 1, False)
    assert name == "failover" and runs == []
    assert rows == [row.to_jsonable() for row in multihoming_failover()]


def test_parallel_matches_serial_including_metrics(tmp_path):
    """--jobs 2 merges to the exact --jobs 1 file (cell order, rows, and
    metrics snapshots)."""
    serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
    assert bench_main.main(["fig8", "--metrics-json", str(serial)]) == 0
    assert bench_main.main(
        ["fig8", "--jobs", "2", "--metrics-json", str(parallel)]
    ) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    assert b'"rows"' in serial.read_bytes()  # non-vacuous
    assert b'"runs"' in serial.read_bytes()


def test_failing_cell_reports_experiment_and_params():
    """A failing cell's id (experiment + params) and the original exception
    survive into the raised error instead of a bare multiprocessing traceback."""
    with pytest.raises(harness.CellError, match=r"pingpong\[.*size=64.*scenario=gremlins\]"):
        harness.run_cell_task(
            ("pingpong", {"protocol": "tcp", "size": 64, "loss": 0.0,
                          "scenario": "gremlins"}, False)
        )


def test_parallel_worker_crash_is_attributed():
    """The strict executor raises naming the lost task, not a hung join."""
    with pytest.raises(SuperviseError) as err:
        supervised_map(_crash_item, [1, 2], jobs=2, task_ids=["cell-a", "cell-b"])
    message = str(err.value)
    assert "task cell-b failed (1 of 2 tasks lost)" in message
    assert "exited with code 3" in message


def _crash_item(x):
    if x == 2:
        os._exit(3)  # simulate a segfault/OOM-killed worker
    return x
