"""The sweep CLI's usage errors: exit 2 before any cell runs."""

import json

import pytest

from repro.sweep.__main__ import main


@pytest.fixture
def spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "name": "tiny",
        "sweeps": [{"experiment": "failover", "params": {}}],
    }))
    return str(path)


@pytest.mark.parametrize("flags", [
    ["--max-attempts", "0"],
    ["--deadline-s", "0"],
    ["--deadline-s", "-1"],
    ["--hang-timeout-s", "0"],
])
def test_run_rejects_a_supervision_limit_that_settles_every_attempt(spec, tmp_path, capsys, flags):
    cache = tmp_path / "cache"
    assert main(["run", spec, "--supervise", "--cache", str(cache), *flags]) == 2
    assert "--supervise:" in capsys.readouterr().out
    assert not cache.exists()


@pytest.mark.parametrize("jobs", ["0", "1"])
def test_verify_needs_two_workers_to_compare_against_serial(spec, capsys, jobs):
    assert main(["verify", spec, "--jobs", jobs]) == 2
    assert "--jobs must be >= 2" in capsys.readouterr().out
