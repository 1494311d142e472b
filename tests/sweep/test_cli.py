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
def test_run_rejects_a_supervision_limit_that_settles_every_attempt(spec, tmp_path, flags):
    """Cells are not retried, so there is no supervision limit to set:
    the retired ``--supervise`` flags are usage errors before any cell
    runs, not options silently ignored."""
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exit_:
        main(["run", spec, "--supervise", "--cache", str(cache), *flags])
    assert exit_.value.code == 2
    assert not cache.exists()


@pytest.mark.parametrize("jobs", ["0", "1"])
def test_verify_needs_two_workers_to_compare_against_serial(spec, capsys, jobs):
    assert main(["verify", spec, "--jobs", jobs]) == 2
    assert "--jobs must be >= 2" in capsys.readouterr().out
