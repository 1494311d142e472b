"""Checks of the ledger benchmark itself.

Outside tier-1 ``testpaths`` on purpose (it spends ~40 s running the
quick suite twice)::

    python -m pytest benchmarks/ledger
"""

from __future__ import annotations

import copy
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import catalog
import compare

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN = [sys.executable, str(HERE / "run.py")]
WORKLOADS = [name for name, _why in catalog.WORKLOADS]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def quick_suites(tmp_path_factory):
    """The whole suite, ``--quick``, twice: (result doc, trace doc, stdout) each."""
    runs = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(tag)
        done = _run("--quick", "--out", str(out / "r.json"), "--trace-out", str(out / "t.json"))
        assert done.returncode == 0, done.stderr[-2000:]
        runs.append((
            json.loads((out / "r.json").read_text()),
            json.loads((out / "t.json").read_text()),
            done.stdout,
        ))
    return runs


def test_benchmark_json_is_the_catalog_and_meets_the_contract():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == catalog.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in doc[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    for row in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(row["unit"]) and row["better"] in ("lower", "higher")
    assert all(0 < row["bound"] <= 0.25 for row in doc["end_to_end"])
    setup = next(row for row in doc["end_to_end"] if row["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(row["bound"] for row in doc["end_to_end"])
    assert 1 <= doc["run_seconds"] <= 60
    # 4 + 22 x workloads runs, ~6 s of set-up probes and warm-up around each
    assert (4 + 22 * len(doc["workloads"])) * (doc["run_seconds"] + 6) < 3420


def test_layer_map_covers_every_package():
    packages = {
        path.parent.relative_to(ROOT / "src" / "repro").as_posix()
        for path in (ROOT / "src" / "repro").glob("*/__init__.py")
    } | {
        path.parent.relative_to(ROOT / "src" / "repro").as_posix()
        for path in (ROOT / "src" / "repro" / "transport").glob("*/__init__.py")
    }
    unmapped = packages - set(catalog.PACKAGE_LAYER)
    assert not unmapped, f"add {sorted(unmapped)} to catalog.PACKAGE_LAYER"
    import layers

    assert set(catalog.PACKAGE_LAYER.values()) <= {*catalog.LAYERS, layers.SHARED}
    assert layers.layer_of(str(ROOT / "src/repro/transport/sctp/association.py")) == (
        "transport.sctp"
    )
    assert layers.layer_of(str(ROOT / "src/repro/transport/base.py")) == layers.SHARED
    assert layers.layer_of(str(HERE / "run.py")) == "other"


def test_result_schema_and_names(quick_suites):
    doc, _trace, _stdout = quick_suites[0]
    assert doc["schema"] == 1 and doc["meta"]["quick"] is True
    assert list(doc["workloads"]) == WORKLOADS
    for entry in doc["workloads"].values():
        assert set(entry["end_to_end"]) == set(catalog.END_TO_END_BY_NAME)
        assert set(entry["per_layer"]) == set(catalog.PER_LAYER_BY_NAME)
        for section, declared in (
            ("end_to_end", catalog.END_TO_END_BY_NAME), ("per_layer", catalog.PER_LAYER_BY_NAME)
        ):
            for name, row in entry[section].items():
                assert NAME.fullmatch(name)
                # a difference of two timings (sweep.overhead_frac) may read below 0
                assert isinstance(row["value"], (int, float)) and math.isfinite(row["value"])
                assert row["unit"] == declared[name].unit
        assert all(entry["end_to_end"][m]["value"] > 0 for m in entry["end_to_end"])
        assert entry["failed"] == 0 and entry["failed_frac"] == 0 and entry["attempted"] > 0
        assert re.fullmatch(r"[0-9a-f]{64}", entry["virt_digest"])


def test_every_declared_metric_is_printed_and_vice_versa(quick_suites):
    _doc, _trace, stdout = quick_suites[0]
    printed = set()
    for line in stdout.splitlines():
        match = re.match(r"  ([A-Za-z0-9_.-]+)\s+[-+0-9.e]+ (\S+)", line)
        if match:
            printed.add((match.group(1), match.group(2)))
    declared = {(m.name, m.unit) for m in (*catalog.END_TO_END, *catalog.PER_LAYER)}
    assert printed == declared
    assert stdout.count("(failed_frac 0)") == 2 * len(WORKLOADS)


def test_traced_pass_attributes_every_layer(quick_suites):
    doc, trace, _stdout = quick_suites[0]
    for name in WORKLOADS:
        per_layer = doc["workloads"][name]["per_layer"]
        shares = [per_layer[f"{layer}.self_share"]["value"] for layer in catalog.LAYERS]
        assert abs(sum(shares) - 1.0) < 0.01
        assert per_layer["bench.trace_overhead"]["value"] > 1.0
        spans = trace["workloads"][name]
        assert set(spans["layers"]) == set(catalog.LAYERS)
        assert any(e["from"] == "simkernel" and e["calls"] > 0 for e in spans["edges"])
        assert len(spans["layers"]["simkernel"]["top"]) == 10
    halo = doc["workloads"]["halo_pods"]["per_layer"]
    assert halo["transport.tcp.self_share"]["value"] == 0
    assert halo["simkernel.pdes_rounds"]["value"] > 0
    sweep = doc["workloads"]["sweep_interleave"]["per_layer"]
    assert sweep["sweep.self_share"]["value"] > 0 and sweep["sweep.warm_resume_s"]["value"] > 0


def test_exact_counts_and_digests_repeat(quick_suites):
    (first, _t1, _s1), (second, _t2, _s2) = quick_suites
    for name in WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["virt_digest"] == b["virt_digest"]
        for metric in catalog.PER_LAYER:
            if metric.exact:
                assert a["per_layer"][metric.name]["value"] == (
                    b["per_layer"][metric.name]["value"]
                ), f"{name}: {metric.name} is declared exact but did not repeat"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_form_prints_the_contract_line(trace):
    done = _run("--workload", "pingpong_64b", "--seed", "3", "--seconds", "1",
                "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = catalog.PER_LAYER_BY_NAME if trace == "1" else catalog.END_TO_END_BY_NAME
    assert set(last["metrics"]) == set(declared)
    for name, row in last["metrics"].items():
        assert set(row) == {"value", "unit"} and row["unit"] == declared[name].unit


def test_starved_workload_is_counted_not_crashed():
    done = _run("--workload", "pingpong_64b", "--quick", "--trace", "0", "--limit-ns", "1000")
    assert done.returncode == 0, done.stderr[-2000:]
    assert "TimeoutError" in done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] > 0


def test_compare_verdicts(quick_suites):
    base = quick_suites[0][0]
    _lines, regressed = compare.compare(base, copy.deepcopy(base))
    assert not regressed

    slower = copy.deepcopy(base)
    slower["workloads"]["halo_pods"]["end_to_end"]["run_s"]["value"] *= 1.5
    lines, regressed = compare.compare(base, slower)
    assert regressed and any("halo_pods" in ln and "worse" in ln for ln in lines)

    failing = copy.deepcopy(base)
    failing["workloads"]["farm_lossy"]["failed_frac"] = 0.5
    lines, regressed = compare.compare(base, failing)
    assert regressed and any("ROSE" in ln for ln in lines)

    changed = copy.deepcopy(base)
    changed["workloads"]["pingpong_16k"]["virt_digest"] = "0" * 64
    changed["workloads"]["pingpong_16k"]["per_layer"]["network.packets"]["value"] += 1
    lines, regressed = compare.compare(base, changed)
    assert not regressed, "changed virtual outputs are reported, not failed"
    assert any("virt_digest changed" in ln for ln in lines)
    assert any("network.packets*" in ln for ln in lines)

    noisy = copy.deepcopy(base)
    row = noisy["workloads"]["pingpong_16k"]["end_to_end"]["run_s"]
    row.update(q1=row["value"] * 0.5, q3=row["value"] * 1.5, n=4)
    lines, _ = compare.compare(base, noisy)
    assert any("pingpong_16k" in ln and "run_s" in ln and "unresolved" in ln for ln in lines)
