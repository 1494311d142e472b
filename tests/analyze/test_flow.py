"""Interprocedural taint + fork-purity: planted leaks, traces, the CLI."""

import inspect
import json

import pytest

from repro.analyze.callgraph import RULES, Program
from repro.analyze.ci import report_json, run_rules, suppress
from repro.analyze.flow import SCHED_SINK_METHODS


def program(**sources):
    return Program.from_sources(
        {f"app.{name}": (f"src/app/{name}.py", text) for name, text in sources.items()}
    )


def analyze_program(p):
    """The whole-program findings only; the call-site rules that fire on
    the same planted sources are test_lint's."""
    return [f for f in suppress(p, run_rules(p), {}).findings if f.function]


def analyze_tree(root):
    return analyze_program(Program.load(root))


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# determinism taint (AN2xx)
# ---------------------------------------------------------------------------
def test_acceptance_wall_clock_laundered_through_two_helpers_into_packet():
    """ISSUE acceptance: a wall-clock value laundered through two helper
    calls into a packet field must be detected, with the full trace."""
    p = program(
        clock=(
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
        wrap=(
            "from .clock import stamp\n"
            "def tag():\n"
            "    return stamp() * 1000\n"
        ),
        net=(
            "from .wrap import tag\n"
            "class Packet:\n"
            "    pass\n"
            "def send(pkt):\n"
            "    pkt.payload = tag()\n"
        ),
    )
    findings = analyze_program(p)
    assert rules_of(findings) == ["AN201"]
    [f] = findings
    assert f.path == "src/app/net.py"
    assert "time.time()" in f.source
    assert ".payload" in f.sink
    trace = "\n".join(f.trace)
    assert "source: time.time()" in trace and "clock.py" in trace
    assert "stamp" in trace and "tag" in trace  # both helpers appear
    assert "sink: store to .payload" in trace


def test_taint_through_call_argument_into_kernel_schedule():
    p = program(
        main=(
            "import time\n"
            "def jitter():\n"
            "    return time.monotonic()\n"
            "def schedule(kernel):\n"
            "    kernel.call_after(jitter(), print)\n"
        ),
    )
    findings = analyze_program(p)
    assert "AN201" in rules_of(findings)
    [f] = [x for x in findings if x.rule == "AN201"]
    assert "kernel scheduling argument" in f.sink


@pytest.mark.parametrize(
    "call",
    [
        "self.t.restart(int(time.time()))",
        "kernel.sleep(int(time.time()))",
        "kernel.timer(self.fire, time.time())",
    ],
)
def test_timer_restart_sleep_and_timer_args_are_scheduling_sinks(call):
    """Since PR 13 every transport timer is armed through
    ``kernel.timer`` + ``restart(delay)``: those are the sinks that matter."""
    p = program(
        main=f"import time\nclass C:\n    def arm(self, kernel):\n        {call}\n"
    )
    [f] = analyze_program(p)
    assert f.rule == "AN201" and "kernel scheduling argument" in f.sink
    assert f.trace[0].startswith("source: time.time()")
    assert f.trace[-1].startswith("sink:")


def test_external_sleep_is_not_a_kernel_sink():
    p = program(main="import time\ndef nap():\n    time.sleep(time.monotonic())\n")
    assert analyze_program(p) == []


def test_sink_table_names_the_kernels_scheduling_surface():
    """Pins the table to the code: any public Kernel / RestartableTimer
    method taking a ``when`` or ``delay`` first is a scheduling sink."""
    from repro.simkernel.kernel import Kernel, RestartableTimer

    for cls in (Kernel, RestartableTimer):
        for name, fn in inspect.getmembers(cls, inspect.isfunction):
            params = list(inspect.signature(fn).parameters)[1:2]
            if not name.startswith("_") and params and params[0] in ("when", "delay"):
                assert name in SCHED_SINK_METHODS, f"{cls.__name__}.{name}"


def test_taint_through_parameter_summary():
    """A helper that sinks its *parameter* taints all its callers' args."""
    p = program(
        main=(
            "import os\n"
            "def record(metric, value):\n"
            "    metric.observe(value)\n"
            "def run(metric):\n"
            "    record(metric, os.getpid())\n"
        ),
    )
    findings = analyze_program(p)
    assert rules_of(findings) == ["AN203"]
    assert "metrics value" in findings[0].sink


def test_env_read_through_ternary_reaches_digest():
    """The REPRO_FULL pattern: env read selects a string via a ternary,
    which flows two calls deep into a cache-digest argument."""
    p = program(
        scale=(
            "import os\n"
            "def full():\n"
            "    return os.environ.get('FULL', '') == '1'\n"
            "def label():\n"
            "    return 'full' if full() else 'smoke'\n"
        ),
        cache=(
            "from .scale import label\n"
            "def cell_digest(experiment, scale):\n"
            "    return (experiment, scale)\n"
            "def key(experiment):\n"
            "    return cell_digest(experiment, label())\n"
        ),
    )
    findings = analyze_program(p)
    assert "AN205" in rules_of(findings)


def test_untainted_flow_is_clean_and_seeded_rng_is_clean():
    p = program(
        main=(
            "import random\n"
            "def send(pkt, n):\n"
            "    r = random.Random(7).random()\n"
            "    pkt.payload = n + r\n"
        ),
    )
    assert analyze_program(p) == []


def test_wall_clock_not_reaching_a_sink_is_not_reported():
    """Flow analysis only fires on source->sink; a logged timestamp that
    stays out of the simulation is the per-line lint's business."""
    p = program(
        main=(
            "import time\n"
            "def log():\n"
            "    print(time.time())\n"
        ),
    )
    assert analyze_program(p) == []


def test_allow_comment_at_sink_line_suppresses():
    p = program(
        main=(
            "import time\n"
            "def send(pkt):\n"
            "    pkt.payload = time.time()  # repro: allow[AN201]\n"
        ),
    )
    assert analyze_program(p) == []


# ---------------------------------------------------------------------------
# fork purity (AN3xx)
# ---------------------------------------------------------------------------
FORK_PRELUDE = (
    "import multiprocessing\n"
    "def launch(conn):\n"
    "    p = multiprocessing.Process(target=_worker, args=(conn,))\n"
    "    p.start()\n"
)


def test_acceptance_shard_worker_global_mutation_detected_with_chain():
    """ISSUE acceptance: a shard worker mutating a module global through
    a helper must be detected, with the entry chain in the trace."""
    p = program(
        work=(
            FORK_PRELUDE
            + "_cache = {}\n"
            "def _worker(conn):\n"
            "    tally(conn)\n"
            "def tally(conn):\n"
            "    _cache['n'] = 1\n"
        ),
    )
    findings = analyze_program(p)
    assert rules_of(findings) == ["AN301"]
    [f] = findings
    assert f.source == "_cache"
    assert "_worker" in "\n".join(f.trace)  # the fork entry chain
    assert "tally" in "\n".join(f.trace)


def test_global_rebind_and_container_method_mutation_flagged():
    p = program(
        work=(
            FORK_PRELUDE
            + "_count = 0\n"
            "_items = []\n"
            "def _worker(conn):\n"
            "    global _count\n"
            "    _count = 1\n"
            "    _items.append(conn)\n"
        ),
    )
    assert rules_of(analyze_program(p)) == ["AN301", "AN301"]


def test_closure_captured_mutation_in_nested_worker_flagged():
    p = program(
        work=(
            FORK_PRELUDE
            + "def _worker(conn):\n"
            "    seen = []\n"
            "    def step():\n"
            "        seen.append(1)\n"
            "    step()\n"
            "    conn.send(seen)\n"
        ),
    )
    findings = analyze_program(p)
    assert "AN302" in rules_of(findings)
    [f] = [x for x in findings if x.rule == "AN302"]
    assert f.source == "seen"


def test_signal_handler_in_fork_reachable_code_flagged():
    p = program(
        work=(
            FORK_PRELUDE
            + "import signal\n"
            "def _worker(conn):\n"
            "    signal.signal(signal.SIGTERM, print)\n"
        ),
    )
    assert rules_of(analyze_program(p)) == ["AN303"]


def test_lambda_target_capture_flagged_as_unpicklable():
    p = program(
        work=(
            "import multiprocessing\n"
            "def launch(conn):\n"
            "    p = multiprocessing.Process(target=lambda: conn.send(1))\n"
            "    p.start()\n"
        ),
    )
    assert rules_of(analyze_program(p)) == ["AN304"]


def test_local_mutation_in_worker_is_clean():
    p = program(
        work=(
            FORK_PRELUDE
            + "def _worker(conn):\n"
            "    items = []\n"
            "    items.append(1)\n"
            "    conn.send(items)\n"
        ),
    )
    assert analyze_program(p) == []


def test_global_mutation_outside_fork_reachable_code_is_clean():
    """Purity is scoped to fork-reachable functions, not the whole tree."""
    p = program(
        work=(
            FORK_PRELUDE
            + "_memo = {}\n"
            "def _worker(conn):\n"
            "    conn.send(1)\n"
            "def parent_only():\n"
            "    _memo['x'] = 1\n"
        ),
    )
    assert analyze_program(p) == []


# ---------------------------------------------------------------------------
# the real tree, reports, CLI
# ---------------------------------------------------------------------------
def test_real_tree_findings_are_all_baselined():
    """Every finding over src/repro must be in the committed baseline —
    the exact gate CI runs via `python -m repro.analyze ci`."""
    from repro.analyze.baseline import apply_baseline, load_baseline

    findings = analyze_tree("src/repro")
    new, unused = apply_baseline(findings, load_baseline("ANALYZE_baseline.json"))
    assert new == []
    assert unused == []


def test_findings_are_deterministically_ordered():
    findings = analyze_tree("src/repro")
    keys = [(f.path, f.line, f.rule, f.col, f.source, f.sink) for f in findings]
    assert keys == sorted(keys)
    assert findings == analyze_tree("src/repro")


def test_report_json_schema():
    p = program(
        main=(
            "import time\n"
            "def send(pkt):\n"
            "    pkt.payload = time.time()\n"
        ),
    )
    doc = json.loads(report_json(analyze_program(p)))
    assert doc["tool"] == "repro.analyze"
    assert set(doc["rules"]) == set(RULES)
    [finding] = doc["findings"]
    assert finding["rule"] == "AN201" and finding["trace"]


def test_cli_flow_and_ci_exit_codes(tmp_path, capsys):
    """One command: `ci` gates (0 clean / 1 findings), the retired `lint`
    and `flow` subcommands are usage errors (2)."""
    from repro.analyze.__main__ import main

    assert main(["flow", "src/repro"]) == 2
    assert main(["lint", "src/repro"]) == 2
    capsys.readouterr()
    assert main(["ci"]) == 0
    assert "lint=0 new-flow=0 baselined=3 stale-baseline=0 -> OK" in (
        capsys.readouterr().out
    )

    planted = tmp_path / "leak.py"
    planted.write_text(
        "import time\ndef send(pkt):\n    pkt.payload = time.time()\n"
    )
    report = tmp_path / "report.json"
    assert main(["ci", str(planted), "--json", str(report)]) == 1
    assert "lint=1 new-flow=1 baselined=0 stale-baseline=0 -> FAIL" in (
        capsys.readouterr().out
    )
    assert [f["rule"] for f in json.loads(report.read_text())["findings"]] == [
        "AN101", "AN201",
    ]
    # accepting the flow finding leaves the per-line one: it cannot be baselined
    accepted = tmp_path / "base.json"
    assert main(["ci", str(planted), "--update-baseline", str(accepted)]) == 1
    assert "lint=1 new-flow=0 baselined=1" in capsys.readouterr().out
    assert [e["rule"] for e in json.loads(accepted.read_text())["entries"]] == ["AN201"]
