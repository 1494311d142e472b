"""Interprocedural taint: planted leaks, traces, the CLI."""

import inspect
from pathlib import Path

import pytest

from repro.analyze.callgraph import Program
from repro.analyze.ci import run_rules, suppress
from repro.analyze.flow import SCHED_SINK_METHODS


def program(**sources):
    return Program.from_sources(
        {f"app.{name}": (f"src/app/{name}.py", text) for name, text in sources.items()}
    )


def analyze_program(p):
    """The whole-program findings only; the call-site rules that fire on
    the same planted sources are test_lint's."""
    return [f for f in suppress(p, run_rules(p)) if f.function]


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
# state mutated in forked code is not a rule's business: serial-vs-forked
# runs compare their bytes instead
# ---------------------------------------------------------------------------
FORK_PRELUDE = (
    "import multiprocessing\n"
    "def launch(conn):\n"
    "    p = multiprocessing.Process(target=_worker, args=(conn,))\n"
    "    p.start()\n"
)


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
    """A module-global write is not a taint sink, wherever it runs."""
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
ENV_TO_DIGEST = (
    "os.environ.get() (src/repro/bench/harness.py)",
    "argument scale of cell_digest (src/repro/sweep/runner.py) [sweep-cache digest]",
)


def test_real_tree_findings_are_all_allowed():
    """The tree's raw whole-program findings are the three accepted
    REPRO_FULL-into-cache-key flows (sweep/digest.py), and the allow
    comments on their sink lines leave nothing — the exact gate CI runs
    via `python -m repro.analyze ci`."""
    p = Program.load("src/repro")
    raw = run_rules(p)
    flows = sorted((f.rule, f.function, f.source, f.sink) for f in raw if f.function)
    assert flows == [
        ("AN205", "repro.sweep.runner.merge_cells", *ENV_TO_DIGEST),
        ("AN205", "repro.sweep.runner.run_sweep", *ENV_TO_DIGEST),
        ("AN205", "repro.sweep.runner.run_sweep", *ENV_TO_DIGEST),
    ]
    assert suppress(p, raw) == []


def test_every_allow_comment_says_why():
    """An accepted finding carries its reason on the allow comment's own
    line, after the bracket."""
    p = Program.load("src/repro")
    allows = [(m.path, c) for m in p.modules.values() for c in m.allows]
    assert len(allows) >= 12
    for path, comment in allows:
        line = Path(path).read_text(encoding="utf-8").splitlines()[comment.line - 1]
        rest = line[comment.col - 1:].split("]", 1)[1]
        assert rest.strip(" —-:;,").strip(), f"{path}:{comment.line}: allow without a reason"


def test_findings_are_deterministically_ordered(tmp_path):
    """The real tree with its allow comments disarmed, so suppression has
    findings to order: the same order, sorted, on every run."""
    for src in Path("src/repro").rglob("*.py"):
        dst = tmp_path / "repro" / src.relative_to("src/repro")
        dst.parent.mkdir(parents=True, exist_ok=True)
        text = src.read_text(encoding="utf-8")
        dst.write_text(text.replace("repro: allow", "repro: disarmed"), encoding="utf-8")
    findings = analyze_tree(str(tmp_path / "repro"))
    keys = [(f.path, f.line, f.rule, f.col, f.source, f.sink, f.function) for f in findings]
    assert len(keys) == 3 and keys == sorted(keys)
    assert findings == analyze_tree(str(tmp_path / "repro"))


def test_cli_flow_and_ci_exit_codes(tmp_path, capsys):
    """One command: `ci` gates (0 clean / 1 findings); an allow comment
    on the line is the one way to accept a finding; the retired `lint`
    and `flow` subcommands, the retired `ci` options and a path that
    cannot be read are usage errors (2)."""
    from repro.analyze.__main__ import main

    assert main(["flow", "src/repro"]) == 2
    assert main(["lint", "src/repro"]) == 2
    for retired in (["--baseline", "b.json"], ["--update-baseline", "b.json"],
                    ["--json", "r.json"], ["--list-rules"]):
        with pytest.raises(SystemExit) as exit_:
            main(["ci", *retired])
        assert exit_.value.code == 2
    capsys.readouterr()
    # a path that cannot be read is a usage error too, in one line
    missing = tmp_path / "no" / "such" / "dir"
    assert main(["ci", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(missing) in err
    assert main(["ci"]) == 0
    assert "lint=0 flow=0 -> OK" in capsys.readouterr().out

    planted = tmp_path / "leak.py"
    leak = "import time\ndef send(pkt):\n    pkt.payload = time.time()"
    planted.write_text(leak + "\n")
    assert main(["ci", str(planted)]) == 1
    out = capsys.readouterr().out
    assert "leak.py:3:19: AN101" in out and "leak.py:3:5: AN201" in out
    assert "lint=1 flow=1 -> FAIL" in out
    # accepted on its line, with the reason beside it
    planted.write_text(leak + "  # repro: allow[AN101,AN201] — test fixture\n")
    assert main(["ci", str(planted)]) == 0
    assert "lint=0 flow=0 -> OK" in capsys.readouterr().out
    # an allow that matches nothing is itself a finding
    planted.write_text(leak + "  # repro: allow[AN101,AN201,AN102] — test fixture\n")
    assert main(["ci", str(planted)]) == 1
    out = capsys.readouterr().out
    assert "AN106 unused suppression: allow[AN102]" in out
    assert "lint=1 flow=0 -> FAIL" in out
