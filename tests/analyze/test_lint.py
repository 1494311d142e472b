"""Call-site rules, the one source recogniser, unreferenced definitions,
suppressions, report format, the CLI."""

import ast
import re
import tokenize
from pathlib import Path

import pytest

from repro.analyze.ci import run_rules, suppress
from repro.analyze.program import RULES, Program

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"


def findings_of(program):
    return suppress(program, run_rules(program))


def analyze(program):
    """The findings of the rules under test.  A planted snippet's own
    functions are called from nowhere in it, so AN107 (tested on its own
    below) is left out."""
    return [f for f in findings_of(program) if f.rule != "AN107"]


def lint_source(source, path):
    return analyze(Program.from_sources({"x": (path, source)}))


def program(**sources):
    """Assemble an in-memory program: ``name="source"`` per module."""
    return Program.from_sources(
        {f"app.{name}": (f"src/app/{name}.py", text) for name, text in sources.items()}
    )


def where(findings):
    return [(f.path, f.line, f.rule) for f in findings]


def unreferenced(**sources):
    """Every finding over a program of ``name=source`` modules."""
    program = Program.from_sources({n: (f"{n}.py", src) for n, src in sources.items()})
    return [(f.path, f.line, f.rule) for f in findings_of(program)]


def lint_paths(paths):
    return analyze(Program.load(*paths))


def rules_of(findings):
    return [f.rule for f in findings]


def test_syntax_error_is_the_files_only_finding_and_cannot_be_allowed():
    src = "# repro: allow-file[AN100]\nimport time\nt = time.time(\n"
    [f] = lint_source(src, "x.py")
    assert f.rule == "AN100" and "syntax error" in f.message


def test_wall_clock_flagged():
    src = "import time\ndef f():\n    return time.time()\n"
    findings = lint_source(src, "x.py")
    assert rules_of(findings) == ["AN101"]
    assert findings[0].line == 3


def test_wall_clock_variants():
    src = (
        "import time, datetime\n"
        "a = time.monotonic_ns()\n"
        "b = datetime.datetime.now()\n"
        "c = datetime.date.today()\n"
    )
    assert rules_of(lint_source(src, "x.py")) == ["AN101", "AN101", "AN101"]


def test_module_random_flagged_but_seeded_generators_allowed():
    bad = "import random\nx = random.random()\n"
    assert rules_of(lint_source(bad, "x.py")) == ["AN102"]
    good = (
        "import random\n"
        "import numpy as np\n"
        "r = random.Random(7)\n"
        "g = np.random.default_rng(7)\n"
    )
    assert lint_source(good, "x.py") == []


def test_from_random_import_flagged():
    src = "from random import randint\n"
    assert rules_of(lint_source(src, "x.py")) == ["AN102"]
    assert lint_source("from random import Random\n", "x.py") == []


def test_numpy_global_stream_flagged():
    src = "import numpy as np\nx = np.random.rand(3)\n"
    assert rules_of(lint_source(src, "x.py")) == ["AN102"]


#: (import statement, call as that import spells it, call-site rule)
SPELLINGS = [
    ("import time", "time.time()", "AN101"),
    ("import time as _t", "_t.time()", "AN101"),
    ("from time import perf_counter", "perf_counter()", "AN101"),
    ("from time import perf_counter as pc", "pc()", "AN101"),
    ("from datetime import datetime as dt", "dt.now()", "AN101"),
    ("import random as r", "r.random()", "AN102"),
    ("from random import random", "random()", "AN102"),
    ("import numpy as np", "np.random.rand()", "AN102"),
    ("from numpy import random as npr", "npr.rand()", "AN102"),
    ("from numpy.random import rand", "rand()", "AN102"),
    ("from os import urandom", "urandom(8)", "AN102"),
    ("import uuid", "uuid.uuid4()", "AN102"),
]


@pytest.mark.parametrize("function_level", [False, True])
@pytest.mark.parametrize("imp, call, rule", SPELLINGS)
def test_one_recogniser_under_every_import_spelling(imp, call, rule, function_level):
    """The same call is the same source however it is imported, at
    module or at function level: AN101/AN102 at its line."""
    head = f"def f(kernel):\n    {imp}\n" if function_level else f"{imp}\ndef f(kernel):\n"
    found = lint_source(head + f"    return {call}\n", "x.py")
    assert [(f.rule, f.line) for f in found if f.line == 3] == [(rule, 3)]


#: (import line, a read of process state as that import spells it,
#: the rendered read)
PROCESS_STATE = [
    ("import os", "x = os.environ['X']", "os.environ"),
    ("import os", "x = os.environ.get('X', '')", "os.environ"),
    ("import os", "kernel.call_after(1 if 'X' in os.environ else 2, print)", "os.environ"),
    ("import os", "m.inc(len(dict(os.environ)))", "os.environ"),
    ("from os import environ", "x = environ['X']", "os.environ"),
    ("import os", "x = os.getenv('X')", "os.getenv()"),
    ("from os import getpid as gp", "x = gp()", "os.getpid()"),
    ("import os", "x = hash(kernel)", "hash()"),
]


@pytest.mark.parametrize(
    "imp, read, rendered",
    PROCESS_STATE,
    ids=["subscript", "get", "in", "dict", "from-import", "getenv", "getpid-alias", "hash"],
)
def test_every_process_state_read_is_flagged_where_it_is_made(imp, read, rendered):
    """AN108 flags any name that resolves to ``os.environ``, whatever
    surrounds it, and the getenv / getpid / hash() calls, exactly once at
    the read."""
    [f] = lint_source(f"{imp}\ndef f(kernel, m):\n    {read}\n", "x.py")
    assert (f.rule, f.line) == ("AN108", 3)
    assert f.message.startswith(f"{rendered}: ")


@pytest.mark.parametrize(
    "imp, expr",
    [
        ("import random", "random.Random(7).random()"),
        ("import random as r", "r.Random(7).random()"),
        ("from random import Random", "Random(7).random()"),
        ("from random import Random as R", "R(7).random()"),
        ("import numpy as np", "np.random.default_rng(7).random()"),
        ("from numpy import random as npr", "npr.default_rng(7).random()"),
        ("from numpy.random import default_rng", "default_rng(7).random()"),
    ],
)
def test_seeded_generators_are_clean_under_every_import_spelling(imp, expr):
    src = f"{imp}\ndef f(kernel):\n    kernel.call_after({expr}, print)\n"
    assert lint_source(src, "x.py") == []


def test_set_iteration_flagged():
    direct = "for x in {1, 2, 3}:\n    print(x)\n"
    assert rules_of(lint_source(direct, "x.py")) == ["AN103"]
    call = "for x in set(items):\n    print(x)\n"
    assert rules_of(lint_source(call, "x.py")) == ["AN103"]
    comp = "out = [y for y in {n.id for n in nodes}]\n"
    assert "AN103" in rules_of(lint_source(comp, "x.py"))


def test_set_local_variable_tracked_across_statements():
    # the pattern that bit association._on_sack: build a set, iterate later
    src = (
        "def f(records):\n"
        "    struck = {r.path for r in records}\n"
        "    for addr in struck:\n"
        "        touch(addr)\n"
    )
    assert rules_of(lint_source(src, "x.py")) == ["AN103"]


def test_sorted_set_iteration_is_clean():
    src = "for x in sorted({3, 1, 2}):\n    print(x)\n"
    assert lint_source(src, "x.py") == []


def test_id_ordering_flagged_only_in_ordering_contexts():
    bad = "order = sorted(objs, key=lambda o: id(o))\n"
    assert rules_of(lint_source(bad, "x.py")) == ["AN104"]
    cmp = "flag = id(a) < id(b)\n"
    assert rules_of(lint_source(cmp, "x.py")) == ["AN104", "AN104"]
    # distinct-count via id() has no ordering semantics: allowed
    ok = "n = len({id(a) for a in objs})\n"
    assert "AN104" not in rules_of(lint_source(ok, "x.py"))


def test_kernel_internals_flagged_outside_kernel_module():
    src = "def f(kernel):\n    kernel._heap.append(x)\n    kernel._now = 5\n"
    rules = rules_of(lint_source(src, "src/repro/faults/hack.py"))
    assert rules == ["AN105", "AN105"]
    # the kernel's own module is exempt
    assert lint_source(src, "src/repro/simkernel/kernel.py") == []
    # plain clock reads through the documented idiom stay legal
    ok = "def f(self):\n    return self.kernel._now\n"
    assert lint_source(ok, "src/repro/transport/x.py") == []


def test_line_suppression():
    src = "import time\nt = time.time()  # repro: allow[AN101]\n"
    assert lint_source(src, "x.py") == []
    # suppressing a different rule hides nothing — and the pointless
    # suppression is itself flagged (AN106)
    other = "import time\nt = time.time()  # repro: allow[AN103]\n"
    assert rules_of(lint_source(other, "x.py")) == ["AN101", "AN106"]


def test_allow_comment_inside_a_string_literal_suppresses_nothing():
    src = 'import time\nt = (time.time(), "# repro: allow[AN101] — in a string")\n'
    assert where(lint_source(src, "x.py")) == [("x.py", 2, "AN101")]


def test_file_suppression():
    src = (
        "# repro: allow-file[AN101]\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.monotonic()\n"
    )
    assert lint_source(src, "x.py") == []


def test_unused_line_suppression_flagged():
    src = "x = 1  # repro: allow[AN101]\n"
    [f] = lint_source(src, "x.py")
    assert f.rule == "AN106" and f.line == 1
    assert "allow[AN101]" in f.message


def test_unused_file_suppression_flagged():
    src = "# repro: allow-file[AN102]\nx = 1\n"
    [f] = lint_source(src, "x.py")
    assert f.rule == "AN106" and "allow-file[AN102]" in f.message


def test_partially_used_suppression_flags_only_the_dead_rule():
    src = "import time\nt = time.time()  # repro: allow[AN101,AN104]\n"
    [f] = lint_source(src, "x.py")
    assert f.rule == "AN106" and "AN104" in f.message


def test_used_suppressions_are_not_flagged():
    src = (
        "# repro: allow-file[AN103]\n"
        "import time\n"
        "t = time.time()  # repro: allow[AN101]\n"
        "for x in {1, 2}:\n"
        "    print(x)\n"
    )
    assert lint_source(src, "x.py") == []


def test_process_state_suppressions_are_judged_like_any_other():
    """AN106 audits AN108 as any other rule: a stale allow[AN108] is a
    finding, a used one is honoured and not flagged."""
    stale = "import time\nt = time.time()  # repro: allow[AN108]\n"
    assert rules_of(lint_source(stale, "x.py")) == ["AN101", "AN106"]
    used = (
        "import os, time\n"
        "def f(kernel):\n"
        "    kernel.call_after(time.time(), os.getpid())  # repro: allow[AN101,AN108]\n"
    )
    assert lint_source(used, "x.py") == []
    quiet = "x = 1  # repro: allow[AN108,AN106]\n"
    assert lint_source(quiet, "x.py") == []


def test_an106_is_itself_suppressible():
    src = "x = 1  # repro: allow[AN101,AN106]\n"
    assert lint_source(src, "x.py") == []


def test_findings_order_is_independent_of_input_order(tmp_path):
    """Satellite: (path, line, rule) report order regardless of walk or
    argument order — the analyzer must satisfy its own determinism bar."""
    import random as stdlib_random

    sources = {
        "b.py": "import time\nx = time.time()\ny = time.monotonic()\n",
        "a.py": "import random\nz = random.random()\n",
        "c.py": "for v in {1, 2}:\n    print(v)\n",
    }
    for name, text in sources.items():
        (tmp_path / name).write_text(text)
    files = [str(tmp_path / name) for name in sources]

    rng = stdlib_random.Random(7)
    baseline = lint_paths(files)
    keys = [(f.path, f.line, f.rule) for f in baseline]
    assert keys == sorted(keys)
    for _ in range(5):
        shuffled = files[:]
        rng.shuffle(shuffled)
        assert lint_paths(shuffled) == baseline
    # overlapping arguments (dir + file inside it) must not duplicate
    assert lint_paths([str(tmp_path), files[0]]) == baseline


def test_repo_sources_are_clean():
    """The tree itself must stay clean: every finding is accepted by an
    allow comment on its line, and every allow comment accepts one.  It
    reads process state at three places, each accepted that way:
    REPRO_SANITIZE (the checkers only watch), REPRO_FULL (the scale keys
    the sweep cache by design) and a PDES shard's own pid (it stops
    itself)."""
    p = Program.load("src/repro")
    raw = run_rules(p)
    assert sorted(where(f for f in raw if f.rule == "AN108")) == [
        ("src/repro/analyze/sanitize.py", 51, "AN108"),
        ("src/repro/bench/harness.py", 36, "AN108"),
        ("src/repro/simkernel/pdes.py", 265, "AN108"),
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
    findings of every rule to order: the same order, sorted, on every run."""
    for src in Path("src/repro").rglob("*.py"):
        dst = tmp_path / "repro" / src.relative_to("src/repro")
        dst.parent.mkdir(parents=True, exist_ok=True)
        text = src.read_text(encoding="utf-8")
        dst.write_text(text.replace("repro: allow", "repro: disarmed"), encoding="utf-8")
    findings = findings_of(Program.load(str(tmp_path / "repro")))
    keys = [(f.path, f.line, f.rule, f.col, f.message) for f in findings]
    assert len(keys) == 27 and keys == sorted(keys)
    assert findings == findings_of(Program.load(str(tmp_path / "repro")))


def test_nondeterministic_scheduler_is_caught():
    """Regression: a stream scheduler that iterates a set to pick the
    next stream ties transmission order to hash order — exactly the
    nondeterminism AN103 exists to catch.  The shipped schedulers use
    lists indexed by stream id and must stay clean."""
    planted = (
        "def choose(queues):\n"
        "    backlogged = {sid for sid, q in queues.items() if q}\n"
        "    for sid in backlogged:\n"
        "        return sid\n"
    )
    assert rules_of(lint_source(planted, "sched.py")) == ["AN103"]
    assert lint_paths(["src/repro/transport/sctp/sched.py"]) == []


# ---------------------------------------------------------------------------
# AN107: a definition nothing else in the program mentions
# ---------------------------------------------------------------------------
def test_unreferenced_definition_is_a_finding():
    src = "def used():\n    return 1\n\ndef orphan():\n    return used()\n"
    assert unreferenced(m=src) == [("m.py", 4, "AN107")]
    [f] = findings_of(Program.from_sources({"m": ("m.py", src)}))
    assert "'orphan'" in f.message and f.col == 1
    # a class and a method are definitions too
    cls = "class Orphan:\n    def lonely(self):\n        pass\n"
    assert unreferenced(m=cls) == [("m.py", 1, "AN107"), ("m.py", 2, "AN107")]


def test_allowed_unreferenced_definition_is_not_a_finding():
    src = "def orphan():  # repro: allow[AN107] — public API\n    return 1\n"
    assert unreferenced(m=src) == []


def test_stale_an107_allow_is_an_an106_finding():
    src = (
        "def used():  # repro: allow[AN107] — stale\n"
        "    return 1\n"
        "x = used()\n"
    )
    assert unreferenced(m=src) == [("m.py", 1, "AN106")]


@pytest.mark.parametrize(
    "mention",
    [
        "x = orphan()",  # a name
        "x = obj.orphan",  # an attribute
        "from m import orphan as o",  # an import (and its alias)
        '__all__ = ["orphan"]',  # an identifier string
        'f = getattr(obj, "orphan")',
    ],
)
def test_any_mention_in_another_module_references_a_definition(mention):
    src = "def orphan():\n    return 1\n"
    assert unreferenced(m=src, other=mention + "\n") == []


def test_interpreter_called_names_are_exempt():
    """Dunders and ``ast.NodeVisitor`` callbacks are called by a name no
    source spells; a ``visit_`` method elsewhere is an ordinary one."""
    src = (
        "import ast\n"
        "class V(ast.NodeVisitor):\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def visit_Call(self, node):\n"
        "        pass\n"
        "class Plain:\n"
        "    def visit_Name(self, node):\n"
        "        pass\n"
        "x = V(), Plain()\n"
    )
    assert unreferenced(m=src) == [("m.py", 8, "AN107")]


# ---------------------------------------------------------------------------
# a source laundered towards the simulation is caught where it is read
# ---------------------------------------------------------------------------
def test_wall_clock_laundered_through_two_helpers_is_caught_at_the_read():
    """A wall-clock value passed through two helpers into a packet field
    is AN101 at the ``time.time()`` call, and nowhere else."""
    p = program(
        clock="import time\ndef stamp():\n    return time.time()\n",
        wrap="from .clock import stamp\ndef tag():\n    return stamp() * 1000\n",
        net=(
            "from .wrap import tag\n"
            "class Packet:\n"
            "    pass\n"
            "def send(pkt):\n"
            "    pkt.payload = tag()\n"
        ),
    )
    assert where(analyze(p)) == [("src/app/clock.py", 3, "AN101")]


def test_wall_clock_into_a_kernel_schedule_is_caught_at_the_read():
    p = program(
        main=(
            "import time\n"
            "def jitter():\n"
            "    return time.monotonic()\n"
            "def schedule(kernel):\n"
            "    kernel.call_after(jitter(), print)\n"
        ),
    )
    assert where(analyze(p)) == [("src/app/main.py", 3, "AN101")]


@pytest.mark.parametrize(
    "call",
    [
        "self.t.restart(int(time.time()))",
        "kernel.sleep(int(time.time()))",
        "kernel.timer(self.fire, time.time())",
    ],
    ids=["restart", "sleep", "timer"],
)
def test_wall_clock_into_a_timer_is_caught_at_the_read(call):
    """Every transport timer is armed through ``kernel.timer`` and
    ``restart(delay)``, coroutines wait through ``sleep``."""
    p = program(
        main=f"import time\nclass C:\n    def arm(self, kernel):\n        {call}\n"
    )
    assert where(analyze(p)) == [("src/app/main.py", 4, "AN101")]


def test_pid_passed_to_a_metric_helper_is_caught_at_the_read():
    p = program(
        main=(
            "import os\n"
            "def record(metric, value):\n"
            "    metric.observe(value)\n"
            "def run(metric):\n"
            "    record(metric, os.getpid())\n"
        ),
    )
    assert where(analyze(p)) == [("src/app/main.py", 5, "AN108")]


def test_env_read_through_a_ternary_into_a_digest_is_caught_at_the_read():
    """The REPRO_FULL pattern: an environment read selects a string via
    a ternary, which goes two calls deep into a cache-digest argument."""
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
    assert where(analyze(p)) == [("src/app/scale.py", 3, "AN108")]


# ---------------------------------------------------------------------------
# the model, the rule table, the CLI
# ---------------------------------------------------------------------------
def test_each_file_is_parsed_and_tokenized_once_per_ci_run(tmp_path, monkeypatch, capsys):
    """Every rule, the suppression pass and AN106 read the one model; two
    scripts sharing a stem are still two modules.  Only the two files
    that hold an allow comment are tokenized."""
    from repro.analyze.__main__ import main

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "tool.py").write_text("import time\nx = time.time()\n")
    (tmp_path / "b" / "tool.py").write_text("y = 1  # repro: allow[AN103]\n")
    (tmp_path / "main.py").write_text(
        "import os\ndef f(m):\n    m.observe(os.getpid())  # repro: allow[AN108]\n"
        '__all__ = ["f"]\n'  # an exported name is referenced (AN107)
    )
    calls = {"parse": 0, "tokens": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ast, "parse", counting("parse", ast.parse))
    monkeypatch.setattr(
        tokenize, "generate_tokens", counting("tokens", tokenize.generate_tokens)
    )
    assert main(["ci", str(tmp_path)]) == 1
    assert calls == {"parse": 3, "tokens": 2}
    out = capsys.readouterr().out
    assert "a/tool.py:2:5: AN101" in out and "b/tool.py:1:8: AN106" in out
    assert "findings=2 -> FAIL" in out


def test_design_rule_table_lists_exactly_the_rules():
    """DESIGN §6.1's ``| ANnnn |`` rows are RULES' keys, so a rule cannot be
    added or removed without its row."""
    text = DESIGN.read_text(encoding="utf-8")
    section = text[text.index("### 6.1 ") : text.index("### 6.2 ")]
    rows = re.findall(r"^\| (AN\d{3}) \|", section, flags=re.MULTILINE)
    assert rows == sorted(RULES)


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
    assert capsys.readouterr().out == "repro.analyze ci: findings=0 -> OK\n"

    planted = tmp_path / "leak.py"
    leak = "import time\ndef send(pkt):\n    pkt.payload = time.time()"
    exported = '\n__all__ = ["send"]\n'  # so that send is referenced (AN107)
    planted.write_text(leak + exported)
    assert main(["ci", str(planted)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [
        f"{planted}:3:19: AN101 time.time(): {RULES['AN101']}",
        "repro.analyze ci: findings=1 -> FAIL",
    ]
    # accepted on its line, with the reason beside it
    planted.write_text(leak + "  # repro: allow[AN101] — test fixture" + exported)
    assert main(["ci", str(planted)]) == 0
    assert "findings=0 -> OK" in capsys.readouterr().out
    # an allow that matches nothing is itself a finding
    planted.write_text(leak + "  # repro: allow[AN101,AN102] — test fixture" + exported)
    assert main(["ci", str(planted)]) == 1
    out = capsys.readouterr().out
    assert "AN106 unused suppression: allow[AN102]" in out
    assert "findings=1 -> FAIL" in out
