"""Call-site rules, the one source recogniser, unreferenced definitions,
suppressions, report format."""

import pytest

from repro.analyze.callgraph import Program
from repro.analyze.ci import run_rules, suppress


def findings_of(program):
    return suppress(program, run_rules(program))


def analyze(program):
    """The findings of the rules under test.  A planted snippet's own
    functions are called from nowhere in it, so AN107 (tested on its own
    below) is left out."""
    return [f for f in findings_of(program) if f.rule != "AN107"]


def lint_source(source, path):
    return analyze(Program.from_sources({"x": (path, source)}))


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
    """The same call is the same source however it is imported: alone it
    is AN101/AN102 at its line, flowing into a scheduling argument it is
    additionally AN201/AN202 — one recogniser answers both."""
    head = f"def f(kernel):\n    {imp}\n" if function_level else f"{imp}\ndef f(kernel):\n"
    alone = lint_source(head + f"    return {call}\n", "x.py")
    assert [(f.rule, f.line) for f in alone if f.line == 3] == [(rule, 3)]
    sunk = lint_source(head + f"    kernel.call_after({call}, print)\n", "x.py")
    taint_rule = rule.replace("AN1", "AN2")
    assert rules_of(f for f in sunk if f.line == 3) == [rule, taint_rule]
    [flow] = [f for f in sunk if f.rule == taint_rule]
    assert flow.trace[0].startswith("source:") and flow.trace[-1].startswith("sink:")


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


def test_flow_rule_suppressions_are_judged_like_any_other():
    """AN106 audits every family: a stale allow[AN2xx] is a finding, a
    used one is honoured and not flagged."""
    stale = "import time\nt = time.time()  # repro: allow[AN201]\n"
    assert rules_of(lint_source(stale, "x.py")) == ["AN101", "AN106"]
    used = (
        "import time\n"
        "def f(kernel):\n"
        "    kernel.call_after(time.time(), print)  # repro: allow[AN101,AN201]\n"
    )
    assert lint_source(used, "x.py") == []
    quiet = "x = 1  # repro: allow[AN201,AN106]\n"
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
    allow comment on its line, and every allow comment accepts one."""
    assert findings_of(Program.load("src/repro")) == []


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
