"""The program model: one read per file, resolution, call edges."""

import ast
import re
import tokenize
from pathlib import Path

from repro.analyze.callgraph import RULES, CallGraph, Program

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"


def program(**sources):
    """Assemble an in-memory program: ``name="source"`` per module."""
    return Program.from_sources(
        {f"app.{name}": (f"src/app/{name}.py", text) for name, text in sources.items()}
    )


def edge_pairs(graph):
    return {
        (e.caller, e.callee) for edges in graph.edges.values() for e in edges
    }


def test_each_file_is_parsed_and_tokenized_once_per_ci_run(tmp_path, monkeypatch, capsys):
    """Every rule, the suppression pass and AN106 read the one model; two
    scripts sharing a stem are still two modules."""
    from repro.analyze.__main__ import main

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "tool.py").write_text("import time\nx = time.time()\n")
    (tmp_path / "b" / "tool.py").write_text("y = 1  # repro: allow[AN103]\n")
    (tmp_path / "main.py").write_text(
        "import os\ndef f(m):\n    m.observe(os.getpid())  # repro: allow[AN203]\n"
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
    assert calls == {"parse": 3, "tokens": 3}
    out = capsys.readouterr().out
    assert "a/tool.py:2:5: AN101" in out and "b/tool.py:1:8: AN106" in out
    assert "lint=2 flow=0" in out


def test_direct_and_imported_calls_resolve():
    p = program(
        util="def helper(x):\n    return x\n",
        main=(
            "from .util import helper\n"
            "def run():\n"
            "    return helper(1)\n"
        ),
    )
    graph = CallGraph.build(p)
    assert ("app.main.run", "app.util.helper") in edge_pairs(graph)


def test_aliased_module_import_resolves():
    p = program(
        util="def helper(x):\n    return x\n",
        main=(
            "from app import util as u\n"
            "def run():\n"
            "    return u.helper(1)\n"
        ),
    )
    graph = CallGraph.build(p)
    assert ("app.main.run", "app.util.helper") in edge_pairs(graph)


def test_self_method_resolves_through_base_class():
    p = program(
        base="class Base:\n    def step(self):\n        return 1\n",
        main=(
            "from .base import Base\n"
            "class Child(Base):\n"
            "    def run(self):\n"
            "        return self.step()\n"
        ),
    )
    graph = CallGraph.build(p)
    assert ("app.main.Child.run", "app.base.Base.step") in edge_pairs(graph)


def test_external_module_attribute_is_not_by_name_matched():
    """``time.sleep`` must not resolve to an in-program ``sleep`` method."""
    p = program(
        kern="class Kernel:\n    def sleep(self, delay):\n        return delay\n",
        main=(
            "import time\n"
            "def wait():\n"
            "    time.sleep(0.1)\n"
        ),
    )
    graph = CallGraph.build(p)
    assert ("app.main.wait", "app.kern.Kernel.sleep") not in edge_pairs(graph)


def test_unknown_receiver_matches_methods_by_name():
    p = program(
        kern="class Kernel:\n    def advance(self, n):\n        return n\n",
        main="def run(k):\n    return k.advance(3)\n",
    )
    graph = CallGraph.build(p)
    [edge] = [
        e for e in graph.edges["app.main.run"] if e.callee.endswith("advance")
    ]
    assert edge.by_name


def test_nested_def_is_called_by_its_parent():
    """The parent -> nested edge is what re-runs a parent's taint summary
    when a callback or worker closure's summary grows."""
    p = program(
        work=(
            "def entry():\n"
            "    def inner():\n"
            "        return 1\n"
            "    return 2\n"
        ),
    )
    graph = CallGraph.build(p)
    assert ("app.work.entry", "app.work.entry.<locals>.inner") in edge_pairs(graph)
    assert graph.callers_of()["app.work.entry.<locals>.inner"] == ["app.work.entry"]


def test_design_rule_table_lists_exactly_the_rules():
    """DESIGN §6.1's ``| ANnnn |`` rows are RULES' keys, so a rule cannot be
    added or removed without its row."""
    text = DESIGN.read_text(encoding="utf-8")
    section = text[text.index("### 6.1 ") : text.index("### 6.2 ")]
    rows = re.findall(r"^\| (AN\d{3}) \|", section, flags=re.MULTILINE)
    assert rows == sorted(RULES)
