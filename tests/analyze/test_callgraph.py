"""The program model: one read per file, resolution, fork sites, reachability."""

import ast
import tokenize

from repro.analyze.callgraph import CallGraph, Program


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
    (tmp_path / "b" / "tool.py").write_text("y = 1  # repro: allow[AN301]\n")
    (tmp_path / "main.py").write_text(
        "import os\ndef f(m):\n    m.observe(os.getpid())  # repro: allow[AN203]\n"
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
    assert "lint=2 new-flow=0" in out


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


def test_fork_site_with_local_target_function():
    p = program(
        work=(
            "import multiprocessing\n"
            "def _worker(conn):\n"
            "    conn.send(1)\n"
            "def launch(ctx, conn):\n"
            "    p = ctx.Process(target=_worker, args=(conn,))\n"
            "    p.start()\n"
        ),
    )
    graph = CallGraph.build(p)
    [site] = graph.fork_sites
    assert site.target == "app.work._worker"
    assert site.caller == "app.work.launch"


def test_reachability_descends_nested_defs_and_reports_chain():
    p = program(
        work=(
            "def leaf():\n"
            "    return 1\n"
            "def entry():\n"
            "    def inner():\n"
            "        return leaf()\n"
            "    return inner()\n"
        ),
    )
    graph = CallGraph.build(p)
    parents = graph.reachable_from(["app.work.entry"])
    assert "app.work.leaf" in parents
    chain = graph.chain(parents, "app.work.leaf")
    assert chain[0] == "app.work.entry" and chain[-1] == "app.work.leaf"


def test_real_tree_loads_and_finds_the_fork_boundaries():
    p = Program.load("src/repro")
    graph = CallGraph.build(p)
    targets = {s.target for s in graph.fork_sites}
    assert "repro.simkernel.pdes._worker_main" in targets
    assert "repro.supervise.executor._child_main" in targets
