"""The syntactic rules: hazards in the trees (AN101-AN105, AN107, AN108).

The whole reproduction stands on bit-determinism (same seed, same
figure), so the classic ways Python code goes nondeterministic are
treated as defects and caught statically:

========  ==================================================================
rule id   hazard
========  ==================================================================
AN101     wall-clock reads (``time.time``, ``datetime.now``, ...) — virtual
          time must come from ``kernel.now``
AN102     module-level randomness (``random.random()``, bare
          ``np.random.*``) — randomness must come from kernel-owned,
          per-label streams (``kernel.rng(label)``) or an explicitly
          seeded generator (``random.Random(seed)``,
          ``np.random.default_rng(seed)``)
AN103     iteration over a ``set`` (literal, comprehension, ``set()`` /
          ``frozenset()`` call, or a local assigned from one) — set order
          follows PYTHONHASHSEED for str/object elements, so any loop
          with side effects becomes run-to-run nondeterministic
AN104     ``id()`` used for ordering (inside ``sorted``/``min``/``max`` or
          an ordering comparison) — CPython ids are allocation addresses
AN105     touching kernel heap internals (``kernel._heap``, ``._seq``,
          writes to ``._now`` ...) outside ``simkernel/kernel.py`` —
          event order is the kernel's alone to maintain
AN107     a function, method or class whose name nothing else in the
          program mentions — code that no caller reaches
AN108     process-state reads (``os.environ`` in any form, ``os.getenv``,
          ``os.getpid`` / ``getppid``, ``hash()``) — the shell or the
          process, not the seed, decides what they return
========  ==================================================================

:func:`check` is one rule function over the
:class:`~.program.Program`: it walks each module's already-parsed tree
and asks :meth:`Program.source_kind` what a call or a name reads, so
AN101, AN102 and AN108 fire on one recogniser's sources, under any
import spelling, at the place of the read.  :func:`check_unreferenced`
(AN107) reads the same trees as one program.  Suppression and AN106
happen after every rule has run (:mod:`repro.analyze.ci`).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from .program import (
    _SEEDABLE_RANDOM,
    RULES,
    SOURCE_RULES,
    Finding,
    ModuleInfo,
    Program,
    dotted_name,
)

# AN105: kernel attributes that are scheduling internals.  Loads of _now
# are tolerated (documented hot-path idiom for reading the clock); loads
# of _heap are not, because the only reason to read the heap is to poke it.
_KERNEL_INTERNAL_STORE = {"_heap", "_seq", "_now", "_live_events"}
_KERNEL_INTERNAL_LOAD = {"_heap", "_seq"}


def _is_set_expr(node: ast.AST) -> bool:
    """Expressions that evaluate to a set with hash-dependent order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _Visitor(ast.NodeVisitor):
    """Single-file AST walk implementing rules AN101-AN105 and AN108."""

    def __init__(self, program: Program, module: ModuleInfo) -> None:
        self.program = program
        self.module = module
        self.in_kernel_module = module.path.replace("\\", "/").endswith(
            "simkernel/kernel.py"
        )
        self.findings: List[Finding] = []
        # per-function map of local names known to hold a set
        self._set_locals: List[Dict[str, int]] = [{}]
        # depth inside sorted()/min()/max() argument lists (for AN104)
        self._ordering_depth = 0

    # -- bookkeeping -----------------------------------------------------
    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.module.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
            )
        )

    def _check_source(self, node: ast.expr) -> None:
        """AN101 wall clock, AN102 module-level randomness, AN108 process state."""
        source = self.program.source_kind(self.module, node)
        if source is not None:
            rule = SOURCE_RULES[source[0]]
            self._emit(node, rule, f"{source[1]}: {RULES[rule]}")

    def _push_scope(self) -> None:
        self._set_locals.append({})

    def _pop_scope(self) -> None:
        self._set_locals.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._push_scope()
        self.generic_visit(node)
        self._pop_scope()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._push_scope()
        self.generic_visit(node)
        self._pop_scope()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._push_scope()
        self.generic_visit(node)
        self._pop_scope()

    # -- AN103 bookkeeping: which locals hold sets -----------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            scope = self._set_locals[-1]
            if _is_set_expr(node.value):
                scope[name] = node.lineno
            else:
                scope.pop(name, None)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            scope = self._set_locals[-1]
            if _is_set_expr(node.value):
                scope[node.target.id] = node.lineno
            else:
                scope.pop(node.target.id, None)
        self.generic_visit(node)

    def _iter_is_set(self, iter_node: ast.AST) -> bool:
        if _is_set_expr(iter_node):
            return True
        if isinstance(iter_node, ast.Name):
            for scope in reversed(self._set_locals):
                if iter_node.id in scope:
                    return True
        return False

    def _check_iter(self, iter_node: ast.AST) -> None:
        if self._iter_is_set(iter_node):
            what = dotted_name(iter_node) or "a set expression"
            self._emit(
                iter_node,
                "AN103",
                f"iterating over {what!r}: set order follows PYTHONHASHSEED; "
                "sort it or use dict.fromkeys for insertion order",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    # -- calls: AN101, AN102, AN104, AN108 -------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        self._check_source(node)

        # AN104: id() anywhere inside a sorted/min/max argument list
        if isinstance(func, ast.Name) and func.id == "id" and self._ordering_depth:
            self._emit(
                node,
                "AN104",
                "id() used inside an ordering call; ids are allocation "
                "addresses and vary run to run",
            )

        if isinstance(func, ast.Name) and func.id in ("sorted", "min", "max"):
            self._ordering_depth += 1
            self.generic_visit(node)
            self._ordering_depth -= 1
        else:
            self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        # AN102: `from random import randint` smuggles the global stream in
        if node.module == "random":
            for alias in node.names:
                if alias.name not in _SEEDABLE_RANDOM:
                    self._emit(
                        node,
                        "AN102",
                        f"'from random import {alias.name}' binds the "
                        "process-global stream; use kernel.rng(label)",
                    )
        self.generic_visit(node)

    # -- AN104: id() as an ordering comparand ----------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        ordering_ops = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
        if any(isinstance(op, ordering_ops) for op in node.ops):
            for operand in operands:
                if (
                    isinstance(operand, ast.Call)
                    and isinstance(operand.func, ast.Name)
                    and operand.func.id == "id"
                ):
                    self._emit(
                        operand,
                        "AN104",
                        "id() compared with an ordering operator; ids are "
                        "allocation addresses and vary run to run",
                    )
        self.generic_visit(node)

    # -- names: AN108 (os.environ); AN105 kernel internals ---------------
    def visit_Name(self, node: ast.Name) -> None:
        self._check_source(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_source(node)
        if not self.in_kernel_module:
            base = node.value
            via_kernel = (isinstance(base, ast.Name) and base.id == "kernel") or (
                isinstance(base, ast.Attribute) and base.attr == "kernel"
            )
            if via_kernel:
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    if node.attr in _KERNEL_INTERNAL_STORE:
                        self._emit(
                            node,
                            "AN105",
                            f"write to kernel.{node.attr} outside "
                            "simkernel/kernel.py corrupts event ordering",
                        )
                elif node.attr in _KERNEL_INTERNAL_LOAD:
                    self._emit(
                        node,
                        "AN105",
                        f"kernel.{node.attr} accessed outside "
                        "simkernel/kernel.py; schedule via call_at/post_at",
                    )
        self.generic_visit(node)


def check(program: Program) -> List[Finding]:
    """AN101-AN105 over every module of *program*."""
    findings: List[Finding] = []
    for module in program.modules.values():
        visitor = _Visitor(program, module)
        visitor.visit(module.tree)
        findings.extend(visitor.findings)
    return findings


def _visitor_methods(node: ast.ClassDef) -> List[ast.AST]:
    """``visit_*`` methods of an ``ast.NodeVisitor`` subclass: ``ast``
    calls them by a name built at run time, so no source mentions them."""
    if not any(dotted_name(b).endswith("NodeVisitor") for b in node.bases):
        return []
    return [
        stmt
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name.startswith("visit_")
    ]


def check_unreferenced(program: Program) -> List[Finding]:
    """AN107: a definition whose name appears nowhere else in *program*.

    A mention is a name, an attribute, an import (name or alias) or a
    string that is an identifier (an ``__all__`` entry, a ``getattr``
    name).  Dunders and ``ast.NodeVisitor`` callbacks are called by the
    interpreter, so they are exempt.  Matching by bare name over-counts
    mentions, which errs towards silence: a method shares its fate with
    every other attribute of that name.
    """
    mentioned: Set[str] = set()
    defs: List[Tuple[ModuleInfo, ast.AST]] = []
    exempt: Set[ast.AST] = set()
    for module in program.modules.values():
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.alias):
                mentioned.add(node.name.rpartition(".")[2])
                if node.asname:
                    mentioned.add(node.asname)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    mentioned.add(node.value)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((module, node))
                if isinstance(node, ast.ClassDef):
                    exempt.update(_visitor_methods(node))
    findings: List[Finding] = []
    for module, node in defs:
        name = node.name
        if name in mentioned or node in exempt or (
            name.startswith("__") and name.endswith("__")
        ):
            continue
        kind = "class" if isinstance(node, ast.ClassDef) else "function"
        findings.append(
            Finding(
                module.path, node.lineno, node.col_offset + 1, "AN107",
                f"{kind} {name!r} is referenced nowhere in the program; delete "
                "it, or accept it with allow[AN107] and the reason it stays",
            )
        )
    return findings


__all__ = ["check", "check_unreferenced"]
