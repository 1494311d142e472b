"""Determinism lint: an AST pass that flags nondeterminism hazards.

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
========  ==================================================================

Suppressions are explicit and auditable, modelled on ``noqa``:

* ``# repro: allow[AN101]`` on the offending line, or
* ``# repro: allow-file[AN101]`` anywhere, for the whole file;
  both accept a comma-separated rule list.

:func:`lint_paths` returns structured :class:`Finding` objects; the CLI
(``python -m repro.analyze lint``) renders them as text or JSON and
exits non-zero on any unsuppressed finding, which is what CI gates on.
"""

from __future__ import annotations

import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

RULES: Dict[str, str] = {
    "AN101": "wall-clock read; use kernel.now / virtual time",
    "AN102": "module-level randomness; use kernel.rng(label) or a seeded generator",
    "AN103": "iteration over a set; order follows PYTHONHASHSEED",
    "AN104": "id() used for ordering; ids are allocation addresses",
    "AN105": "kernel heap internals touched outside simkernel/kernel.py",
    "AN106": "unused suppression; the allow comment matches no finding",
}

#: rules the *lint* owns; ``allow`` entries for other families (the flow
#: analyzer's AN2xx/AN3xx) are invisible here, so AN106 never judges them
_LINT_RULE_PREFIX = "AN1"

# AN101: time-module functions that read the host clock
_WALL_CLOCK_TIME = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
}
# AN101: datetime/date constructors that embed "now"
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today"}

# AN102: the only attributes of the random/np.random modules that name a
# *constructible, seedable* generator rather than the shared global stream
_SEEDABLE_RANDOM = {"Random", "SystemRandom"}
_SEEDABLE_NUMPY = {"default_rng", "Generator", "SeedSequence", "RandomState"}

# AN105: kernel attributes that are scheduling internals.  Loads of _now
# are tolerated (documented hot-path idiom for reading the clock); loads
# of _heap are not, because the only reason to read the heap is to poke it.
_KERNEL_INTERNAL_STORE = {"_heap", "_seq", "_now", "_live_events"}
_KERNEL_INTERNAL_LOAD = {"_heap", "_seq"}

_ALLOW_LINE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s-]+)\]")
_ALLOW_FILE = re.compile(r"#\s*repro:\s*allow-file\[([A-Za-z0-9_,\s-]+)\]")


@dataclass(frozen=True)
class Finding:
    """One lint hit, pointing at a file:line:col."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted-name rendering of a Name/Attribute chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_set_expr(node: ast.AST) -> bool:
    """Expressions that evaluate to a set with hash-dependent order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _Visitor(ast.NodeVisitor):
    """Single-file AST walk implementing rules AN101-AN105."""

    def __init__(self, path: str, in_kernel_module: bool) -> None:
        self.path = path
        self.in_kernel_module = in_kernel_module
        self.findings: List[Finding] = []
        # per-function map of local names known to hold a set
        self._set_locals: List[Dict[str, int]] = [{}]
        # depth inside sorted()/min()/max() argument lists (for AN104)
        self._ordering_depth = 0

    # -- bookkeeping -----------------------------------------------------
    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
            )
        )

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
            what = _dotted(iter_node) or "a set expression"
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

    # -- calls: AN101, AN102, AN104 --------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        dotted = _dotted(func)

        # AN101 wall clock
        if isinstance(func, ast.Attribute):
            base = _dotted(func.value)
            if base == "time" and func.attr in _WALL_CLOCK_TIME:
                self._emit(
                    node,
                    "AN101",
                    f"{dotted}() reads the host clock; simulations must use "
                    "kernel.now",
                )
            elif func.attr in _WALL_CLOCK_DATETIME and base.split(".")[-1] in (
                "datetime",
                "date",
            ):
                self._emit(
                    node,
                    "AN101",
                    f"{dotted}() reads the host clock; simulations must use "
                    "kernel.now",
                )

            # AN102 module-level randomness
            if base == "random" and func.attr not in _SEEDABLE_RANDOM:
                self._emit(
                    node,
                    "AN102",
                    f"{dotted}() draws from the process-global stream; use "
                    "kernel.rng(label)",
                )
            elif base in ("np.random", "numpy.random") and (
                func.attr not in _SEEDABLE_NUMPY
            ):
                self._emit(
                    node,
                    "AN102",
                    f"{dotted}() draws from numpy's global stream; use a "
                    "seeded np.random.default_rng",
                )

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

    # -- AN105: kernel internals -----------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
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


@dataclass(frozen=True)
class _AllowComment:
    """One parsed ``allow``/``allow-file`` comment, with its position."""

    line: int
    col: int  # 1-based, pointing at the comment token
    file_wide: bool
    rules: Tuple[str, ...]


def _allow_comments(source: str) -> List[_AllowComment]:
    """Parse ``# repro: allow[...]`` comments via the token stream.

    Using tokenize rather than a line regex keeps us honest about what
    is a comment versus a string literal containing one.
    """
    comments: List[_AllowComment] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _ALLOW_FILE.search(tok.string)
            if match:
                comments.append(
                    _AllowComment(
                        line=tok.start[0],
                        col=tok.start[1] + 1,
                        file_wide=True,
                        rules=tuple(
                            r.strip()
                            for r in match.group(1).split(",")
                            if r.strip()
                        ),
                    )
                )
            match = _ALLOW_LINE.search(tok.string)
            if match:
                comments.append(
                    _AllowComment(
                        line=tok.start[0],
                        col=tok.start[1] + 1,
                        file_wide=False,
                        rules=tuple(
                            r.strip()
                            for r in match.group(1).split(",")
                            if r.strip()
                        ),
                    )
                )
    except tokenize.TokenError:
        pass  # syntax problems surface via ast.parse instead
    return comments


def _suppressions(source: str) -> Tuple[Set[str], Dict[int, Set[str]]]:
    """(file-wide allowed rules, per-line allowed rules) for *source*."""
    file_rules: Set[str] = set()
    line_rules: Dict[int, Set[str]] = {}
    for comment in _allow_comments(source):
        if comment.file_wide:
            file_rules.update(comment.rules)
        else:
            line_rules.setdefault(comment.line, set()).update(comment.rules)
    return file_rules, line_rules


def lint_source(source: str, path: str) -> List[Finding]:
    """Lint one file's source text; returns unsuppressed findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        return [
            Finding(
                path=path,
                line=err.lineno or 1,
                col=(err.offset or 0) + 1,
                rule="AN100",
                message=f"syntax error: {err.msg}",
            )
        ]
    normalized = path.replace("\\", "/")
    visitor = _Visitor(path, in_kernel_module=normalized.endswith("simkernel/kernel.py"))
    visitor.visit(tree)
    comments = _allow_comments(source)
    file_rules, line_rules = _suppressions(source)

    # AN106: an allow comment (or one rule inside it) that suppresses
    # nothing is itself a defect — stale suppressions hide future bugs.
    # Only rules the lint owns (AN1xx) are judged; allow comments for the
    # flow analyzer's AN2xx/AN3xx findings are out of scope here.
    raw = visitor.findings
    for comment in comments:
        for rule in comment.rules:
            if not rule.startswith(_LINT_RULE_PREFIX) or rule == "AN106":
                continue
            if comment.file_wide:
                used = any(f.rule == rule for f in raw)
            else:
                used = any(
                    f.rule == rule and f.line == comment.line for f in raw
                )
            if not used:
                scope = "allow-file" if comment.file_wide else "allow"
                visitor.findings.append(
                    Finding(
                        path=path,
                        line=comment.line,
                        col=comment.col,
                        rule="AN106",
                        message=(
                            f"unused suppression: {scope}[{rule}] matches no "
                            f"{rule} finding; delete it"
                        ),
                    )
                )

    return [
        f
        for f in visitor.findings
        if f.rule not in file_rules and f.rule not in line_rules.get(f.line, set())
    ]


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    files: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    findings: List[Finding] = []
    for f in dict.fromkeys(files):  # dedupe overlapping path arguments
        findings.extend(lint_source(f.read_text(encoding="utf-8"), str(f)))
    # deterministic report order regardless of argument or walk order:
    # (path, line, rule) is the contract, col only breaks residual ties
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.col))
    return findings


def report_json(findings: Iterable[Finding]) -> str:
    """Machine-readable report (stable key order, newline-terminated)."""
    payload = {
        "tool": "repro.analyze.lint",
        "rules": RULES,
        "findings": [asdict(f) for f in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI body for ``python -m repro.analyze lint`` (returns exit code)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-analyze lint",
        description="determinism lint for the repro simulator sources",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"])
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="write a machine-readable report to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help=(
            "print a removal listing for unused allow comments (AN106) "
            "instead of failing on them"
        ),
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule}  {desc}")
        return 0

    findings = lint_paths(args.paths or ["src/repro"])
    if args.fix:
        stale = [f for f in findings if f.rule == "AN106"]
        findings = [f for f in findings if f.rule != "AN106"]
        for finding in stale:
            print(f"fix: {finding.path}:{finding.line}: {finding.message}")
    if args.json:
        text = report_json(findings)
        if args.json == "-":
            sys.stdout.write(text)
        else:
            Path(args.json).write_text(text, encoding="utf-8")
    if args.json != "-":
        for finding in findings:
            print(finding.render())
        print(
            f"repro.analyze lint: {len(findings)} finding(s)"
            if findings
            else "repro.analyze lint: clean"
        )
    return 1 if findings else 0


__all__ = [
    "RULES",
    "Finding",
    "lint_source",
    "lint_paths",
    "report_json",
    "main",
]
