"""The whole-program rule: determinism taint (AN201-AN205).

A call-site rule (:mod:`repro.analyze.lint`) catches a wall-clock read
*where it is called*; it cannot see the value flowing through three
helpers into a packet field.  :func:`check_taint` closes that gap over
the same :class:`~.callgraph.Program`.

Nondeterminism *sources* — wall clocks, unseeded randomness, process
identity, ``hash()`` order, environment reads, recognised by
:meth:`Program.source_kind` exactly as AN101/AN102 recognise them — are
propagated through assignments, expressions, returns, and call
arguments (interprocedurally, via per-function summaries iterated to a
fixpoint) into *simulation-visible sinks*: kernel scheduling arguments
(``call_at``/``post_after``/``timer.restart`` & co.),
:class:`~repro.network.packet.Packet` fields, metrics values
(``inc``/``observe``), and sweep-cache digests.  Every finding carries
the full source→sink trace.  A tainted value that never reaches a sink
is *not* reported here: a wall-clock read that only feeds a progress
display is AN101's business (and what its ``allow`` comments assert),
but the same value laundered into a packet field breaks
byte-determinism.

What code run in a forked worker mutates is not a rule here: a forked
run must give the same bytes as the serial one, and CI checks exactly
that by running both and comparing the outputs with ``cmp``.

Known limits (deliberate, documented): control-flow taint is not
tracked (a branch *condition* on ``os.environ`` does not taint the
branches), calls through variables (``fn(*args)``, the kernel's event
dispatch) end propagation at the call site, and attribute stores are
sink-checked but not tracked as taint carriers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .callgraph import (
    RULES,
    SOURCE_RULES,
    Finding,
    FunctionInfo,
    ModuleInfo,
    Program,
    dotted_name,
)

# -- sink tables -----------------------------------------------------------
#: kernel scheduling entry points: a tainted *when*, *delay*, or callback
#: argument makes the event schedule itself nondeterministic.  Every
#: transport timer is armed through ``kernel.timer(fn, *args)`` and
#: ``RestartableTimer.restart(delay)``, coroutines through ``sleep``.
SCHED_SINK_METHODS = {
    "call_at", "call_after", "post_at", "post_after", "call_window",
    "timer", "restart", "sleep",
}
#: Packet construction/field names: tainted values here go on the wire
PACKET_FIELDS = {"src", "dst", "proto", "payload", "wire_size", "corrupted", "pkt_id"}
#: metrics recording methods: tainted values land in --metrics-json output
METRIC_SINK_METHODS = {"inc", "observe"}
#: sweep-cache digest functions: tainted inputs change cache keys run-to-run
DIGEST_SINK_FUNCS = {"cell_digest", "canonical_json", "digest_payload"}
_HASHLIB_CTORS = {"sha256", "sha1", "md5", "sha512", "blake2b", "blake2s"}

#: taint-summary fixpoint bound (summaries grow monotonically, so this is
#: a safety valve, not a tuning knob; the repo converges in 3-4 rounds)
MAX_FIXPOINT_ROUNDS = 12
#: statement re-walk bound inside one function (handles loops where a
#: name is assigned after its first textual use)
INTRA_PASSES = 3


@dataclass(frozen=True)
class Tag:
    """One taint mark: a source (or parameter) an expression derives from.

    Identity (for fixpoint convergence) is the origin, not the trace:
    two flows from the same source compare equal, and the first trace
    discovered is kept.
    """

    kind: str  # source kind, or "param"
    origin: str  # "time.time()" for sources; the parameter name for params
    path: str
    line: int
    trace: Tuple[str, ...] = field(default=(), compare=False, hash=False)

    def via(self, step: str) -> "Tag":
        if len(self.trace) >= 16:  # cap runaway chains through deep call stacks
            return self
        return Tag(self.kind, self.origin, self.path, self.line,
                   (*self.trace, step))


@dataclass(frozen=True)
class SinkRecord:
    """A sink reachable from a function parameter (possibly transitively)."""

    kind: str  # "kernel scheduling argument" | "packet field" | ...
    desc: str  # "argument 1 of kernel.post_after"
    path: str
    line: int
    col: int
    trace: Tuple[str, ...] = field(default=(), compare=False, hash=False)

    def via(self, step: str) -> "SinkRecord":
        if len(self.trace) >= 16:
            return self
        return SinkRecord(self.kind, self.desc, self.path, self.line, self.col,
                          (step, *self.trace))


class _Summary:
    """Per-function taint summary, grown monotonically to a fixpoint."""

    __slots__ = ("ret_tags", "ret_params", "param_sinks")

    def __init__(self) -> None:
        self.ret_tags: Set[Tag] = set()  # source tags reaching the return value
        self.ret_params: Set[str] = set()  # params flowing to the return value
        self.param_sinks: Dict[str, List[SinkRecord]] = {}

    def key(self) -> Tuple:
        """Convergence key: the parts callers depend on."""
        return (
            frozenset(self.ret_tags),
            frozenset(self.ret_params),
            frozenset(
                (p, s.kind, s.desc, s.path, s.line)
                for p, sinks in self.param_sinks.items()
                for s in sinks
            ),
        )

    def add_param_sink(self, param: str, record: SinkRecord) -> None:
        existing = self.param_sinks.setdefault(param, [])
        if all(
            (r.kind, r.desc, r.path, r.line) != (record.kind, record.desc,
                                                 record.path, record.line)
            for r in existing
        ):
            existing.append(record)


def _environ_read(module: ModuleInfo, node: ast.AST, program: Program) -> bool:
    """``os.environ[...]`` subscript reads."""
    if isinstance(node, ast.Subscript):
        dotted = dotted_name(node.value)
        if dotted and program.resolve_dotted(module, dotted).endswith("os.environ"):
            return True
    return False


def _sink_of_call(
    module: ModuleInfo, call: ast.Call, program: Program
) -> Optional[Tuple[str, str]]:
    """(sink kind, callee display) if this call's arguments are sinks."""
    func = call.func
    if isinstance(func, ast.Attribute):
        attr = func.attr
        if attr in SCHED_SINK_METHODS:
            if program.external_receiver(module, func):
                return None  # time.sleep() is not the kernel's
            return "kernel scheduling argument", dotted_name(func) or attr
        if attr in METRIC_SINK_METHODS:
            return "metrics value", dotted_name(func) or attr
        if attr in _HASHLIB_CTORS or attr == "update":
            dotted = dotted_name(func)
            base = dotted_name(func.value)
            resolved = program.resolve_dotted(module, base) if base else ""
            if resolved == "hashlib" or (attr == "update" and "hash" in base.lower()):
                return "digest input", dotted or attr
        return None
    if isinstance(func, ast.Name):
        resolved = program.resolve_name(module, func.id)
        leaf = resolved.rsplit(".", 1)[-1] if resolved else func.id
        if leaf in DIGEST_SINK_FUNCS or func.id in DIGEST_SINK_FUNCS:
            return "sweep-cache digest", func.id
        if resolved.endswith(".Packet") or func.id == "Packet":
            return "packet field", func.id
    return None


class _TaintPass:
    """One abstract-interpretation pass over one function's body."""

    def __init__(
        self,
        analysis: "FlowAnalysis",
        info: FunctionInfo,
        module: ModuleInfo,
        summary: _Summary,
    ) -> None:
        self.analysis = analysis
        self.program = analysis.program
        self.info = info
        self.module = module
        self.summary = summary
        self.env: Dict[str, Set[Tag]] = {
            p: {Tag("param", p, info.path, info.lineno)} for p in info.params
        }

    # -- expression taint -------------------------------------------------
    def eval(self, node: Optional[ast.AST]) -> Set[Tag]:
        if node is None or isinstance(node, (ast.Constant, ast.Lambda)):
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if _environ_read(self.module, node, self.program):
            dotted = dotted_name(node.value) if isinstance(node, ast.Subscript) else ""
            return {
                Tag("environment", f"{dotted}[...]", self.info.path, node.lineno)
            }
        if isinstance(node, ast.Attribute):
            return self.eval(node.value)
        if isinstance(node, ast.Subscript):
            return self.eval(node.value) | self.eval(node.slice)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            tags: Set[Tag] = set()
            for element in node.elts:
                tags |= self.eval(element)
            return tags
        if isinstance(node, ast.Dict):
            tags = set()
            for key in node.keys:
                tags |= self.eval(key)
            for value in node.values:
                tags |= self.eval(value)
            return tags
        if isinstance(node, ast.BoolOp):
            tags = set()
            for value in node.values:
                tags |= self.eval(value)
            return tags
        if isinstance(node, ast.BinOp):
            return self.eval(node.left) | self.eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.Compare):
            tags = self.eval(node.left)
            for comparator in node.comparators:
                tags |= self.eval(comparator)
            return tags
        if isinstance(node, ast.IfExp):
            # a ternary is a select: the *test* decides the value, so its
            # taint flows (statement-level If conditions deliberately don't)
            return self.eval(node.test) | self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, ast.JoinedStr):
            tags = set()
            for value in node.values:
                tags |= self.eval(value)
            return tags
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            tags = self.eval(node.elt)
            for gen in node.generators:
                tags |= self.eval(gen.iter)
            return tags
        if isinstance(node, ast.DictComp):
            tags = self.eval(node.key) | self.eval(node.value)
            for gen in node.generators:
                tags |= self.eval(gen.iter)
            return tags
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.eval(node.value)
        if isinstance(node, ast.Yield):
            return self.eval(node.value) if node.value else set()
        if isinstance(node, ast.NamedExpr):
            tags = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self._bind(node.target.id, tags)
            return tags
        return set()

    def _eval_call(self, call: ast.Call) -> Set[Tag]:
        source = self.program.source_kind(self.module, call)
        if source is not None:
            kind, rendered = source
            return {
                Tag(
                    kind,
                    rendered,
                    self.info.path,
                    call.lineno,
                    trace=(
                        f"source: {rendered} at {self.info.path}:{call.lineno} "
                        f"in {self.info.shortname}",
                    ),
                )
            }
        arg_tags: List[Tuple[Optional[str], ast.AST, Set[Tag]]] = []
        # evaluate arguments exactly once, remembering the expression
        for arg in call.args:
            arg_tags.append((None, arg, self.eval(arg)))
        for kw in call.keywords:
            arg_tags.append((kw.arg, kw.value, self.eval(kw.value)))

        # the call itself may be a sink
        sink = _sink_of_call(self.module, call, self.program)
        if sink is not None:
            sink_kind, callee_display = sink
            for index, (kw_name, _argnode, tags) in enumerate(arg_tags):
                where = f"argument {kw_name or index}"
                record = SinkRecord(
                    kind=sink_kind,
                    desc=f"{where} of {callee_display}",
                    path=self.info.path,
                    line=call.lineno,
                    col=call.col_offset + 1,
                    trace=(
                        f"sink: {where} of {callee_display}() at "
                        f"{self.info.path}:{call.lineno} [{sink_kind}]",
                    ),
                )
                self._flow_into_sink(tags, record)

        target = self.program.resolve_call(self.module, call, self.info)
        result: Set[Tag] = set()
        if not target.functions:
            # unknown callee: conservative pass-through of argument taint
            for _kw, _node, tags in arg_tags:
                for tag in tags:
                    result.add(tag)
            return result
        for callee in target.functions:
            callee_summary = self.analysis.summaries.get(callee.qualname)
            if callee_summary is None:
                continue
            params = list(callee.params)
            if callee.is_method and isinstance(call.func, ast.Attribute) and params:
                params = params[1:]  # instance call: drop self/cls
            step_site = f"{self.info.path}:{call.lineno}"
            for index, (kw_name, _node, tags) in enumerate(arg_tags):
                if not tags:
                    continue
                if kw_name is not None:
                    param = kw_name if kw_name in callee.params else None
                elif index < len(params):
                    param = params[index]
                else:
                    param = None
                if param is None:
                    continue
                enter = (
                    f"passes into {callee.shortname}({param}) at {step_site}"
                )
                if param in callee_summary.ret_params:
                    for tag in tags:
                        result.add(
                            tag.via(enter).via(
                                f"returns from {callee.shortname} to "
                                f"{self.info.shortname} at {step_site}"
                            )
                        )
                for record in callee_summary.param_sinks.get(param, []):
                    self._flow_into_sink(
                        {tag.via(enter) for tag in tags}, record
                    )
            for tag in callee_summary.ret_tags:
                result.add(
                    tag.via(
                        f"returned by {callee.shortname} called at {step_site} "
                        f"in {self.info.shortname}"
                    )
                )
        return result

    def _flow_into_sink(self, tags: Iterable[Tag], record: SinkRecord) -> None:
        for tag in tags:
            if tag.kind == "param":
                self.summary.add_param_sink(
                    tag.origin,
                    record.via(
                        f"from parameter {tag.origin!r} of {self.info.shortname}"
                    ),
                )
            else:
                self.analysis.emit_taint(self.info, tag, record)

    # -- statements -------------------------------------------------------
    def _bind(self, name: str, tags: Set[Tag]) -> None:
        # weak update (union): branch joins never lose taint; the cost is
        # that a genuinely-overwritten taint lingers; a spurious finding
        # that produces is accepted by an allow comment on its sink line
        if tags:
            self.env.setdefault(name, set()).update(tags)

    def _bind_target(self, target: ast.AST, tags: Set[Tag]) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, tags)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, tags)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, tags)
        elif isinstance(target, ast.Attribute):
            if tags and target.attr in PACKET_FIELDS:
                record = SinkRecord(
                    kind="packet field",
                    desc=f"store to .{target.attr}",
                    path=self.info.path,
                    line=target.lineno,
                    col=target.col_offset + 1,
                    trace=(
                        f"sink: store to .{target.attr} at "
                        f"{self.info.path}:{target.lineno} [packet field]",
                    ),
                )
                self._flow_into_sink(tags, record)

    def exec_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are analysed as their own functions
        if isinstance(stmt, ast.Assign):
            tags = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, tags)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind_target(stmt.target, self.eval(stmt.value))
            return
        if isinstance(stmt, ast.AugAssign):
            tags = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                tags |= set(self.env.get(stmt.target.id, ()))
            self._bind_target(stmt.target, tags)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                for tag in self.eval(stmt.value):
                    if tag.kind == "param":
                        self.summary.ret_params.add(tag.origin)
                    else:
                        self.summary.ret_tags.add(
                            tag.via(
                                f"returned by {self.info.shortname} "
                                f"({self.info.path}:{stmt.lineno})"
                            )
                        )
            return
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self.eval(stmt.test)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_target(stmt.target, self.eval(stmt.iter))
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tags = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, tags)
            self.exec_body(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self.exec_body(stmt.body)
            for handler in stmt.handlers:
                self.exec_body(handler.body)
            self.exec_body(stmt.orelse)
            self.exec_body(stmt.finalbody)
            return
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)
            return
        # Pass/Break/Continue/Import/Global/Nonlocal/Delete: no taint flow


class FlowAnalysis:
    """Drives the taint fixpoint over a program and collects findings."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.graph = program.graph
        self.summaries: Dict[str, _Summary] = {
            q: _Summary() for q in program.functions
        }
        self._taint_findings: Set[Finding] = set()

    def emit_taint(self, info: FunctionInfo, tag: Tag, record: SinkRecord) -> None:
        if tag.kind not in SOURCE_RULES:  # "param" tags never reach here
            return
        rule = SOURCE_RULES[tag.kind][1]
        trace = (*tag.trace, *record.trace)
        self._taint_findings.add(
            Finding(
                rule=rule,
                path=record.path,
                line=record.line,
                col=record.col,
                function=info.qualname,
                source=f"{tag.origin} ({tag.path})",
                sink=f"{record.desc} ({record.path}) [{record.kind}]",
                message=(
                    f"{RULES[rule]}: {tag.origin} reaches "
                    f"{record.desc} [{record.kind}]"
                ),
                trace=trace,
            )
        )

    def run_taint(self) -> List[Finding]:
        """Iterate per-function summaries to a fixpoint; return findings."""
        order = sorted(self.program.functions)
        callers = self.graph.callers_of()
        pending: Set[str] = set(order)
        for _round in range(MAX_FIXPOINT_ROUNDS):
            if not pending:
                break
            batch, pending = sorted(pending), set()
            for qualname in batch:
                info = self.program.functions[qualname]
                module = self.program.modules[info.module]
                summary = self.summaries[qualname]
                before = summary.key()
                for _ in range(INTRA_PASSES):
                    walker = _TaintPass(self, info, module, summary)
                    body = getattr(info.node, "body", [])
                    prev_env_size = -1
                    while prev_env_size != sum(len(v) for v in walker.env.values()):
                        prev_env_size = sum(len(v) for v in walker.env.values())
                        walker.exec_body(body)
                if summary.key() != before:
                    pending.update(callers.get(qualname, ()))
        return list(self._taint_findings)


def check_taint(program: Program) -> List[Finding]:
    """AN201-AN205 over *program*."""
    return FlowAnalysis(program).run_taint()


__all__ = [
    "SCHED_SINK_METHODS",
    "FlowAnalysis",
    "SinkRecord",
    "Tag",
    "check_taint",
]
