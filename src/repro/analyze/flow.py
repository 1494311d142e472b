"""Interprocedural determinism-taint and fork-purity analyses.

The per-line lint (:mod:`repro.analyze.lint`) catches a wall-clock read
*where it is called*; it cannot see the value flowing through three
helpers into a packet field.  This module performs the whole-program
analyses that close that gap, over the :class:`~.callgraph.Program`
model:

**Determinism taint (AN201-AN205).**  Nondeterminism *sources* — wall
clocks, unseeded randomness, process identity, ``hash()`` order,
environment reads — are propagated through assignments, expressions,
returns, and call arguments (interprocedurally, via per-function
summaries iterated to a fixpoint) into *simulation-visible sinks*:
kernel scheduling arguments (``call_at``/``post_after`` & co.),
:class:`~repro.network.packet.Packet` fields, metrics values
(``inc``/``observe``), and sweep-cache digests.  Every finding carries
the full source→sink trace.  A tainted value that never reaches a sink
is *not* reported: a wall-clock read that only feeds a progress display
is fine (that is what the lint's ``allow`` comments assert), but the
same value laundered into a packet field breaks byte-determinism.

**Fork purity (AN301-AN304).**  Functions reachable from fork
boundaries (``Process(target=...)`` sites — the PDES shard workers and
``repro.supervise`` child entries) must not mutate state that would
diverge between the serial and forked executions: module-global
rebinding or container mutation (AN301), closure-captured state
(AN302), process-wide signal handlers (AN303), and unpicklable
callables passed across the boundary (AN304).  Findings carry the
entry→function reachability chain.

Both analyses honour the lint's ``# repro: allow[ANxxx]`` comments (at
the sink line for taint, the mutation line for purity) and the
machine-readable baseline (:mod:`repro.analyze.baseline`) that lets
accepted findings ride in CI without blocking it.

Known limits (deliberate, documented): control-flow taint is not
tracked (a branch *condition* on ``os.environ`` does not taint the
branches), calls through variables (``fn(*args)``, the kernel's event
dispatch) end propagation at the call site, and attribute stores are
sink-checked but not tracked as taint carriers.
"""

from __future__ import annotations

import ast
import builtins
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .callgraph import CallGraph, FunctionInfo, ModuleInfo, Program, dotted_name
from .lint import _suppressions  # same comment grammar as the lint

FLOW_RULES: Dict[str, str] = {
    "AN201": "wall-clock value flows into a simulation-visible sink",
    "AN202": "unseeded-randomness value flows into a simulation-visible sink",
    "AN203": "process-identity value flows into a simulation-visible sink",
    "AN204": "hash-order-dependent value flows into a simulation-visible sink",
    "AN205": "environment-derived value flows into a simulation-visible sink",
    "AN301": "fork-reachable code mutates module-global state",
    "AN302": "fork-reachable code mutates closure-captured state",
    "AN303": "fork-reachable code registers a process-wide signal handler",
    "AN304": "unpicklable callable captured across a fork boundary",
}

_KIND_RULE = {
    "wall-clock": "AN201",
    "randomness": "AN202",
    "process-identity": "AN203",
    "hash-order": "AN204",
    "environment": "AN205",
}

# -- source tables (shared vocabulary with the lint) -----------------------
_WALL_CLOCK_TIME = {
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
}
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today"}
_SEEDABLE_RANDOM = {"Random", "SystemRandom"}
_SEEDABLE_NUMPY = {"default_rng", "Generator", "SeedSequence", "RandomState"}

# -- sink tables -----------------------------------------------------------
#: kernel scheduling entry points: a tainted *when*, *delay*, or callback
#: argument makes the event schedule itself nondeterministic
SCHED_SINK_METHODS = {"call_at", "call_after", "post_at", "post_after", "call_window"}
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

#: container methods that mutate their receiver in place
MUTATING_METHODS = {
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "popleft", "appendleft", "remove", "discard", "clear", "setdefault",
    "sort", "reverse", "write",
}


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
    trace: Tuple[str, ...] = field(default=(), compare=False, hash=False)

    def via(self, step: str) -> "SinkRecord":
        if len(self.trace) >= 16:
            return self
        return SinkRecord(self.kind, self.desc, self.path, self.line,
                          (step, *self.trace))


@dataclass(frozen=True)
class FlowFinding:
    """One interprocedural finding with its source→sink (or chain) trace."""

    rule: str
    path: str  # where the defect anchors (sink for taint, mutation for purity)
    line: int
    function: str  # qualname of the function the finding anchors in
    source: str  # source description (taint) or mutated name (purity)
    sink: str  # sink description (taint) or entry chain summary (purity)
    message: str
    trace: Tuple[str, ...] = ()

    def render(self) -> str:
        lines = [f"{self.path}:{self.line}: {self.rule} {self.message}"]
        lines.extend(f"    {step}" for step in self.trace)
        return "\n".join(lines)

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "function": self.function,
            "source": self.source,
            "sink": self.sink,
            "message": self.message,
            "trace": list(self.trace),
        }


class _Summary:
    """Per-function taint summary, grown monotonically to a fixpoint."""

    __slots__ = ("ret_tags", "ret_params", "param_sinks", "findings")

    def __init__(self) -> None:
        self.ret_tags: Set[Tag] = set()  # source tags reaching the return value
        self.ret_params: Set[str] = set()  # params flowing to the return value
        self.param_sinks: Dict[str, List[SinkRecord]] = {}
        self.findings: Set[FlowFinding] = set()

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


def _source_kind(module: ModuleInfo, call: ast.Call, program: Program) -> Optional[Tuple[str, str]]:
    """(kind, rendered call) if this call reads a nondeterminism source."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "hash":
            return "hash-order", "hash()"
        resolved = program.resolve_name(module, func.id)
        # `from os import urandom` / `from time import time` style imports
        base, _, leaf = resolved.rpartition(".")
        if base == "time" and leaf in _WALL_CLOCK_TIME:
            return "wall-clock", f"time.{leaf}()"
        if base == "os" and leaf in ("urandom", "getpid", "getppid", "getenv"):
            kind = {"urandom": "randomness", "getenv": "environment"}.get(
                leaf, "process-identity"
            )
            return kind, f"os.{leaf}()"
        if base == "random" and leaf not in _SEEDABLE_RANDOM and resolved:
            return "randomness", f"random.{leaf}()"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    dotted = dotted_name(func)
    base = dotted_name(func.value)
    resolved_base = program.resolve_dotted(module, base) if base else ""
    attr = func.attr
    if resolved_base == "time" and attr in _WALL_CLOCK_TIME:
        return "wall-clock", f"{dotted}()"
    if attr in _WALL_CLOCK_DATETIME and resolved_base.split(".")[-1] in (
        "datetime", "date",
    ):
        return "wall-clock", f"{dotted}()"
    if resolved_base == "random" and attr not in _SEEDABLE_RANDOM:
        return "randomness", f"{dotted}()"
    if resolved_base in ("numpy.random", "np.random") and attr not in _SEEDABLE_NUMPY:
        return "randomness", f"{dotted}()"
    if resolved_base == "os":
        if attr == "urandom":
            return "randomness", f"{dotted}()"
        if attr in ("getpid", "getppid"):
            return "process-identity", f"{dotted}()"
        if attr == "getenv":
            return "environment", f"{dotted}()"
    if resolved_base == "uuid" and attr in ("uuid1", "uuid4"):
        return "randomness", f"{dotted}()"
    if base in ("os.environ",) or resolved_base.endswith("os.environ"):
        # os.environ.get(...) and friends
        return "environment", f"{dotted}()"
    return None


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


def _is_packet_field_store(target: ast.Attribute) -> bool:
    """Attribute stores whose name is a Packet wire field."""
    return target.attr in PACKET_FIELDS


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
        source = _source_kind(self.module, call, self.program)
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
        # that a genuinely-overwritten taint lingers, which the baseline
        # absorbs if it ever produces a spurious finding
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
            if tags and _is_packet_field_store(target):
                record = SinkRecord(
                    kind="packet field",
                    desc=f"store to .{target.attr}",
                    path=self.info.path,
                    line=target.lineno,
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

    def __init__(self, program: Program, graph: Optional[CallGraph] = None) -> None:
        self.program = program
        self.graph = graph if graph is not None else CallGraph.build(program)
        self.summaries: Dict[str, _Summary] = {
            q: _Summary() for q in program.functions
        }
        self._taint_findings: Set[FlowFinding] = set()

    # -- taint ------------------------------------------------------------
    def emit_taint(self, info: FunctionInfo, tag: Tag, record: SinkRecord) -> None:
        rule = _KIND_RULE.get(tag.kind)
        if rule is None:  # "param" tags never reach here
            return
        trace = (*tag.trace, *record.trace)
        self._taint_findings.add(
            FlowFinding(
                rule=rule,
                path=record.path,
                line=record.line,
                function=info.qualname,
                source=f"{tag.origin} ({tag.path})",
                sink=f"{record.desc} ({record.path}) [{record.kind}]",
                message=(
                    f"{FLOW_RULES[rule]}: {tag.origin} reaches "
                    f"{record.desc} [{record.kind}]"
                ),
                trace=trace,
            )
        )

    def run_taint(self) -> List[FlowFinding]:
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
        return self._suppress(sorted(
            self._taint_findings,
            key=lambda f: (f.path, f.line, f.rule, f.source, f.sink),
        ))

    # -- purity -----------------------------------------------------------
    def run_purity(self, extra_entries: Sequence[str] = ()) -> List[FlowFinding]:
        """Write-set analysis of everything reachable from fork boundaries."""
        findings: Set[FlowFinding] = set()
        entries = [
            site.target for site in self.graph.fork_sites if site.target
        ]
        entries.extend(e for e in extra_entries if e in self.program.functions)
        parents = self.graph.reachable_from(entries) if entries else {}

        # AN304: unpicklable callables at the fork sites themselves
        for site in self.graph.fork_sites:
            caller = self.program.functions.get(site.caller)
            if caller is None:
                continue
            module = self.program.modules[caller.module]
            for kw in site.call.keywords:
                values = [kw.value]
                if kw.arg == "args" and isinstance(kw.value, (ast.Tuple, ast.List)):
                    values = list(kw.value.elts)
                for value in values:
                    bad = None
                    if isinstance(value, ast.Lambda):
                        bad = "a lambda"
                    elif isinstance(value, ast.Name):
                        nested = f"{site.caller}.<locals>.{value.id}"
                        if nested in self.program.functions:
                            bad = f"nested function {value.id!r}"
                    if bad is not None:
                        findings.add(
                            FlowFinding(
                                rule="AN304",
                                path=site.path,
                                line=value.lineno,
                                function=site.caller,
                                source=bad,
                                sink=f"Process(...) at {site.path}:{site.lineno}",
                                message=(
                                    f"{FLOW_RULES['AN304']}: {bad} passed to "
                                    "Process(...) cannot cross a spawn "
                                    "boundary and hides shared state under fork"
                                ),
                                trace=(
                                    f"fork site: Process(...) at "
                                    f"{site.path}:{site.lineno} in {site.caller}",
                                ),
                            )
                        )

        for qualname in sorted(parents):
            info = self.program.functions.get(qualname)
            if info is None:
                continue
            chain = self.graph.chain(parents, qualname)
            chain_desc = " -> ".join(
                self.program.functions[q].shortname if q in self.program.functions
                else q
                for q in chain
            )
            trace = tuple(
                f"reachable: {step}"
                for step in [f"fork entry chain: {chain_desc}"]
            )
            findings.update(self._purity_scan(info, chain_desc, trace))
        return self._suppress(sorted(
            findings, key=lambda f: (f.path, f.line, f.rule, f.source)
        ))

    def _purity_scan(
        self, info: FunctionInfo, chain_desc: str, trace: Tuple[str, ...]
    ) -> List[FlowFinding]:
        module = self.program.modules[info.module]
        node = info.node
        body = getattr(node, "body", [])
        global_decls: Set[str] = set()
        nonlocal_decls: Set[str] = set()
        assigned: Set[str] = set()

        def collect(stmts: Sequence[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue  # nested scopes are their own functions
                if isinstance(stmt, ast.Global):
                    global_decls.update(stmt.names)
                elif isinstance(stmt, ast.Nonlocal):
                    nonlocal_decls.update(stmt.names)
                else:
                    for child in ast.walk(stmt):
                        if isinstance(child, ast.Name) and isinstance(
                            child.ctx, ast.Store
                        ):
                            assigned.add(child.id)
                for block in ("body", "orelse", "finalbody"):
                    sub = getattr(stmt, block, [])
                    if sub and isinstance(sub[0], ast.stmt):
                        collect(sub)
                for handler in getattr(stmt, "handlers", []):
                    collect(handler.body)

        collect(body)
        local_names = (set(info.params) | assigned) - global_decls - nonlocal_decls

        findings: List[FlowFinding] = []

        def is_module_global(name: str) -> bool:
            if name in local_names:
                return False
            return (
                name in module.global_names
                or name in module.functions
                or name in module.classes
            )

        def is_free_var(name: str) -> bool:
            if "<locals>" not in info.qualname:
                return False  # only nested functions have closures
            return (
                name not in local_names
                and name not in module.global_names
                and name not in module.imports
                and name not in module.functions
                and name not in module.classes
                and not hasattr(builtins, name)
                and not name.startswith("__")
            )

        def emit(rule: str, line: int, source: str, detail: str) -> None:
            findings.append(
                FlowFinding(
                    rule=rule,
                    path=info.path,
                    line=line,
                    function=info.qualname,
                    source=source,
                    sink=f"fork-reachable via {chain_desc.split(' -> ')[0]}",
                    message=f"{FLOW_RULES[rule]}: {detail}",
                    trace=(*trace, f"at: {info.path}:{line} in {info.shortname}"),
                )
            )

        for stmt in ast.walk(node):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt is not node:
                    # nested defs are scanned as their own reachable functions
                    continue
            # rebinding a declared global / nonlocal
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in targets:
                    for name_node in ast.walk(target):
                        if not isinstance(name_node, ast.Name):
                            continue
                        if name_node.id in global_decls:
                            emit(
                                "AN301", stmt.lineno, name_node.id,
                                f"rebinds module global {name_node.id!r}; the "
                                "write is invisible to the parent and to "
                                "sibling shards",
                            )
                        elif name_node.id in nonlocal_decls:
                            emit(
                                "AN302", stmt.lineno, name_node.id,
                                f"rebinds closure variable {name_node.id!r} "
                                "from fork-reachable code",
                            )
                    # mutation through subscript/attribute of a global
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        name = target.value.id
                        if is_module_global(name):
                            emit(
                                "AN301", stmt.lineno, name,
                                f"mutates module-global container "
                                f"{name!r} by item assignment",
                            )
                    if isinstance(target, ast.Attribute):
                        base = dotted_name(target.value)
                        root = base.split(".")[0] if base else ""
                        if root and root in module.imports and "." not in base:
                            resolved = module.imports.get(root, "")
                            if resolved in self.program.modules or (
                                resolved and resolved.rsplit(".", 1)[0]
                                in self.program.modules
                            ):
                                emit(
                                    "AN301", stmt.lineno, f"{base}.{target.attr}",
                                    f"writes attribute {target.attr!r} on "
                                    f"module {base!r} from fork-reachable code",
                                )
                        elif root and is_module_global(root) and root != "self":
                            emit(
                                "AN301", stmt.lineno, f"{base}.{target.attr}",
                                f"writes attribute {target.attr!r} on "
                                f"module-global object {base!r}",
                            )
            if isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        if is_module_global(target.value.id):
                            emit(
                                "AN301", stmt.lineno, target.value.id,
                                f"deletes items of module-global container "
                                f"{target.value.id!r}",
                            )
            if isinstance(stmt, ast.Call):
                func = stmt.func
                if isinstance(func, ast.Attribute):
                    dotted = dotted_name(func)
                    base = dotted_name(func.value)
                    resolved_base = (
                        self.program.resolve_dotted(module, base) if base else ""
                    )
                    if resolved_base == "signal" and func.attr == "signal":
                        emit(
                            "AN303", stmt.lineno, "signal.signal",
                            "installs a process-wide signal handler from "
                            "fork-reachable code; handlers must be registered "
                            "by the supervising parent only",
                        )
                    elif func.attr in MUTATING_METHODS and isinstance(
                        func.value, ast.Name
                    ):
                        name = func.value.id
                        if is_module_global(name):
                            emit(
                                "AN301", stmt.lineno, name,
                                f"mutates module-global container {name!r} "
                                f"via .{func.attr}()",
                            )
                        elif is_free_var(name):
                            emit(
                                "AN302", stmt.lineno, name,
                                f"mutates closure-captured object {name!r} "
                                f"via .{func.attr}()",
                            )
        return findings

    # -- suppression ------------------------------------------------------
    def _suppress(self, findings: List[FlowFinding]) -> List[FlowFinding]:
        """Honour ``# repro: allow[ANxxx]`` at each finding's anchor line."""
        by_path: Dict[str, Tuple[Set[str], Dict[int, Set[str]]]] = {}
        for module in self.program.modules.values():
            if module.path not in by_path and module.source:
                by_path[module.path] = _suppressions(module.source)
        kept: List[FlowFinding] = []
        for finding in findings:
            file_rules, line_rules = by_path.get(finding.path, (set(), {}))
            if finding.rule in file_rules:
                continue
            if finding.rule in line_rules.get(finding.line, set()):
                continue
            kept.append(finding)
        return kept


def analyze_tree(
    root: str,
    package: str = "repro",
    extra_entries: Sequence[str] = (),
) -> List[FlowFinding]:
    """Run both analyses over a source tree; findings sorted for stable diffs."""
    program = Program.load(root, package)
    return analyze_program(program, extra_entries)


def analyze_program(
    program: Program, extra_entries: Sequence[str] = ()
) -> List[FlowFinding]:
    analysis = FlowAnalysis(program)
    findings = analysis.run_taint() + analysis.run_purity(extra_entries)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.source, f.sink))
    return findings


# -- SARIF -----------------------------------------------------------------
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def _sarif_location(path: str, line: int, message: Optional[str] = None) -> Dict:
    location: Dict = {
        "physicalLocation": {
            "artifactLocation": {"uri": path.replace("\\", "/")},
            "region": {"startLine": max(1, line)},
        }
    }
    if message is not None:
        location["message"] = {"text": message}
    return location


def sarif_report(
    flow_findings: Sequence[FlowFinding] = (),
    lint_findings: Sequence = (),
    fingerprints: Optional[Dict[FlowFinding, str]] = None,
) -> str:
    """SARIF 2.1.0 document covering flow and (optionally) lint findings.

    Flow findings carry their source→sink traces as SARIF ``codeFlows``
    so GitHub code scanning renders the interprocedural path inline.
    """
    from .lint import RULES as LINT_RULES

    rules = [
        {
            "id": rule,
            "shortDescription": {"text": desc},
            "defaultConfiguration": {"level": "error"},
        }
        for rule, desc in sorted({**LINT_RULES, **FLOW_RULES}.items())
    ]
    results: List[Dict] = []
    for finding in lint_findings:
        results.append(
            {
                "ruleId": finding.rule,
                "level": "error",
                "message": {"text": finding.message},
                "locations": [_sarif_location(finding.path, finding.line)],
            }
        )
    for finding in flow_findings:
        result: Dict = {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [_sarif_location(finding.path, finding.line)],
        }
        if finding.trace:
            result["codeFlows"] = [
                {
                    "threadFlows": [
                        {
                            "locations": [
                                {
                                    "location": _sarif_location(
                                        finding.path, finding.line, step
                                    )
                                }
                                for step in finding.trace
                            ]
                        }
                    ]
                }
            ]
        if fingerprints and finding in fingerprints:
            result["partialFingerprints"] = {
                "reproAnalyze/v1": fingerprints[finding]
            }
        results.append(result)
    document = {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analyze",
                        "informationUri": "https://example.invalid/repro",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def report_json(findings: Sequence[FlowFinding]) -> str:
    """Machine-readable flow report (stable key order, newline-terminated)."""
    payload = {
        "tool": "repro.analyze.flow",
        "rules": FLOW_RULES,
        "findings": [f.to_jsonable() for f in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI body for ``python -m repro.analyze flow`` (returns exit code)."""
    import argparse
    import sys
    from pathlib import Path

    from . import baseline as baseline_mod

    parser = argparse.ArgumentParser(
        prog="repro-analyze flow",
        description=(
            "interprocedural determinism-taint and fork-purity analysis "
            "over the simulator sources"
        ),
    )
    parser.add_argument("root", nargs="?", default="src/repro")
    parser.add_argument("--package", default="repro")
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings recorded in this baseline file",
    )
    parser.add_argument(
        "--update-baseline",
        metavar="FILE",
        help="write every current finding to FILE and exit 0",
    )
    parser.add_argument(
        "--json", metavar="FILE", help="machine-readable report ('-' for stdout)"
    )
    parser.add_argument(
        "--sarif", metavar="FILE", help="write a SARIF 2.1.0 report to FILE"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(FLOW_RULES.items()):
            print(f"{rule}  {desc}")
        return 0

    findings = analyze_tree(args.root, args.package)

    if args.update_baseline:
        baseline_mod.write_baseline(findings, args.update_baseline)
        print(
            f"repro.analyze flow: wrote {len(findings)} finding(s) to "
            f"{args.update_baseline}"
        )
        return 0

    unused: List[str] = []
    if args.baseline:
        base = baseline_mod.load_baseline(args.baseline)
        findings, unused = baseline_mod.apply_baseline(findings, base)

    fingerprints = {f: baseline_mod.fingerprint(f) for f in findings}
    if args.sarif:
        Path(args.sarif).write_text(
            sarif_report(findings, fingerprints=fingerprints), encoding="utf-8"
        )
    if args.json:
        text = report_json(findings)
        if args.json == "-":
            sys.stdout.write(text)
        else:
            Path(args.json).write_text(text, encoding="utf-8")
    if args.json != "-":
        for finding in findings:
            print(finding.render())
        for entry in unused:
            print(f"warning: baseline entry no longer matches anything: {entry}")
        print(
            f"repro.analyze flow: {len(findings)} new finding(s)"
            if findings
            else "repro.analyze flow: clean"
        )
    return 1 if findings else 0


__all__ = [
    "FLOW_RULES",
    "FlowAnalysis",
    "FlowFinding",
    "SinkRecord",
    "Tag",
    "analyze_program",
    "analyze_tree",
    "main",
    "report_json",
    "sarif_report",
]
