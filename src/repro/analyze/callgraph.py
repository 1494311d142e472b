"""The program model every static rule reads: sources, names, calls.

:class:`Program` is the only thing in :mod:`repro.analyze` that reads,
parses and tokenizes source.  Each ``.py`` file is read once; what the
rules need from it is recorded on its :class:`ModuleInfo`: the tree, the
``# repro: allow[...]`` comments, a syntax error (AN100) if it did not
parse, the import table, module-level names and every function / method
indexed by dotted qualname (``repro.network.host.Host.send``).
The vocabulary the rules share lives here too: one :class:`Finding`,
one :data:`RULES` table and one nondeterminism-source recogniser
(:meth:`Program.source_kind`), so the call-site rules (AN101/AN102) and
the taint sources (AN201-AN205) cannot disagree about what a source is.

The model is deliberately static and conservative:

* call resolution handles the cases that matter in this codebase —
  module-local calls, ``from x import f`` / ``import x as y`` aliases,
  ``self.method()`` within a class (following statically-resolvable
  bases), ``Class.method()``, and ``module.func()`` — and falls back to
  *by-name* method matching for ``obj.method()`` on a receiver of
  unknown type (every known method of that name is a candidate, capped
  so wildly common names don't connect everything to everything);
* calls that cannot be resolved at all (``fn(*args)`` through a
  variable, the kernel's event dispatch) produce no edges: the engines
  treat them conservatively at the call site instead.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

RULES: Dict[str, str] = {
    "AN100": "syntax error; the file could not be parsed",
    "AN101": "wall-clock read; use kernel.now / virtual time",
    "AN102": "module-level randomness; use kernel.rng(label) or a seeded generator",
    "AN103": "iteration over a set; order follows PYTHONHASHSEED",
    "AN104": "id() used for ordering; ids are allocation addresses",
    "AN105": "kernel heap internals touched outside simkernel/kernel.py",
    "AN106": "unused suppression; the allow comment matches no finding",
    "AN107": "definition referenced nowhere else in the program",
    "AN201": "wall-clock value flows into a simulation-visible sink",
    "AN202": "unseeded-randomness value flows into a simulation-visible sink",
    "AN203": "process-identity value flows into a simulation-visible sink",
    "AN204": "hash-order-dependent value flows into a simulation-visible sink",
    "AN205": "environment-derived value flows into a simulation-visible sink",
}

#: source kind -> (rule at the call site, rule when the value reaches a
#: sink).  Process identity, hash order and environment reads are only a
#: defect once they flow somewhere simulation-visible.
SOURCE_RULES: Dict[str, Tuple[Optional[str], str]] = {
    "wall-clock": ("AN101", "AN201"),
    "randomness": ("AN102", "AN202"),
    "process-identity": (None, "AN203"),
    "hash-order": (None, "AN204"),
    "environment": (None, "AN205"),
}

# time-module functions that read the host clock
_WALL_CLOCK_TIME = {
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
}
# datetime/date constructors that embed "now"
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today"}
# the only attributes of the random/np.random modules that name a
# *constructible, seedable* generator rather than the shared global stream
_SEEDABLE_RANDOM = {"Random", "SystemRandom"}
_SEEDABLE_NUMPY = {"default_rng", "Generator", "SeedSequence", "RandomState"}
_OS_SOURCES = {
    "urandom": "randomness",
    "getpid": "process-identity",
    "getppid": "process-identity",
    "getenv": "environment",
}

_ALLOW = re.compile(r"#\s*repro:\s*allow(-file)?\[([A-Za-z0-9_,\s-]+)\]")

#: ``obj.method()`` on an unknown receiver matches every known method of
#: that name — but only when the name is rare enough to be meaningful.
BY_NAME_CAP = 12


@dataclass(frozen=True)
class Finding:
    """One hit of one rule, pointing at a file:line:col.

    The whole-program rules (AN2xx) also fill ``function`` (the qualname
    the finding anchors in), ``source`` / ``sink`` and the step-by-step
    ``trace``.  An allow comment on ``line`` (the sink line for a taint
    finding) is the one way to accept it.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    function: str = ""
    source: str = ""
    sink: str = ""
    trace: Tuple[str, ...] = ()

    def render(self) -> str:
        head = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        return "\n".join([head, *(f"    {step}" for step in self.trace)])


@dataclass(frozen=True)
class AllowComment:
    """One ``# repro: allow[...]`` / ``allow-file[...]`` comment."""

    line: int
    col: int  # 1-based, pointing at the comment token
    file_wide: bool
    rules: Tuple[str, ...]

    def covers(self, rule: str, line: int) -> bool:
        return rule in self.rules and (self.file_wide or self.line == line)


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the program."""

    qualname: str  # "repro.network.host.Host.send"
    module: str  # "repro.network.host"
    path: str  # source file (as given to Program.load)
    name: str  # bare name ("send")
    class_name: Optional[str]  # enclosing class, None for module-level
    params: Tuple[str, ...]  # positional-or-keyword parameter names, in order
    lineno: int
    node: ast.AST = field(repr=False, compare=False, hash=False)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def shortname(self) -> str:
        """Class-qualified name without the module prefix."""
        return f"{self.class_name}.{self.name}" if self.class_name else self.name


@dataclass
class ClassInfo:
    """One class definition: its methods and statically-named bases."""

    qualname: str
    name: str
    module: str
    bases: List[str]  # dotted base names as written (resolved lazily)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed source file and its name-resolution tables."""

    name: str  # dotted module name
    path: str
    tree: ast.Module = field(repr=False)  # empty when the file did not parse
    allows: List[AllowComment] = field(default_factory=list)
    syntax_error: Optional[Finding] = None  # AN100
    # local binding -> fully dotted target ("np" -> "numpy",
    # "Packet" -> "repro.network.packet.Packet")
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)  # local qual
    classes: Dict[str, ClassInfo] = field(default_factory=dict)  # bare name
    global_names: Set[str] = field(default_factory=set)  # module-level variables


@dataclass(frozen=True)
class CallEdge:
    """One resolved call: caller -> callee at a source line."""

    caller: str
    callee: str
    lineno: int
    by_name: bool  # resolved only by method-name matching


class CallTarget(NamedTuple):
    """Resolution result for one call expression."""

    functions: List[FunctionInfo]  # candidate callees
    by_name: bool = False  # resolved only by method-name matching


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted rendering of a Name/Attribute chain ('' if not one)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _module_name(file: Path) -> str:
    """Dotted name read off the chain of ``__init__.py`` packages above *file*."""
    parts = [] if file.stem == "__init__" else [file.stem]
    parent = file.absolute().parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts))


def _parse(
    path: str, source: str
) -> Tuple[ast.Module, List[AllowComment], Optional[Finding]]:
    """Source text to (tree, allow comments, syntax error) — the one place.

    The comments come from the token stream rather than a line regex,
    which keeps us honest about what is a comment versus a string
    literal containing one.  A file that does not parse yields an empty
    tree and no comments: every rule sees nothing and AN100 cannot be
    suppressed.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        finding = Finding(
            path, err.lineno or 1, (err.offset or 0) + 1, "AN100",
            f"syntax error: {err.msg}",
        )
        return ast.Module(body=[], type_ignores=[]), [], finding
    allows: List[AllowComment] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            for match in _ALLOW.finditer(tok.string):
                rules = tuple(
                    r.strip() for r in match.group(2).split(",") if r.strip()
                )
                allows.append(
                    AllowComment(
                        tok.start[0], tok.start[1] + 1, bool(match.group(1)), rules
                    )
                )
    except tokenize.TokenError:
        pass  # the tree parsed; a tokenizer quirk only loses suppressions
    return tree, allows, None


def _resolve_relative(module: str, level: int, target: Optional[str]) -> str:
    """Resolve a ``from ...x import y`` module reference to a dotted name."""
    if level == 0:
        return target or ""
    # level 1 = the module's own package, each extra level goes one up
    base = module.split(".")[: -(level)] if level <= module.count(".") + 1 else []
    if target:
        base = [*base, target]
    return ".".join(base)


def _collect_global_names(tree: ast.Module) -> Set[str]:
    """Names bound at module level (outside any function/class body)."""
    names: Set[str] = set()

    def scan(stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    _bind_target(target, names)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                _bind_target(stmt.target, names)
            elif isinstance(stmt, (ast.If, ast.Try, ast.For, ast.While, ast.With)):
                scan(getattr(stmt, "body", []))
                scan(getattr(stmt, "orelse", []))
                scan(getattr(stmt, "finalbody", []))
                for handler in getattr(stmt, "handlers", []):
                    scan(handler.body)

    scan(tree.body)
    return names


def _bind_target(target: ast.AST, names: Set[str]) -> None:
    if isinstance(target, ast.Name):
        names.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _bind_target(element, names)


def _param_names(node: ast.AST) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in (*args.posonlyargs, *args.args)]
    names.extend(a.arg for a in args.kwonlyargs)
    return tuple(names)


class Program:
    """Every module under one package root, indexed for resolution."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}  # dotted qualname -> info
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}

    @classmethod
    def load(cls, *paths: str) -> "Program":
        """Read every ``.py`` file under the given files / directories."""
        files: List[Path] = []
        for raw in paths:
            path = Path(raw)
            files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
        program = cls()
        for file in dict.fromkeys(files):  # dedupe overlapping path arguments
            name = _module_name(file)
            if name in program.modules:  # two scripts sharing a stem
                name = ".".join(file.with_suffix("").parts)
            program._add_module(name, str(file), file.read_text(encoding="utf-8"))
        return program

    @classmethod
    def from_sources(  # repro: allow[AN107] — test seam for planted programs
        cls, sources: Dict[str, Tuple[str, str]]
    ) -> "Program":
        """Build from in-memory sources: ``{module_name: (path, source)}``.

        Test seam — lets planted-leak tests assemble a program without
        touching the filesystem.
        """
        program = cls()
        for name in sorted(sources):
            program._add_module(name, *sources[name])
        return program

    # -- construction ----------------------------------------------------
    def _add_module(self, name: str, path: str, source: str) -> None:
        tree, allows, syntax_error = _parse(path, source)
        module = ModuleInfo(name, path, tree, allows, syntax_error)
        self.modules[name] = module
        module.global_names = _collect_global_names(tree)
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    binding = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    module.imports[binding] = target
            elif isinstance(stmt, ast.ImportFrom):
                base = _resolve_relative(name, stmt.level, stmt.module)
                for alias in stmt.names:
                    binding = alias.asname or alias.name
                    module.imports[binding] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                info = ClassInfo(
                    qualname=f"{name}.{stmt.name}",
                    name=stmt.name,
                    module=name,
                    bases=[dotted_name(b) for b in stmt.bases if dotted_name(b)],
                )
                module.classes[stmt.name] = info
                self.classes[info.qualname] = info
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(module, sub, class_name=stmt.name)

    def _add_function(
        self,
        module: ModuleInfo,
        node: ast.AST,
        class_name: Optional[str],
    ) -> None:
        local = f"{class_name}.{node.name}" if class_name else node.name
        info = FunctionInfo(
            qualname=f"{module.name}.{local}",
            module=module.name,
            path=module.path,
            name=node.name,
            class_name=class_name,
            params=_param_names(node),
            lineno=node.lineno,
            node=node,
        )
        module.functions[local] = info
        self.functions[info.qualname] = info
        if class_name is not None:
            self.methods_by_name.setdefault(node.name, []).append(info)
            cls_info = module.classes.get(class_name)
            if cls_info is not None:
                cls_info.methods[node.name] = info
        # register nested defs too, so taint summaries cover callbacks and
        # worker closures (each is conservatively called by its parent;
        # see CallGraph.build)
        for sub in getattr(node, "body", []):
            self._add_nested(module, node, sub, prefix=f"{module.name}.{local}")

    def _add_nested(
        self, module: ModuleInfo, parent: ast.AST, stmt: ast.stmt, prefix: str
    ) -> None:
        """Register function defs nested directly inside ``parent``'s body."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                qualname=f"{prefix}.<locals>.{stmt.name}",
                module=module.name,
                path=module.path,
                name=stmt.name,
                class_name=None,
                params=_param_names(stmt),
                lineno=stmt.lineno,
                node=stmt,
            )
            self.functions[info.qualname] = info
            for sub in stmt.body:
                self._add_nested(module, stmt, sub, prefix=info.qualname)
            return
        for block in ("body", "orelse", "finalbody"):
            for sub in getattr(stmt, block, []):
                if isinstance(sub, ast.stmt):
                    self._add_nested(module, parent, sub, prefix)
        for handler in getattr(stmt, "handlers", []):
            for sub in handler.body:
                self._add_nested(module, parent, sub, prefix)

    # -- resolution ------------------------------------------------------
    @cached_property
    def package_roots(self) -> Set[str]:
        """Top-level package names covered by this program."""
        return {name.split(".")[0] for name in self.modules}

    @cached_property
    def graph(self) -> "CallGraph":
        """The call graph, built on first use and shared by the flow rules."""
        return CallGraph.build(self)

    def resolve_name(self, module: ModuleInfo, name: str) -> str:
        """Fully dotted resolution of a bare name in a module ('' if unknown)."""
        if name in module.functions:
            return f"{module.name}.{name}"
        if name in module.classes:
            return f"{module.name}.{name}"
        if name in module.imports:
            return module.imports[name]
        if name in module.global_names:
            return f"{module.name}.{name}"
        return ""

    def resolve_dotted(self, module: ModuleInfo, dotted: str) -> str:
        """Resolve the leading binding of a dotted chain through imports."""
        if not dotted:
            return ""
        head, sep, rest = dotted.partition(".")
        resolved_head = self.resolve_name(module, head)
        if not resolved_head:
            return dotted
        return f"{resolved_head}.{rest}" if sep else resolved_head

    def external_receiver(self, module: ModuleInfo, func: ast.Attribute) -> bool:
        """Is the receiver a known *external* module (``time.sleep`` with
        ``import time``)?"""
        head = dotted_name(func.value).split(".")[0]
        return (
            head in module.imports
            and module.imports[head].split(".")[0] not in self.package_roots
        )

    def source_kind(
        self, module: ModuleInfo, call: ast.Call
    ) -> Optional[Tuple[str, str]]:
        """(kind, rendered call) if this call reads a nondeterminism source.

        The callee is resolved through the module's import table first,
        so ``import time as _t; _t.time()``, ``from time import
        perf_counter as pc; pc()`` and ``from numpy.random import rand;
        rand()`` are the same sources as their plain spellings; a name
        the table does not know is matched as written.  The rendering is
        the resolved name, whatever the call site spells.
        """
        func = call.func
        if isinstance(func, ast.Name) and func.id == "hash":
            return "hash-order", "hash()"
        resolved = self.resolve_dotted(module, dotted_name(func))
        base, _, leaf = resolved.rpartition(".")
        kind = None
        if base == "time" and leaf in _WALL_CLOCK_TIME:
            kind = "wall-clock"
        elif leaf in _WALL_CLOCK_DATETIME and base.split(".")[-1] in (
            "datetime", "date",
        ):
            kind = "wall-clock"
        elif base == "random" and leaf not in _SEEDABLE_RANDOM:
            kind = "randomness"
        elif base in ("numpy.random", "np.random") and leaf not in _SEEDABLE_NUMPY:
            kind = "randomness"
        elif base == "uuid" and leaf in ("uuid1", "uuid4"):
            kind = "randomness"
        elif base == "os":
            kind = _OS_SOURCES.get(leaf)
        elif base.endswith("os.environ"):  # os.environ.get(...) and friends
            kind = "environment"
        return (kind, f"{resolved}()") if kind else None

    def class_method(
        self, cls_info: Optional[ClassInfo], method: str, _depth: int = 0
    ) -> Optional[FunctionInfo]:
        """Look up ``method`` on a class, walking statically-known bases."""
        if cls_info is None or _depth > 8:
            return None
        if method in cls_info.methods:
            return cls_info.methods[method]
        module = self.modules.get(cls_info.module)
        for base in cls_info.bases:
            resolved = self.resolve_dotted(module, base) if module else base
            found = self.class_method(self.classes.get(resolved), method, _depth + 1)
            if found is not None:
                return found
        return None

    def resolve_call(
        self,
        module: ModuleInfo,
        call: ast.Call,
        enclosing: Optional[FunctionInfo] = None,
    ) -> CallTarget:
        """Resolve one call expression to candidate callees."""
        func = call.func
        display = dotted_name(func)
        if isinstance(func, ast.Name):
            resolved = self.resolve_name(module, func.id)
            if resolved in self.functions:
                return CallTarget([self.functions[resolved]])
            if resolved in self.classes:
                init = self.class_method(self.classes[resolved], "__init__")
                return CallTarget([init] if init else [])
            return CallTarget([])
        if isinstance(func, ast.Attribute):
            attr = func.attr
            # module.func / Class.method through the import table
            if display:
                resolved = self.resolve_dotted(module, display)
                if resolved in self.functions:
                    return CallTarget([self.functions[resolved]])
                owner = resolved.rsplit(".", 1)[0] if "." in resolved else ""
                if owner in self.classes:
                    found = self.class_method(self.classes[owner], attr)
                    if found is not None:
                        return CallTarget([found])
            # self.method() / cls.method()
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and enclosing is not None
                and enclosing.class_name is not None
            ):
                own_cls = self.classes.get(f"{enclosing.module}.{enclosing.class_name}")
                found = self.class_method(own_cls, attr)
                if found is not None:
                    return CallTarget([found])
            # the callee lives outside the program, so by-name matching
            # would be pure noise — stop here
            if self.external_receiver(module, func):
                return CallTarget([])
            # unknown receiver: every known method of that name
            candidates = self.methods_by_name.get(attr, [])
            if candidates and len(candidates) <= BY_NAME_CAP and not attr.startswith("__"):
                return CallTarget(list(candidates), by_name=True)
        return CallTarget([])


class CallGraph:
    """Resolved call edges over one :class:`Program`."""

    def __init__(self) -> None:
        self.edges: Dict[str, List[CallEdge]] = {}

    @classmethod
    def build(cls, program: Program) -> "CallGraph":
        graph = cls()
        for qualname, info in program.functions.items():
            module = program.modules[info.module]
            edges: List[CallEdge] = []
            # ast.walk descends into nested defs too; their calls appear on
            # both the parent and the nested function's own edge list,
            # which only over-approximates the graph (safe direction)
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    target = program.resolve_call(module, node, info)
                    for callee in target.functions:
                        edges.append(
                            CallEdge(
                                caller=qualname,
                                callee=callee.qualname,
                                lineno=node.lineno,
                                by_name=target.by_name,
                            )
                        )
            # a nested def is conservatively "called" by its parent: it
            # only exists to run on the parent's behalf (callback, worker
            # loop body), so a summary that grows there re-runs the parent
            for nested_qual in program.functions:
                if nested_qual.startswith(f"{qualname}.<locals>.") and (
                    nested_qual.count(".<locals>.") == qualname.count(".<locals>.") + 1
                ):
                    edges.append(
                        CallEdge(
                            caller=qualname,
                            callee=nested_qual,
                            lineno=program.functions[nested_qual].lineno,
                            by_name=False,
                        )
                    )
            graph.edges[qualname] = edges
        return graph

    def callers_of(self) -> Dict[str, List[str]]:
        """Reverse adjacency: callee qualname -> caller qualnames."""
        reverse: Dict[str, List[str]] = {}
        for caller, edges in self.edges.items():
            for edge in edges:
                reverse.setdefault(edge.callee, []).append(caller)
        return reverse


__all__ = [
    "BY_NAME_CAP",
    "RULES",
    "SOURCE_RULES",
    "AllowComment",
    "CallEdge",
    "CallGraph",
    "CallTarget",
    "ClassInfo",
    "Finding",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "dotted_name",
]
