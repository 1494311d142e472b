"""The program model every static rule reads: sources and names.

:class:`Program` is the only thing in :mod:`repro.analyze` that reads,
parses and tokenizes source.  Each ``.py`` file is read once; what the
rules need from it is recorded on its :class:`ModuleInfo`: the tree, the
``# repro: allow[...]`` comments, a syntax error (AN100) if it did not
parse, the import table and the module's own top-level names.
The vocabulary the rules share lives here too: one :class:`Finding`,
one :data:`RULES` table and one nondeterminism-source recogniser
(:meth:`Program.source_kind`), so every call-site rule (AN101, AN102,
AN108) agrees on what a source is, under any import spelling.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

RULES: Dict[str, str] = {
    "AN100": "syntax error; the file could not be parsed",
    "AN101": "wall-clock read; use kernel.now / virtual time",
    "AN102": "module-level randomness; use kernel.rng(label) or a seeded generator",
    "AN103": "iteration over a set; order follows PYTHONHASHSEED",
    "AN104": "id() used for ordering; ids are allocation addresses",
    "AN105": "kernel heap internals touched outside simkernel/kernel.py",
    "AN106": "unused suppression; the allow comment matches no finding",
    "AN107": "definition referenced nowhere else in the program",
    "AN108": "process-state read (environment, process id, hash()); "
    "the shell or the process, not the seed, decides the value",
}

#: source kind -> the rule that flags it where it is read
SOURCE_RULES: Dict[str, str] = {
    "wall-clock": "AN101",
    "randomness": "AN102",
    "process-identity": "AN108",
    "hash-order": "AN108",
    "environment": "AN108",
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


@dataclass(frozen=True)
class Finding:
    """One hit of one rule, pointing at a file:line:col.

    An allow comment on ``line`` is the one way to accept it.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class AllowComment:
    """One ``# repro: allow[...]`` / ``allow-file[...]`` comment."""

    line: int
    col: int  # 1-based, pointing at the comment token
    file_wide: bool
    rules: Tuple[str, ...]

    def covers(self, rule: str, line: int) -> bool:
        return rule in self.rules and (self.file_wide or self.line == line)


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
    definitions: Set[str] = field(default_factory=set)  # top-level def / class names
    global_names: Set[str] = field(default_factory=set)  # module-level variables


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
    literal containing one; only a file whose text holds an allow
    comment's pattern is tokenized.  A file that does not parse yields
    an empty tree and no comments: every rule sees nothing and AN100
    cannot be suppressed.
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
    if not _ALLOW.search(source):
        return tree, allows, None
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


class Program:
    """Every module under one package root, indexed for resolution."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}

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
        module.definitions = {
            stmt.name
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }

    # -- resolution ------------------------------------------------------
    def resolve_name(self, module: ModuleInfo, name: str) -> str:
        """Fully dotted resolution of a bare name in a module ('' if unknown)."""
        if name in module.definitions:
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

    def source_kind(
        self, module: ModuleInfo, node: ast.expr
    ) -> Optional[Tuple[str, str]]:
        """(kind, rendered read) if this expression reads a source.

        A call is resolved through the module's import table first, so
        ``import time as _t; _t.time()``, ``from time import
        perf_counter as pc; pc()`` and ``from numpy.random import rand;
        rand()`` are the same sources as their plain spellings; a name
        the table does not know is matched as written.  ``os.environ``
        is a source wherever it is named (a subscript, ``.get``, ``in``,
        ``dict(...)``, ``from os import environ``), so the read is
        reported once, at the name.  The rendering is the resolved name,
        whatever the source spells.
        """
        if isinstance(node, (ast.Name, ast.Attribute)):
            if self.resolve_dotted(module, dotted_name(node)) == "os.environ":
                return "environment", "os.environ"
            return None
        if not isinstance(node, ast.Call):
            return None
        func = node.func
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
        return (kind, f"{resolved}()") if kind else None


__all__ = [
    "RULES",
    "SOURCE_RULES",
    "AllowComment",
    "Finding",
    "ModuleInfo",
    "Program",
    "dotted_name",
]
