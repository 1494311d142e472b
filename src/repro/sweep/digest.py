"""Content digests: the cache key of one sweep cell.

A cell's digest commits to everything that can change its rows:

* the experiment name and the *resolved* parameter mapping (defaults
  filled in, so adding an explicit ``seed=1`` to a spec does not dirty
  a cache built without it);
* the code version — a digest over every ``src/repro`` source file, so
  any code change invalidates every cached cell (coarse on purpose:
  correctness beats cache hits, and a full smoke sweep is cheap);
* the scale switch (``REPRO_FULL``), which changes iteration counts.

Digests are pure functions of those inputs — no wall clock, no
hostnames — which is what makes a cache hit byte-equivalent to a rerun.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from ..bench.harness import full_scale

DIGEST_SCHEMA = 1


def canonical_json(obj: Any) -> str:
    """Key-sorted, separator-normalised JSON (tuples serialise as lists)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@functools.cache
def _source_tree() -> Tuple[str, Dict[str, int]]:
    """One walk over every ``repro`` source file (memoised per process):
    the content digest and the physical line count per package."""
    root = Path(__file__).resolve().parent.parent  # src/repro
    hasher = hashlib.sha256()
    lines: Dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        data = path.read_bytes()
        hasher.update(rel.as_posix().encode())
        hasher.update(b"\0")
        hasher.update(data)
        hasher.update(b"\0")
        package = rel.parts[0] if len(rel.parts) > 1 else "."
        lines[package] = lines.get(package, 0) + data.count(b"\n")
    return hasher.hexdigest()[:16], lines


def code_version() -> str:
    """Digest of every ``repro`` source file.

    Computed from file contents rather than a VCS revision so dirty
    working trees invalidate correctly and the cache works without git.
    """
    return _source_tree()[0]


def source_lines() -> Dict[str, int]:
    """Physical ``.py`` lines per ``src/repro/<package>`` (``.`` = top-level
    files) — the "least code" metric trajectory entries record."""
    return dict(_source_tree()[1])


def current_scale() -> str:
    """The scale half of the cache key: ``full`` or ``scaled``."""
    return "full" if full_scale() else "scaled"


def cell_digest(
    experiment: str,
    resolved_params: Mapping[str, Any],
    code: Optional[str] = None,
    scale: Optional[str] = None,
) -> str:
    """The content digest one cell's cached rows are keyed by."""
    doc = {
        "schema": DIGEST_SCHEMA,
        "experiment": experiment,
        "params": dict(resolved_params),
        "code": code if code is not None else code_version(),
        "scale": scale if scale is not None else current_scale(),
    }
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()
