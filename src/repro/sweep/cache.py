"""Resumable per-cell result cache.

One JSON file per cell under a cache directory (default
``.sweep-cache/``), named by the cell's content digest.  Because the
digest commits to (resolved params, code version, scale), a lookup
needs no further validation: if the file exists and round-trips, its
rows are exactly what rerunning the cell would produce.  Writes are
atomic (tmp file + ``os.replace``) so an interrupted sweep never leaves
a truncated entry behind — the resume run just recomputes that cell.

A corrupted or truncated entry (a torn disk write, a bad copy) is
never fatal: :meth:`SweepCache.get` logs a one-line warning with the
digest and reports a miss, so the runner recomputes the cell and
overwrites the bad entry as soon as the cell finishes.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from .spec import Cell

CACHE_SCHEMA = 1

log = logging.getLogger("repro.sweep.cache")


class SweepCache:
    """Digest-keyed cell cache rooted at one directory."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    def path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def get(self, digest: str) -> Optional[List[Dict[str, Any]]]:
        """Cached rows for a digest, or ``None`` on any miss/mismatch.

        A missing file is a silent miss (the normal cold-cache case);
        an *existing but unusable* entry — unreadable, truncated,
        invalid JSON, schema/digest mismatch, malformed rows — is a
        logged miss: the caller recomputes and overwrites it.
        """
        path = self.path(digest)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as err:
            log.warning("cache entry %s unreadable (%s): recomputing", digest, err)
            return None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            log.warning(
                "cache entry %s corrupt/truncated (%s): recomputing", digest, err
            )
            return None
        if not isinstance(doc, dict) or doc.get("schema") != CACHE_SCHEMA:
            log.warning(
                "cache entry %s has unexpected schema: recomputing", digest
            )
            return None
        if doc.get("digest") != digest:
            log.warning(
                "cache entry %s keyed by mismatching digest %r: recomputing",
                digest,
                doc.get("digest"),
            )
            return None
        rows = doc.get("rows")
        if not isinstance(rows, list):
            log.warning("cache entry %s has malformed rows: recomputing", digest)
            return None
        return rows

    def put(self, digest: str, cell: Cell, rows: List[Dict[str, Any]]) -> None:
        """Store one cell's rows (atomically) under its digest."""
        self.root.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema": CACHE_SCHEMA,
            "digest": digest,
            "cell": cell.id,
            "experiment": cell.experiment,
            "params": cell.resolved,
            "rows": rows,
        }
        target = self.path(digest)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        os.replace(tmp, target)

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in sorted(self.root.glob("*.json")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
