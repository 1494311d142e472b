"""Execute a sweep: cache lookup, dirty-cell fan-out, deterministic merge.

The runner is a thin deterministic pipeline:

1. digest every cell of the (already expanded and validated) spec;
2. satisfy what it can from the :class:`~repro.sweep.cache.SweepCache`
   (a corrupted entry is a logged miss, never an abort);
3. run each remaining *dirty* digest once — in this process for
   ``jobs <= 1``, else under a concurrency cap via
   :func:`repro.supervise.supervised_map`, the same order-preserving
   fan-out ``python -m repro.bench --jobs`` uses.  Each cell's rows go
   into the cache as soon as that cell finishes, so when a cell fails
   (it raises, naming the cell) the finished ones are kept, and a
   re-run of the sweep recomputes only what was lost;
4. merge all rows back **in spec order**, never completion order, into
   one result document.

Steps 2-3 are the only stateful parts; the merge is a pure function
(:func:`merge_cells`) of the spec and a ``{digest: rows}`` mapping, so
the merged document is byte-identical whether cells came from the
cache, a serial run, or a shuffled parallel completion — the property
``python -m repro.sweep verify`` checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..bench.harness import run_cell_task
from ..supervise import supervised_map
from .cache import SweepCache
from .digest import cell_digest, code_version, current_scale
from .spec import Cell, SweepSpec

RESULT_SCHEMA = 1


@dataclass
class SweepRunResult:
    """One sweep execution: the merged document plus what actually ran."""

    doc: Dict[str, Any]
    executed: List[str] = field(default_factory=list)  # cell ids computed here
    cached: List[str] = field(default_factory=list)  # cell ids from cache
    # always empty: a lost cell raises.  benchmarks/ledger/workloads.py
    # (the sweep_interleave workload) still reads it
    quarantined: List[str] = field(default_factory=list)


def _run_cell(item: Tuple[Cell, str, Optional[SweepCache]]) -> List[Dict[str, Any]]:
    """Worker body: one dirty cell's rows, cached as soon as they exist."""
    cell, digest, cache = item
    rows, _runs = run_cell_task((cell.experiment, cell.resolved, False))
    if cache is not None:
        cache.put(digest, cell, rows)
    return rows


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache: Optional[SweepCache] = None,
) -> SweepRunResult:
    """Run every cell of ``spec`` (cache-aware) and merge the results.

    A failing cell raises once the other dirty cells have run; their
    rows are already in ``cache``.
    """
    code = code_version()
    scale = current_scale()
    rows_by_digest: Dict[str, List[Dict[str, Any]]] = {}
    dirty: Dict[str, Cell] = {}  # digest -> the first cell that needs it
    executed: List[str] = []
    cached_ids: List[str] = []
    for cell in spec.cells:
        digest = cell_digest(cell.experiment, cell.resolved, code=code, scale=scale)
        if digest not in rows_by_digest and digest not in dirty:
            rows = cache.get(digest) if cache is not None else None
            if rows is None:
                dirty[digest] = cell
            else:
                rows_by_digest[digest] = rows
        # cells resolving to the same computation share its rows, so a
        # cell counts as cached or executed by where its digest's came from
        (cached_ids if digest in rows_by_digest else executed).append(cell.id)
    items = [(cell, digest, cache) for digest, cell in dirty.items()]
    if jobs <= 1:
        outputs = [_run_cell(item) for item in items]
    else:
        ids = [cell.id for cell in dirty.values()]
        outputs = supervised_map(_run_cell, items, jobs=jobs, task_ids=ids).results
    rows_by_digest.update(zip(dirty, outputs))
    doc = merge_cells(spec, rows_by_digest, code=code, scale=scale)
    return SweepRunResult(doc=doc, executed=executed, cached=cached_ids)


def merge_cells(
    spec: SweepSpec,
    rows_by_digest: Dict[str, List[Dict[str, Any]]],
    code: Optional[str] = None,
    scale: Optional[str] = None,
) -> Dict[str, Any]:
    """Pure deterministic merge: cells in spec order, whatever the
    iteration/completion order of ``rows_by_digest`` was.  A cell whose
    digest is missing raises ``KeyError``."""
    code = code if code is not None else code_version()
    scale = scale if scale is not None else current_scale()
    cells = []
    for cell in spec.cells:
        digest = cell_digest(cell.experiment, cell.resolved, code=code, scale=scale)
        cells.append(
            {
                "id": cell.id,
                "experiment": cell.experiment,
                "params": cell.resolved,
                "digest": digest,
                "rows": rows_by_digest[digest],
            }
        )
    return {
        "schema": RESULT_SCHEMA,
        "name": spec.name,
        "code_version": code,
        "scale": scale,
        "cells": cells,
    }


def dumps_result(doc: Dict[str, Any]) -> str:
    """The byte-stable serialisation every determinism gate compares."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
