"""Declarative sweep orchestrator with resumable caching (ROADMAP item 4).

The paper's evaluation is one big parameter matrix — app x protocol x
loss x message size x fan-out.  ``repro.sweep`` makes that matrix a
*document*: a JSON spec expands into validated cells of the
:mod:`repro.bench.harness` registry, executes under a concurrency cap
with per-cell caching keyed by (config digest, code version), and
merges into one byte-stable result document.  ``repro.sweep report``
appends normalized snapshots to the committed ``BENCH_trajectory.json``
so CI and re-anchors gate on the perf/result *curve*, not one number.

Layers (each its own module, composable from Python as well as the CLI):

=============  ==========================================================
``spec``       spec parsing/validation -> expanded :class:`Cell` list
``digest``     content digests: (resolved params, code version, scale)
``cache``      digest-keyed per-cell result cache (atomic, resumable)
``runner``     cache-aware fan-out + deterministic spec-order merge
``report``     trajectory entries (sweep cells + ledger medians), trend table
``verify``     the run-twice/cmp + warm-resume CI gate as one call
=============  ==========================================================
"""

from .cache import SweepCache
from .digest import canonical_json, cell_digest, code_version, current_scale
from .report import (
    BEGIN_MARK,
    END_MARK,
    TrajectoryError,
    append_trajectory,
    build_entry,
    load_trajectory,
    render_trend_table,
    update_experiments_md,
)
from .runner import SweepRunResult, dumps_result, merge_cells, run_sweep
from .spec import Cell, SweepError, SweepSpec, cell_id, load_spec, spec_from_dict
from .verify import verify_spec

__all__ = [
    "BEGIN_MARK",
    "Cell",
    "END_MARK",
    "SweepCache",
    "SweepError",
    "SweepRunResult",
    "SweepSpec",
    "TrajectoryError",
    "append_trajectory",
    "build_entry",
    "canonical_json",
    "cell_digest",
    "cell_id",
    "code_version",
    "current_scale",
    "dumps_result",
    "load_spec",
    "load_trajectory",
    "merge_cells",
    "render_trend_table",
    "run_sweep",
    "spec_from_dict",
    "update_experiments_md",
    "verify_spec",
]
