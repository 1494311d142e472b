"""Benchmark harness: the experiment registry behind every table/figure.

A figure is a registry entry's default cells (``default_cells``); a cell
is always ``(experiment, params)`` and ``run_sweep_cell`` runs it,
returning structured rows that ``format_table`` renders next to the
paper's published values (recorded in EXPERIMENTS.md).
"""

from .harness import (
    ExperimentRow,
    default_cells,
    format_table,
    multihoming_failover,
    resolve_sweep_params,
    run_sweep_cell,
    scaled,
)

__all__ = [
    "ExperimentRow",
    "default_cells",
    "format_table",
    "multihoming_failover",
    "resolve_sweep_params",
    "run_sweep_cell",
    "scaled",
]
