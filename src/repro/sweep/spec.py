"""Declarative sweep specs: the parameter matrix as a document.

A spec is a JSON (or YAML, when PyYAML happens to be installed — it is
deliberately *not* a dependency) document describing one named sweep as
a list of blocks, each of which expands to cells of one experiment from
the :mod:`repro.bench.harness` registry::

    {
      "name": "smoke",
      "description": "CI smoke sweep",
      "sweeps": [
        {
          "experiment": "pingpong",
          "matrix": {"protocol": ["tcp", "sctp"], "loss": [0.0, 0.01]},
          "params": {"size": 30720, "iterations": 12}
        },
        {
          "experiment": "farm",
          "cells": [
            {"protocol": "tcp", "size_label": "short", "loss": 0.0},
            {"protocol": "sctp", "size_label": "short", "loss": 0.0}
          ],
          "params": {"fanout": 1, "num_tasks": 40}
        }
      ]
    }

Per block, exactly one of:

* ``matrix`` — cross-product axes: every combination of the listed
  values becomes a cell (values vary fastest in the *last* listed axis);
* ``cells`` — an explicit list of parameter points;

and optionally ``params``: parameters fixed for every cell of the
block.  Any registry parameter — axis or free (seed, iterations,
fault ``scenario``, ...) — may appear in either place, but not both.

Expansion is eager and fully validated: unknown experiments, unknown or
illegal parameter values, empty products, and duplicate cell ids all
raise :class:`SweepError` at load time, before any simulation runs.
Cell ids are canonical (``experiment[axis=...,param=...]`` with axes in
registry order, then free params sorted), so the same spec always
yields the same ids in the same order — the order every merged result
document uses.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from ..bench import harness
from ..bench.harness import cell_id


class SweepError(ValueError):
    """A sweep spec is malformed (raised at load/expansion time)."""


@dataclass(frozen=True)
class Cell:
    """One expanded sweep cell.

    ``params`` is the spec's explicit view (what the document said);
    ``resolved`` is the validated, default-filled view the runner
    executes and the content digest is computed over.
    """

    id: str
    experiment: str
    params: Dict[str, Any]
    resolved: Dict[str, Any]


@dataclass(frozen=True)
class SweepSpec:
    """A named, fully expanded sweep: cells in canonical spec order."""

    name: str
    description: str
    cells: Tuple[Cell, ...]

    def experiments(self) -> List[str]:
        """Distinct experiment names, in first-appearance order."""
        seen: Dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.experiment, None)
        return list(seen)


_TOP_KEYS = {"name", "description", "schema", "sweeps"}
_BLOCK_KEYS = {"experiment", "matrix", "cells", "params"}


def spec_from_dict(doc: Any) -> SweepSpec:
    """Expand and validate a spec document into a :class:`SweepSpec`."""
    if not isinstance(doc, Mapping):
        raise SweepError("sweep spec must be a mapping")
    unknown_top = sorted(set(doc) - _TOP_KEYS)
    if unknown_top:
        raise SweepError(f"unknown top-level key(s): {', '.join(unknown_top)}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise SweepError("sweep spec needs a non-empty string 'name'")
    description = doc.get("description", "")
    blocks = doc.get("sweeps")
    if not isinstance(blocks, list) or not blocks:
        raise SweepError("sweep spec needs a non-empty 'sweeps' list")

    cells: List[Cell] = []
    seen_ids: Dict[str, str] = {}
    for index, block in enumerate(blocks):
        where = f"sweeps[{index}]"
        if not isinstance(block, Mapping):
            raise SweepError(f"{where}: block must be a mapping")
        unknown = sorted(set(block) - _BLOCK_KEYS)
        if unknown:
            raise SweepError(f"{where}: unknown key(s): {', '.join(unknown)}")
        experiment = block.get("experiment")
        if not isinstance(experiment, str) or not experiment:
            raise SweepError(f"{where}: needs an 'experiment' name")
        if experiment not in harness.MATRICES:
            raise SweepError(
                f"{where}: unknown experiment {experiment!r} "
                f"(known: {', '.join(harness.MATRICES)})"
            )
        base = block.get("params", {})
        if not isinstance(base, Mapping):
            raise SweepError(f"{where}: 'params' must be a mapping")
        points = _expand_points(block, where)
        for point in points:
            clash = sorted(set(point) & set(base))
            if clash:
                raise SweepError(
                    f"{where}: parameter(s) set both per-cell and in 'params': "
                    f"{', '.join(clash)}"
                )
            params = {**base, **point}
            try:
                resolved = harness.resolve_sweep_params(experiment, params)
            except ValueError as err:
                raise SweepError(f"{where}: {err}") from None
            cid = cell_id(experiment, params)
            if cid in seen_ids:
                raise SweepError(
                    f"{where}: duplicate cell id {cid!r} "
                    f"(first produced by {seen_ids[cid]})"
                )
            seen_ids[cid] = where
            cells.append(Cell(cid, experiment, dict(params), resolved))
    return SweepSpec(name=name, description=description, cells=tuple(cells))


def _expand_points(block: Mapping, where: str) -> List[Dict[str, Any]]:
    """One block's cell points: cross-product matrix or explicit list."""
    matrix = block.get("matrix")
    explicit = block.get("cells")
    if matrix is not None and explicit is not None:
        raise SweepError(f"{where}: use either 'matrix' or 'cells', not both")
    if explicit is not None:
        if not isinstance(explicit, list) or not explicit:
            raise SweepError(f"{where}: 'cells' must be a non-empty list")
        points = []
        for j, point in enumerate(explicit):
            if not isinstance(point, Mapping):
                raise SweepError(f"{where}.cells[{j}]: cell must be a mapping")
            points.append(dict(point))
        return points
    if matrix is None:
        # a bare block is a single point made of 'params' alone
        return [{}]
    if not isinstance(matrix, Mapping) or not matrix:
        raise SweepError(f"{where}: 'matrix' must be a non-empty mapping")
    axis_names = list(matrix)
    value_lists = []
    for axis in axis_names:
        values = matrix[axis]
        if not isinstance(values, list) or not values:
            raise SweepError(
                f"{where}: matrix axis {axis!r} has an empty value list "
                "(the cross product would be empty)"
            )
        value_lists.append(values)
    return [
        dict(zip(axis_names, combo)) for combo in itertools.product(*value_lists)
    ]


def load_spec(path: str) -> SweepSpec:
    """Load a spec file (JSON always; YAML when PyYAML is importable)."""
    lower = str(path).lower()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise SweepError(f"cannot read sweep spec {path}: {err}") from None
    if lower.endswith((".yaml", ".yml")):
        try:
            import yaml  # type: ignore[import-not-found]
        except ImportError:
            raise SweepError(
                f"{path}: YAML specs need PyYAML, which is not installed; "
                "use the JSON form instead"
            ) from None
        doc = yaml.safe_load(text)
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise SweepError(f"{path}: invalid JSON: {err}") from None
    return spec_from_dict(doc)
