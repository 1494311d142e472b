"""The five workloads: what each builds, runs, and must get right.

A workload yields *legs*.  Building a leg (world, spec, app) is untimed
set-up; calling it is the measured phase.  ``virtual()`` turns the legs'
outputs into the workload's virtual-time document -- the thing a change
that only speeds the simulator up must leave untouched -- and raises
:class:`WorkLost` when the outputs show unfinished work.

Only public ``repro`` entry points are used, so a refactor behind them
cannot break the benchmark.
"""

from __future__ import annotations

import copy
import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.core.world import World, WorldConfig
from repro.workloads.farm import FarmParams, make_farm
from repro.workloads.halo import make_halo
from repro.workloads.mpbench import make_pingpong

import catalog

SPEC_PATH = Path(__file__).resolve().parent / "sweep_interleave.json"
PINGPONG_WARMUP = 2
HALO_WARMUP = 1

Leg = Tuple[str, Callable[[], Any]]


class WorkLost(Exception):
    """A repetition returned, but its outputs show unfinished work."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: int  # MPI messages, farm tasks or sweep cells one repetition must complete
    legs: Callable[[int, int, Path], Iterator[Leg]]  # (seed, limit_ns, workdir)
    virtual: Callable[[Dict[str, Any]], Any]  # {leg name: output} -> document


def virt_digest(document: Any) -> str:
    """sha256 over the canonical JSON of a workload's virtual-time outputs."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _run_world(world: World, app: Callable, limit_ns: int) -> List[Any]:
    return world.run(app, limit_ns=limit_ns).results


def _positive_ints(values: List[Any], what: str) -> List[int]:
    if not all(isinstance(v, int) and v > 0 for v in values):
        raise WorkLost(f"{what}: expected a positive virtual time per rank, got {values!r}")
    return values


# -- ping-pong ---------------------------------------------------------------
def _pingpong_legs(size: int, iters: int, seed: int, limit_ns: int, _workdir: Path):
    for rpi in ("tcp", "sctp"):
        world = World(WorldConfig(n_procs=2, rpi=rpi, seed=seed))
        app = make_pingpong(size, iters, warmup=PINGPONG_WARMUP)
        yield rpi, partial(_run_world, world, app, limit_ns)


def _pingpong_virtual(outputs: Dict[str, Any]) -> Any:
    return {rpi: _positive_ints(ranks, f"pingpong {rpi}") for rpi, ranks in outputs.items()}


def _pingpong(name: str, why: str, size: int, iters: int) -> Workload:
    return Workload(
        name, why,
        ops=2 * 2 * (iters + PINGPONG_WARMUP),
        legs=partial(_pingpong_legs, size, iters),
        virtual=_pingpong_virtual,
    )


# -- farm --------------------------------------------------------------------
def _farm_legs(params: FarmParams, n_procs: int, seed: int, limit_ns: int, _workdir: Path):
    for rpi in ("tcp", "sctp"):
        world = World(WorldConfig(
            n_procs=n_procs, rpi=rpi, seed=seed, loss_rate=0.01,
            num_streams=params.max_work_tags,
        ))
        yield rpi, partial(_run_world, world, make_farm(params), limit_ns)


def _farm_virtual(num_tasks: int, outputs: Dict[str, Any]) -> Any:
    document = {}
    for rpi, ranks in outputs.items():
        manager, workers = ranks[0], ranks[1:]
        if manager.tasks_done != num_tasks or sum(workers) != num_tasks:
            raise WorkLost(
                f"farm {rpi}: manager saw {manager.tasks_done}, workers did"
                f" {sum(workers)} of {num_tasks} tasks"
            )
        document[rpi] = {
            "elapsed_ns": manager.elapsed_ns,
            "per_worker": {str(w): n for w, n in sorted(manager.per_worker_tasks.items())},
            "workers": workers,
        }
    return document


def _farm(name: str, why: str, num_tasks: int, n_procs: int) -> Workload:
    params = FarmParams(
        num_tasks=num_tasks, task_size=30 * 1024, max_work_tags=10,
        outstanding_requests=10, fanout=10,
    )
    return Workload(
        name, why,
        ops=2 * num_tasks,
        legs=partial(_farm_legs, params, n_procs),
        virtual=partial(_farm_virtual, num_tasks),
    )


# -- halo --------------------------------------------------------------------
HALO_SIZES = {False: (16, 128 * 1024, 10), True: (8, 128 * 1024, 2)}  # ranks, bytes, iters


def halo_world(seed: int, quick: bool) -> Tuple[WorldConfig, Callable]:
    """``halo_pods``'s pod world and app (also what the PDES probe shards)."""
    n_procs, size, iters = HALO_SIZES[quick]
    config = WorldConfig(n_procs=n_procs, rpi="sctp", seed=seed, n_pods=2)
    return config, make_halo(size, iters, warmup=HALO_WARMUP)


def _halo_legs(quick: bool, seed: int, limit_ns: int, _workdir: Path):
    config, app = halo_world(seed, quick)
    yield "sctp", partial(_run_world, World(config), app, limit_ns)


def _halo_virtual(outputs: Dict[str, Any]) -> Any:
    return {"sctp": _positive_ints(outputs["sctp"], "halo")}


def _halo(name: str, why: str, quick: bool) -> Workload:
    n_procs, _size, iters = HALO_SIZES[quick]
    return Workload(
        name, why,
        ops=n_procs * (iters + HALO_WARMUP),
        legs=partial(_halo_legs, quick),
        virtual=_halo_virtual,
    )


# -- sweep -------------------------------------------------------------------
def sweep_spec(seed: int, quick: bool):
    """The private interleave spec with every block's ``seed`` replaced."""
    # imported here: only this workload should pay for loading repro.sweep
    from repro.sweep import spec_from_dict

    doc = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    if quick:
        doc["sweeps"] = doc["sweeps"][:1]
        doc["sweeps"][0]["cells"] = doc["sweeps"][0]["cells"][:2] + doc["sweeps"][0]["cells"][4:5]
        doc["sweeps"][0]["params"]["rounds"] = 2
    for block in doc["sweeps"]:
        block["params"]["seed"] = seed
    return spec_from_dict(doc)


def cold_sweep(spec, workdir: Path):
    """``run_sweep`` through the front door on a fresh, empty cache."""
    from repro.sweep import SweepCache, run_sweep

    cache_dir = Path(tempfile.mkdtemp(prefix="sweep-cache-", dir=workdir))
    try:
        return run_sweep(spec, jobs=1, cache=SweepCache(cache_dir))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _sweep_legs(quick: bool, seed: int, _limit_ns: int, workdir: Path):
    # cells run under the harness's own virtual-time ceiling, not limit_ns
    yield "sweep", partial(cold_sweep, sweep_spec(seed, quick), workdir)


def _sweep_virtual(n_cells: int, outputs: Dict[str, Any]) -> Any:
    result = outputs["sweep"]
    if result.quarantined or "failures" in result.doc or len(result.executed) != n_cells:
        raise WorkLost(
            f"sweep: {len(result.executed)} of {n_cells} cells executed,"
            f" {len(result.quarantined)} quarantined"
        )
    # code_version and the per-cell digests hash the source tree, so they
    # change with every commit; what is left is the cells' virtual results
    document = copy.deepcopy(result.doc)
    document.pop("code_version")
    for cell in document["cells"]:
        cell.pop("digest")
        if not cell["rows"]:
            raise WorkLost(f"sweep: cell {cell['id']} produced no rows")
        tasks = cell["params"].get("num_tasks")
        if tasks is not None and cell["rows"][0]["measured"]["tasks_done"] != tasks:
            raise WorkLost(f"sweep: cell {cell['id']} lost farm tasks")
    return document


def _sweep(name: str, why: str, quick: bool) -> Workload:
    # a constant so that building the workload parses the spec once; a
    # spec edit that changes the count fails every repetition in virtual()
    n_cells = 3 if quick else 19
    return Workload(
        name, why,
        ops=n_cells,
        legs=partial(_sweep_legs, quick),
        virtual=partial(_sweep_virtual, n_cells),
    )


def _factories(quick: bool) -> Dict[str, Callable[[str, str], Workload]]:
    return {
        "pingpong_16k": partial(_pingpong, size=16 * 1024, iters=20 if quick else 300),
        "pingpong_64b": partial(_pingpong, size=64, iters=100 if quick else 1500),
        "farm_lossy": partial(_farm, num_tasks=30 if quick else 200, n_procs=4 if quick else 8),
        "halo_pods": partial(_halo, quick=quick),
        "sweep_interleave": partial(_sweep, quick=quick),
    }


def get(name: str, quick: bool = False) -> Workload:
    """One workload at full size, or shrunken for ``--quick``."""
    return _factories(quick)[name](name, dict(catalog.WORKLOADS)[name])
