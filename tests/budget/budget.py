"""The budget table: exact host-work counts per scenario, one file.

``BUDGET.json`` beside this file holds, for every scenario below, the
counts a run of it makes on CPython 3.11 with sanitizers and metrics
off: kernel events and packets, traced calls per layer (under the
ledger's ``catalog.PACKAGE_LAYER``), ``Future``s built, task resumes,
socket reads (``recv`` / ``recvmsg``), ``select()`` calls, RPI pumps
and wakes, progression steps per rank, the 20 most-called functions,
and, for the start-up scenarios, the ``repro`` modules a fresh
interpreter loads.  ``test_budget.py`` compares a fresh run with the
file: a count that rises fails, one that falls prints as a gain.

Regenerate the file (and show the change against the committed one)::

    PYTHONPATH=src python tests/budget/budget.py            # rewrite BUDGET.json
    PYTHONPATH=src python tests/budget/budget.py --out X.json --only wake_tcp

The table is measured, and compared, on CPython 3.11 only: 3.12 inlines
comprehensions (PEP 709), which changes cProfile's call counts.  A named
function's count does not depend on the interpreter, so ``measure`` runs
on 3.10 to 3.12 alike and the budget files' plain tests read it there:
functions are keyed ``file:qualname`` everywhere (3.10 has no
``co_qualname``; the name is looked up from the live function objects),
and ``extra["named"]`` sums each layer's calls without comprehension,
generator-expression, lambda or module frames.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
TABLE = HERE / "BUDGET.json"
TOP = 20
INTERPRETER = (3, 11)
ONLY_311 = (
    "the table holds CPython 3.11's cProfile counts: 3.12 inlines "
    "comprehensions (PEP 709), which changes them"
)
ON_311 = sys.implementation.name == "cpython" and sys.version_info[:2] == INTERPRETER

_spec = importlib.util.spec_from_file_location(
    "_ledger_catalog", HERE.parent.parent / "benchmarks" / "ledger" / "catalog.py"
)
catalog = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(catalog)


def _pingpong(rpi: str, size: int, round_trips: int, warmup: int = 0, **world) -> Tuple:
    from repro.workloads.mpbench import make_pingpong

    return dict(n_procs=2, rpi=rpi, seed=1, **world), make_pingpong(size, round_trips, warmup)


def _farm(rpi: str, loss_rate: float) -> Tuple:
    from repro.transport.base import SCTPConfig, TCPConfig
    from repro.workloads.farm import FarmParams, make_farm

    sndbuf = 72 * 1024  # just above one eager-limit piece: queues block constantly
    world = dict(
        n_procs=4, rpi=rpi, seed=1, loss_rate=loss_rate, num_streams=10,
        sctp_config=SCTPConfig(sndbuf=sndbuf), tcp_config=TCPConfig(sndbuf=sndbuf),
    )
    return world, make_farm(FarmParams(num_tasks=60, fanout=10))


#: world scenarios: name -> (rpi -> (WorldConfig fields, app)).  One per
#: stack: the ledger's ping-pong sizes, and the worlds the budgets were
#: first pinned on (DESIGN §9.3-§9.5)
WORLDS: Dict[str, Callable[[str], Tuple]] = {
    # the ledger's pingpong_64b / pingpong_16k, at their warm-up of 2
    "pingpong_64b": lambda rpi: _pingpong(rpi, 64, 1500, warmup=2),
    "pingpong_16k": lambda rpi: _pingpong(rpi, 16 * 1024, 300, warmup=2),
    # a 64 B message pays only for itself (per-message work)
    "message": lambda rpi: _pingpong(rpi, 64, 500),
    # 16 KiB: wakes, hops and TCP segments (per-packet and per-wake work)
    "wake": lambda rpi: _pingpong(rpi, 16 * 1024, 100),
    # 128 KiB: every message is fragmented (per-packet host work)
    "packet": lambda rpi: _pingpong(rpi, 128 * 1024, 10),
    # four kernel events per packet; metrics on for the timer-heap depth
    "event": lambda rpi: _pingpong(rpi, 16 * 1024, 50, warmup=2, metrics_enabled=True),
    # a farm whose manager's send queues block (progression steps)
    "farm": lambda rpi: _farm(rpi, 0.0),
    # the same farm at 1 % loss (write readiness)
    "farm_lossy": lambda rpi: _farm(rpi, 0.01),
}
STACKS = ("tcp", "sctp")

#: start-up scenarios: name -> (rpi or None for the static analyzer,
#: loss_rate, REPRO_SANITIZE)
STARTUPS: Dict[str, Tuple[Optional[str], float, str]] = {
    **{f"startup_{rpi}": (rpi, 0.0, "0") for rpi in STACKS},
    **{f"startup_{rpi}_lossy": (rpi, 0.01, "0") for rpi in STACKS},
    **{f"startup_{rpi}_sanitized": (rpi, 0.0, "1") for rpi in STACKS},
    "startup_analyzer": (None, 0.0, "0"),
}

LOADED = 'print(" ".join(sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))))'
PROBE = """
import sys
from repro.core import run_app

async def app(comm):
    if comm.rank == 0:
        await comm.send(b"x", dest=1)
    else:
        await comm.recv(source=0)

run_app(app, n_procs=2, rpi=sys.argv[1], loss_rate=float(sys.argv[2]))
""" + LOADED


def scenario_names() -> List[str]:
    """Every scenario, in table order."""
    return [f"{world}_{rpi}" for world in WORLDS for rpi in STACKS] + list(STARTUPS)


# -- measuring ----------------------------------------------------------------
_ADDRESS = re.compile(r" at 0x[0-9a-f]+")


def _qualnames() -> Dict[Any, str]:
    """Code object -> qualified name, for CPython 3.10 (no ``co_qualname``):
    every live function's, and the code nested in it named the way 3.11
    names it (``outer.<locals>.inner``)."""
    names: Dict[Any, str] = {}

    def visit(code: Any, qualname: str) -> None:
        names.setdefault(code, qualname)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                visit(const, f"{qualname}.<locals>.{const.co_name}")

    for obj in gc.get_objects():
        if isinstance(obj, types.FunctionType):
            visit(obj.__code__, obj.__qualname__)
    return names


def _function_key(code: Any, repro_root: Path, qualnames: Dict[Any, str]) -> Tuple[str, str]:
    """(layer, ``file:qualname``) of one profiler entry; a file under
    ``repro`` is named relative to the package, any other by its name."""
    if isinstance(code, str):  # a builtin: cProfile names it, at an address
        return "other", _ADDRESS.sub("", code)
    qualname = getattr(code, "co_qualname", None) or qualnames.get(code, code.co_name)
    path = Path(code.co_filename)
    try:
        rel = path.resolve().relative_to(repro_root).as_posix()
    except ValueError:
        return "other", f"~{path.name}:{qualname}"
    layer = "other"
    for prefix in sorted(catalog.PACKAGE_LAYER, key=len, reverse=True):
        if rel.startswith(prefix + "/"):
            layer = catalog.PACKAGE_LAYER[prefix]
            break
    return layer, f"{rel}:{qualname}"


def _profiled_world(world_fields: Dict[str, Any], app: Callable) -> Tuple[Any, Dict]:
    """Run one world under cProfile (sanitizers off); the world and every
    traced function's calls, by name and by layer (all, and named
    functions only).  The same world runs once unprofiled first, so lazy
    imports and first-use caches are paid before counting, and the cycle
    collector is off while counting, so no garbage an earlier run left
    behind is finalized inside the window: the counts do not depend on
    what the process ran before."""
    import repro
    from repro.analyze.sanitize import sanitized
    from repro.core.world import World, WorldConfig

    repro_root = Path(repro.__file__).resolve().parent
    with sanitized(False):
        World(WorldConfig(**world_fields)).run(app)
        world = World(WorldConfig(**world_fields))
        gc.collect()
        gc.disable()
        profile = cProfile.Profile()
        profile.enable()
        try:
            world.run(app)
        finally:
            profile.disable()
            gc.enable()
    qualnames = {} if sys.version_info >= (3, 11) else _qualnames()
    functions: Dict[str, int] = {}
    layers: Dict[str, int] = {}
    named: Dict[str, int] = {}
    for entry in profile.getstats():
        code, calls = entry.code, entry.callcount
        layer, key = _function_key(code, repro_root, qualnames)
        functions[key] = functions.get(key, 0) + calls
        layers[layer] = layers.get(layer, 0) + calls
        if not isinstance(code, str) and not code.co_name.startswith("<"):
            named[layer] = named.get(layer, 0) + calls
    return world, {"functions": functions, "layers": layers, "named": named}


SOCKET_READS = {"tcp": "transport/tcp/socket.py:TCPSocket.recv",
                "sctp": "transport/sctp/socket.py:OneToManySocket.recvmsg"}
PUMPS = {"tcp": "core/rpi/tcp_rpi.py:TCPRPI._pump", "sctp": "core/rpi/sctp_rpi.py:SCTPRPI._pump"}


def _top(functions: Dict[str, int]) -> Dict[str, int]:
    ranked = sorted(functions.items(), key=lambda item: (-item[1], item[0]))
    return dict(ranked[:TOP])


@functools.lru_cache(maxsize=None)
def measure(name: str) -> Dict[str, Any]:
    """One scenario's run: ``row`` (what the table holds) and ``extra``
    (what the budgets' plain tests read besides).  Run once per process
    and shared by every caller, so callers only read it."""
    if name in STARTUPS:
        return _measure_startup(*STARTUPS[name])
    world_name, rpi = name.rsplit("_", 1)
    world, traced = _profiled_world(*WORLDS[world_name](rpi))
    functions = traced["functions"]
    hosts = world.cluster.hosts
    row = {
        "events": world.kernel.events_processed,
        "packets": sum(h.tx_packets for h in hosts),
        "calls": {layer: traced["layers"].get(layer, 0)
                  for layer in (*catalog.LAYERS, "transport.shared")},
        "futures": functions.get("simkernel/futures.py:Future.__init__", 0),
        "resumes": functions.get("simkernel/futures.py:Task._step", 0),
        "recv": functions.get(SOCKET_READS[rpi], 0),
        "select": functions.get("transport/tcp/socket.py:Selector.select", 0),
        "pump": functions.get(PUMPS[rpi], 0),
        "wake": functions.get("core/rpi/base.py:BaseRPI.wake", 0),
        "advance_calls": [proc.rpi.stats.advance_calls for proc in world.processes],
        "top": _top(functions),
    }
    kernel = world.kernel
    extra = {
        "functions": functions,
        "named": traced["named"],
        "delivered": sum(h.rx_packets for h in hosts),
        "dead_heap_entries": len(kernel._heap) - kernel.pending_events(),
    }
    if kernel.metrics.enabled:
        snap = kernel.metrics.snapshot()
        extra["heap_depth_mean"] = (
            snap["kernel.timer_heap_depth/sum"] / snap["kernel.timer_heap_depth/count"]
        )
    return {"row": row, "extra": extra}


def _measure_startup(rpi: Optional[str], loss_rate: float, sanitize: str) -> Dict[str, Any]:
    env = dict(os.environ, REPRO_SANITIZE=sanitize)
    if rpi is None:
        argv = [sys.executable, "-c", "import sys, repro.analyze.ci\n" + LOADED]
    else:
        argv = [sys.executable, "-c", PROBE, rpi, repr(loss_rate)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, env=env).stdout
    modules = out.split()
    return {"row": {"modules": len(modules), "loaded": modules}, "extra": {}}


# -- comparing ----------------------------------------------------------------
def flatten(row: Dict[str, Any], prefix: str = "") -> Dict[str, int]:
    """``{"calls.core": n, "advance_calls.0": n, "loaded.repro.core": 1, ...}``."""
    flat: Dict[str, int] = {}
    for key, value in row.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, name + "."))
        elif isinstance(value, list) and value and isinstance(value[0], str):
            flat.update({f"{name}.{item}": 1 for item in value})  # a set of names
        elif isinstance(value, list):
            flat.update({f"{name}.{i}": n for i, n in enumerate(value)})
        else:
            flat[name] = value
    return flat


def compare(pinned: Dict[str, Any], row: Dict[str, Any], functions: Dict[str, int]):
    """(rises, falls) of ``row`` against the table's ``pinned`` row, each a
    list of ``key: pinned -> now``.  A key the table lacks counts as 0
    there, except a function new to the top 20: it rose only if it now
    exceeds the table's 20th count (it was at most that before)."""
    old, new = flatten(pinned), flatten(row)
    floor = min(pinned.get("top", {}).values(), default=0)
    rises, falls = [], []
    for key in sorted(set(old) | set(new)):
        if key.startswith("top."):
            before = old.get(key, floor)
            now = functions.get(key[4:], 0)
        else:
            before, now = old.get(key, 0), new.get(key, 0)
        if now > before:
            rises.append(f"{key}: {before} -> {now}")
        elif now < before:
            falls.append(f"{key}: {before} -> {now}")
    return rises, falls


def load_table(path: Path = TABLE) -> Dict[str, Any]:
    """The committed table (empty when the file is missing)."""
    return json.loads(path.read_text()) if path.exists() else {}


def pinned(name: str) -> Dict[str, Any]:
    """The table's row for ``name``."""
    return load_table()[name]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=TABLE, help="file to write")
    parser.add_argument("--only", nargs="*", default=None, help="scenarios to measure")
    args = parser.parse_args(argv)
    if sys.version_info[:2] != INTERPRETER:
        print(f"the table is measured on CPython {INTERPRETER[0]}.{INTERPRETER[1]} only",
              file=sys.stderr)
        return 2
    before = load_table(args.out)
    table = dict(before)
    for name in args.only or scenario_names():
        run = measure(name)
        table[name] = run["row"]
        if name in before:
            rises, falls = compare(before[name], run["row"], run["extra"].get("functions", {}))
            for line in rises:
                print(f"{name}: RISE {line}")
            for line in falls:
                print(f"{name}: fall {line}")
    ordered = {name: table[name] for name in scenario_names() if name in table}
    args.out.write_text(json.dumps(ordered, indent=1) + "\n")
    print(f"wrote {args.out} ({len(ordered)} scenarios)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
