"""The budget table: exact host-work counts per scenario, one file.

``BUDGET.json`` beside this file holds, for every scenario below, the
counts a run of it makes on CPython 3.11 with sanitizers and metrics
off: kernel events and packets, traced calls per layer (under the
ledger's ``catalog.PACKAGE_LAYER``), ``Future``s built, task resumes,
socket reads (``recv`` / ``recvmsg``), ``select()`` calls, RPI pumps
and wakes, progression steps per rank, the 20 most-called functions,
the sums and functions a scenario pins (``PINS``), and, for the
start-up scenarios, the ``repro`` modules a fresh interpreter loads.
``test_budget.py`` compares a fresh run with the file: a count that
rises fails, one that falls prints as a gain, and a count under an
``EXACT`` key fails if it moves at all (it sets virtual time, or a
module or function is there or not).  ``test_invariants.py`` checks the
ratios and bounds that are not pins, on the same runs.

Regenerate the file (and show the change against the committed one)::

    PYTHONPATH=src python tests/budget/budget.py            # rewrite BUDGET.json
    PYTHONPATH=src python tests/budget/budget.py --out X.json --only wake_tcp

The table is measured on CPython 3.11, and only its cProfile totals
(``calls``, ``top``) are compared there alone: 3.12 inlines
comprehensions (PEP 709), which changes them.  Every other key is the
same on CPython 3.10 to 3.12 and is compared on each: functions are
keyed ``file:qualname`` everywhere (3.10 has no ``co_qualname``; the
name is looked up from the live function objects), and ``named`` sums
each layer's calls without comprehension, generator-expression, lambda
or module frames.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
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
from unittest import mock

HERE = Path(__file__).resolve().parent
TABLE = HERE / "BUDGET.json"
TOP = 20
INTERPRETER = (3, 11)
ON_311 = sys.implementation.name == "cpython" and sys.version_info[:2] == INTERPRETER
#: keys compared for equality: a fall fails as a rise does
EXACT = ("events", "packets", "advance_calls", "pump", "select", "wake",
         "modules", "loaded", "named", "functions")
#: keys whose counts depend on the interpreter: compared on 3.11 only
INTERPRETER_KEYS = ("calls", "top")

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

#: what a world's row pins besides its counters (DESIGN §9.3): ``named``
#: sums these layers' calls over named functions, and ``functions``
#: counts these functions (a name ending in "/" takes every named
#: function under it, so one newly called there is a new key)
PINS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "wake": {"named": ("transport.tcp", "transport.sctp"),
             "functions": ("network/", "network/host.py:Host.cost_model",
                           "transport/tcp/segment.py:TCPSegment.wire_size",
                           "transport/tcp/buffers.py:ReassemblyBuffer.out_of_order_bytes")},
    "packet": {"functions": ("network/costmodel.py:CostModel.packet_send_cost",
                             "network/costmodel.py:CostModel.packet_recv_cost")},
}

#: start-up scenarios: name -> (rpi or None for the static analyzer,
#: loss_rate, REPRO_SANITIZE)
STARTUPS: Dict[str, Tuple[Optional[str], float, str]] = {
    **{f"startup_{rpi}": (rpi, 0.0, "0") for rpi in STACKS},
    **{f"startup_{rpi}_lossy": (rpi, 0.01, "0") for rpi in STACKS},
    **{f"startup_{rpi}_sanitized": (rpi, 0.0, "1") for rpi in STACKS},
    "startup_analyzer": (None, 0.0, "0"),
}

LOADED = 'print(" ".join(sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))))'
STARTUP_RUN = """
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


# -- probes -------------------------------------------------------------------
# A probe counts what no profiler entry shows: a chunk type, a refused
# send, the resumes inside one MPI call.  It wraps methods, or taps hosts,
# for a scenario's unprofiled warm-up run only, the profiled run's twin:
# its tally is that run's, and no profiled count moves.  ``patch(owner,
# name, wrap)`` puts ``wrap(owner.name)`` in place until the warm-up ends.
Tally = Dict[str, int]


def _after(hook: Callable) -> Callable:
    """A wrap that calls ``hook(result, *args)`` after each call."""
    def wrap(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(result, *args)
            return result
        return wrapper
    return wrap


def _before(hook: Callable) -> Callable:
    """A wrap that calls ``hook(*args)`` before each call."""
    def wrap(fn):
        def wrapper(*args, **kwargs):
            hook(*args)
            return fn(*args, **kwargs)
        return wrapper
    return wrap


def _sctp_sends(world, patch, tally: Tally) -> None:
    """SCTP ``sendmsg`` calls and the refused ones; packets sent with
    DATA, and their DATA chunks."""
    from repro.transport.sctp import OneToManySocket
    from repro.transport.sctp.chunks import DataChunk

    def tap(direction, host, packet):
        chunks = sum(isinstance(c, DataChunk) for c in getattr(packet.payload, "chunks", ()))
        if direction == "tx" and chunks:
            tally.update(data_packets=1, data_chunks=chunks)

    for host in world.cluster.hosts:
        host.taps.append(tap)
    patch(OneToManySocket, "sendmsg",
          _after(lambda ok, *_: tally.update(sendmsg=1, refused=not ok)))


def _deliveries(world, patch, tally: Tally) -> None:
    """SCTP messages delivered, and the ``ChunkList``s nested in them."""
    from repro.transport.sctp import OneToManySocket
    from repro.util.blobs import ChunkList

    def count(msg, sock):
        nested = sum(isinstance(p, ChunkList) for p in msg.data.pieces)
        tally.update(deliveries=1, nested_pieces=nested)

    patch(OneToManySocket, "recvmsg", _after(count))


def _fragment_slices(world, patch, tally: Tally) -> None:
    """Blob slices made while SCTP fragments are cut or reassembled, and
    ``SCTPPacket.wire_size`` sums over DATA or SACK packets."""
    from repro.transport.sctp.association import Association
    from repro.transport.sctp.chunks import DataChunk, SackChunk, SCTPPacket
    from repro.transport.sctp.streams import InboundStreams
    from repro.util import blobs

    depth = [0]

    def fragment_path(fn):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    def summed(size, pkt):
        sized = any(isinstance(c, (DataChunk, SackChunk)) for c in pkt.chunks)
        tally.update(data_or_sack_sums=sized)

    for cls in (blobs.RealBlob, blobs.SyntheticBlob, blobs.BlobView, blobs.ChunkList):
        patch(cls, "slice", _before(lambda *_: tally.update(fragment_slices=bool(depth[0]))))
    patch(Association, "_dequeue_for_bundle", fragment_path)
    patch(InboundStreams, "on_data", fragment_path)
    patch(SCTPPacket, "wire_size", _after(summed))


def _resumes(world, patch, tally: Tally) -> None:
    """Blocking ``send``/``recv`` calls, the rank resumes inside them, and
    the most inside one."""
    from repro.core.communicator import Communicator
    from repro.simkernel.futures import Task

    steps: Tally = collections.Counter()  # Task._step per task name

    def watched(call):
        async def wrapper(comm, *args, **kwargs):
            before = steps[f"rank{comm.rank}"]
            result = await call(comm, *args, **kwargs)
            resumes = steps[f"rank{comm.rank}"] - before
            tally.update(blocking_calls=1, call_resumes=resumes)
            tally["max_call_resumes"] = max(tally["max_call_resumes"], resumes)
            return result
        return wrapper

    patch(Task, "_step", _before(lambda task, *_: steps.update([task.name])))
    patch(Communicator, "send", watched)
    patch(Communicator, "recv", watched)


def _readable_wakes(world, patch, tally: Tally) -> None:
    """TCP socket reports that find the socket readable and its owner
    blocked in ``select()``: each wakes the owner."""
    from repro.transport.tcp.socket import Selector

    def count(selector, sock):
        conn = sock.conn
        readable = conn._ready.nbytes > 0 or conn._eof or sock.closed_error is not None
        tally.update(readable_wakes=selector._blocked_writes is not None and bool(readable))

    patch(Selector, "_socket_event", _before(count))


class _CountedDone:
    """Stands in for a request inside ``wait*``: counts reads of ``done``."""

    def __init__(self, request: Any, tally: Tally) -> None:
        self.request, self._tally = request, tally

    @property
    def done(self) -> bool:
        self._tally["done_reads"] += 1
        return self.request.done


def _scans(world, patch, tally: Tally) -> None:
    """Reads of ``done`` inside ``waitany``/``waitall`` against a budget:
    one scan of the requests per call, and one more per completion the
    call slept through."""
    from repro.core.communicator import Communicator

    def scanning(unwrap):
        def wrap(wait):
            async def wrapper(comm, requests):
                before = comm.rpi.completions
                result = await wait(comm, [_CountedDone(r, tally) for r in requests])
                tally["scan_budget"] += (1 + comm.rpi.completions - before) * len(requests)
                return unwrap(result)
            return wrapper
        return wrap

    patch(Communicator, "waitany", scanning(lambda result: (result[0], result[1].request)))
    patch(Communicator, "waitall", scanning(lambda result: [p.request for p in result]))


class _CountedWalks(dict):
    """An RPI's ``_outq`` that counts the walks over it (with sanitizers
    off, only the outbound walk iterates it)."""

    tally: Tally

    def items(self):
        self.tally["walks"] += 1
        return super().items()


def _walks(world, patch, tally: Tally) -> None:
    """Outbound walks, the ones that sent nothing, and TCP ``send`` calls
    that accepted 0 bytes (SCTP sends are ``_sctp_sends``')."""
    from repro.transport.tcp import TCPSocket

    for proc in world.processes:
        proc.rpi._outq = _CountedWalks(proc.rpi._outq)
        proc.rpi._outq.tally = tally

    def pumping(pump):
        def wrapper(rpi):
            walks, sent = tally["walks"], tally["sends"] + tally["sendmsg"]
            progressed = pump(rpi)
            idle = tally["sends"] + tally["sendmsg"] == sent
            tally.update(empty_walks=tally["walks"] > walks and idle)
            return progressed
        return wrapper

    patch(type(world.processes[0].rpi), "_pump", pumping)
    patch(TCPSocket, "send", _after(lambda n, *_: tally.update(sends=1, zero_sends=n == 0)))


#: world name -> the probes its warm-up run carries
PROBES: Dict[str, Tuple[Callable, ...]] = {
    "message": (_deliveries,),
    "wake": (_resumes, _readable_wakes, _sctp_sends),
    "packet": (_fragment_slices, _sctp_sends),
    "farm": (_sctp_sends, _scans),
    "farm_lossy": (_sctp_sends, _walks),
}


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


def _profiled_world(world_fields: Dict[str, Any], app: Callable,
                    probes: Tuple[Callable, ...]) -> Tuple[Any, Any, Dict]:
    """Run one world under cProfile (sanitizers off); the world, its
    result and every traced function's calls, by name and by layer (all,
    and named functions only), with the ``probes``' tally.  The same world
    runs once unprofiled first, carrying the probes, so lazy imports and
    first-use caches are paid before counting, and the cycle collector is
    off while counting, so no garbage an earlier run left behind is
    finalized inside the window: the counts do not depend on what the
    process ran before."""
    import repro
    from repro.analyze.sanitize import sanitized
    from repro.core.world import World, WorldConfig

    repro_root = Path(repro.__file__).resolve().parent
    tally: Tally = collections.Counter()
    with sanitized(False):
        world = World(WorldConfig(**world_fields))
        with contextlib.ExitStack() as stack:
            def patch(owner: Any, name: str, wrap: Callable) -> None:
                stack.enter_context(mock.patch.object(owner, name, wrap(getattr(owner, name))))

            for probe in probes:
                probe(world, patch, tally)
            world.run(app)
        world = World(WorldConfig(**world_fields))
        gc.collect()
        gc.disable()
        profile = cProfile.Profile()
        profile.enable()
        try:
            result = world.run(app)
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
    return world, result, {"functions": functions, "layers": layers, "named": named,
                           "probe": dict(tally)}


SOCKET_READS = {"tcp": "transport/tcp/socket.py:TCPSocket.recv",
                "sctp": "transport/sctp/socket.py:OneToManySocket.recvmsg"}
PUMPS = {"tcp": "core/rpi/tcp_rpi.py:TCPRPI._pump", "sctp": "core/rpi/sctp_rpi.py:SCTPRPI._pump"}


def _top(functions: Dict[str, int]) -> Dict[str, int]:
    ranked = sorted(functions.items(), key=lambda item: (-item[1], item[0]))
    return dict(ranked[:TOP])


def _pinned_functions(functions: Dict[str, int], names: Tuple[str, ...]) -> Dict[str, int]:
    """The counts of ``names``, 0 for one not called; a name ending in "/"
    takes every named function under it."""
    pinned: Dict[str, int] = {}
    for name in names:
        if name.endswith("/"):
            pinned.update({key: n for key, n in functions.items()
                           if key.startswith(name) and "<" not in key})
        else:
            pinned[name] = functions.get(name, 0)
    return dict(sorted(pinned.items()))


@functools.lru_cache(maxsize=None)
def measure(name: str) -> Dict[str, Any]:
    """One scenario's run: ``row`` (what the table holds) and ``extra``
    (what ``test_invariants.py`` reads besides).  Run once per process
    and shared by every caller, so callers only read it."""
    if name in STARTUPS:
        return _measure_startup(*STARTUPS[name])
    world_name, rpi = name.rsplit("_", 1)
    world, result, traced = _profiled_world(*WORLDS[world_name](rpi),
                                            PROBES.get(world_name, ()))
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
    pins = PINS.get(world_name, {})
    if "named" in pins:
        row["named"] = {layer: traced["named"].get(layer, 0) for layer in pins["named"]}
    if "functions" in pins:
        row["functions"] = _pinned_functions(functions, pins["functions"])
    kernel = world.kernel
    extra = {
        "functions": functions,
        "probe": traced["probe"],
        "results": result.results,
        "delivered": sum(h.rx_packets for h in hosts),
        "units_sent": sum(proc.rpi.stats.units_sent for proc in world.processes),
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
        argv = [sys.executable, "-c", STARTUP_RUN, rpi, repr(loss_rate)]
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


def compare(pinned: Dict[str, Any], row: Dict[str, Any],
            functions: Dict[str, int]) -> Tuple[List[str], List[str]]:
    """(breaks, gains) of ``row`` against the table's ``pinned`` row, each a
    list of ``key: pinned -> now``.  A count that rises breaks the budget,
    one that falls is a gain, and one under an ``EXACT`` key breaks it if
    it moves either way.  ``INTERPRETER_KEYS`` are compared on CPython 3.11
    only.  A key the table lacks counts as 0 there, except a function new
    to the top 20: it rose only if it now exceeds the table's 20th count
    (it was at most that before)."""
    old, new = flatten(pinned), flatten(row)
    floor = min(pinned.get("top", {}).values(), default=0)
    breaks, gains = [], []
    for key in sorted(set(old) | set(new)):
        head = key.split(".", 1)[0]
        if head in INTERPRETER_KEYS and not ON_311:
            continue
        if head == "top":
            before = old.get(key, floor)
            now = functions.get(key[4:], 0)
        else:
            before, now = old.get(key, 0), new.get(key, 0)
        if now > before or (now < before and head in EXACT):
            breaks.append(f"{key}: {before} -> {now}")
        elif now < before:
            gains.append(f"{key}: {before} -> {now}")
    return breaks, gains


def load_table(path: Path = TABLE) -> Dict[str, Any]:
    """The committed table (empty when the file is missing)."""
    return json.loads(path.read_text()) if path.exists() else {}


def pinned_and_measured(name: str, *keys: str) -> Tuple[Dict[str, int], Dict[str, int]]:
    """``(table, run)``: scenario ``name``'s flattened counts under
    ``keys`` in its table row and in its measured row.  A key takes its
    dotted sub-keys (``advance_calls`` takes ``advance_calls.0``), and
    one ending in "/" every key it starts (``functions.network/``)."""
    def under(row: Dict[str, Any]) -> Dict[str, int]:
        return {flat: n for flat, n in flatten(row).items()
                if any(flat == key or flat.startswith(key if key.endswith("/") else key + ".")
                       for key in keys)}

    return under(load_table()[name]), under(measure(name)["row"])


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
            breaks, gains = compare(before[name], run["row"], run["extra"].get("functions", {}))
            for line in breaks:
                print(f"{name}: BREAK {line}")
            for line in gains:
                print(f"{name}: gain {line}")
    ordered = {name: table[name] for name in scenario_names() if name in table}
    args.out.write_text(json.dumps(ordered, indent=1) + "\n")
    print(f"wrote {args.out} ({len(ordered)} scenarios)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
