"""Reproduction of "SCTP versus TCP for MPI" (Kamal, Penoff, Wagner — SC|05).

A deterministic, packet-level reproduction of the paper's entire system:
TCP and SCTP implemented from scratch on a virtual-time network
simulator, a LAM-like MPI middleware with the paper's TCP and SCTP RPI
modules, the evaluation workloads (MPBench ping-pong, mini NAS Parallel
Benchmarks, the Bulk Processor Farm), and one benchmark per published
table and figure.

Entry points:

>>> from repro import run_app
>>> async def app(comm):
...     return await comm.allreduce(comm.rank)
>>> run_app(app, n_procs=8, rpi="sctp", loss_rate=0.01).results
[28, 28, 28, 28, 28, 28, 28, 28]

See README.md for the guided tour, DESIGN.md for the system inventory,
and EXPERIMENTS.md for paper-vs-measured results.
"""

from importlib import import_module
from typing import Any

__version__ = "1.1.0"

#: public name -> the submodule that defines it.  Resolved on first
#: access (PEP 562), so importing a subpackage such as ``repro.analyze``
#: does not load the simulator.
_EXPORTS = {
    "ANY_SOURCE": ".core",
    "ANY_TAG": ".core",
    "ChunkList": ".util.blobs",
    "Communicator": ".core",
    "EAGER_LIMIT": ".core",
    "RealBlob": ".util.blobs",
    "Request": ".core",
    "Status": ".core",
    "SyntheticBlob": ".util.blobs",
    "World": ".core",
    "WorldConfig": ".core",
    "WorldResult": ".core",
    "run_app": ".core",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
