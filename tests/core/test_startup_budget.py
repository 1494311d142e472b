"""Start-up budget (DESIGN §9.5): a run loads only what it executes.

Each case starts a fresh interpreter, runs a 2-rank ``run_app`` with one
message, and pins the exact sorted set of ``repro`` modules it loaded:

* a loss-free run loads one transport stack and one RPI, the ones
  ``WorldConfig.rpi`` names (LAM loads one RPI per job, paper §2.2.1):
  45 modules on SCTP and 44 on TCP, where every run loaded 60 while each
  ``World`` built both stacks;
* a non-zero ``loss_rate`` adds exactly the :mod:`repro.faults` package
  (its ``__init__`` imports all four of its modules);
* ``REPRO_SANITIZE=1`` adds exactly :mod:`repro.analyze.checkers`.

A fresh ``import repro.analyze.ci`` (the static analyzer, which never
simulates) loads the root package, ``repro.analyze`` and its five static
modules: the root resolves its public names on first access, so no
subpackage import pulls in the simulator (36 modules while the root
imported ``repro.core`` eagerly).

Counts only, no wall clock: with ``PYTHONDONTWRITEBYTECODE=1`` every
process compiles what it imports, so each module left out here is
start-up time saved on every run.
"""

import os
import subprocess
import sys

import pytest

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

COMMON = (
    "repro",
    "repro.analyze",
    "repro.analyze.sanitize",
    "repro.core",
    "repro.core.collectives",
    "repro.core.communicator",
    "repro.core.constants",
    "repro.core.envelope",
    "repro.core.matching",
    "repro.core.payload",
    "repro.core.request",
    "repro.core.rpi",
    "repro.core.rpi.base",
    "repro.core.world",
    "repro.metrics",
    "repro.metrics.collect",
    "repro.metrics.registry",
    "repro.metrics.taps",
    "repro.network",
    "repro.network.costmodel",
    "repro.network.dummynet",
    "repro.network.host",
    "repro.network.link",
    "repro.network.packet",
    "repro.network.switch",
    "repro.network.topology",
    "repro.simkernel",
    "repro.simkernel.futures",
    "repro.simkernel.kernel",
    "repro.simkernel.sync",
    "repro.simkernel.units",
    "repro.transport",
    "repro.transport.base",
    "repro.util",
    "repro.util.blobs",
    "repro.util.ranges",
)
STACK = {
    "sctp": (
        "repro.core.rpi.sctp_rpi",
        "repro.transport.sctp",
        "repro.transport.sctp.association",
        "repro.transport.sctp.chunks",
        "repro.transport.sctp.endpoint",
        "repro.transport.sctp.paths",
        "repro.transport.sctp.sched",
        "repro.transport.sctp.socket",
        "repro.transport.sctp.streams",
    ),
    "tcp": (
        "repro.core.rpi.tcp_rpi",
        "repro.transport.tcp",
        "repro.transport.tcp.buffers",
        "repro.transport.tcp.congestion",
        "repro.transport.tcp.connection",
        "repro.transport.tcp.endpoint",
        "repro.transport.tcp.segment",
        "repro.transport.tcp.socket",
    ),
}
FAULTS = (
    "repro.faults",
    "repro.faults.impairments",
    "repro.faults.library",
    "repro.faults.observers",
    "repro.faults.scenario",
)
CHECKERS = ("repro.analyze.checkers",)
ANALYZER = (
    "repro",
    "repro.analyze",
    "repro.analyze.callgraph",
    "repro.analyze.ci",
    "repro.analyze.flow",
    "repro.analyze.lint",
)


def _loaded(rpi, loss_rate=0.0, sanitize="0"):
    env = dict(os.environ, REPRO_SANITIZE=sanitize)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, rpi, repr(loss_rate)],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    return out.split()


@pytest.fixture(scope="module", params=["sctp", "tcp"])
def clean(request):
    """(rpi, modules a loss-free, unsanitized run loads)."""
    return request.param, _loaded(request.param)


def test_a_clean_run_loads_one_stack_and_nothing_else(clean):
    rpi, loaded = clean
    assert loaded == sorted(COMMON + STACK[rpi])
    assert len(loaded) == {"sctp": 45, "tcp": 44}[rpi]


def test_loss_adds_exactly_the_fault_library(clean):
    rpi, loaded = clean
    lossy = _loaded(rpi, loss_rate=0.01)
    assert sorted(set(lossy) - set(loaded)) == list(FAULTS)
    assert set(loaded) <= set(lossy)


def test_armed_sanitizers_add_exactly_the_checkers(clean):
    rpi, loaded = clean
    checked = _loaded(rpi, sanitize="1")
    assert sorted(set(checked) - set(loaded)) == list(CHECKERS)
    assert set(loaded) <= set(checked)


def test_the_static_analyzer_loads_no_simulator():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, repro.analyze.ci\n" + LOADED],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == list(ANALYZER)
