"""Start-up budget (DESIGN §9.5): a run loads only what it executes.

The budget table's ``startup_*`` scenarios start a fresh interpreter,
run a 2-rank ``run_app`` with one message and list the ``repro`` modules
it loaded; each list is exactly the table's:

* a loss-free run loads one transport stack and one RPI, the ones
  ``WorldConfig.rpi`` names (LAM loads one RPI per job, paper §2.2.1):
  45 modules on SCTP and 44 on TCP (60 while each ``World`` built both
  stacks), and never :mod:`repro.faults`;
* a non-zero ``loss_rate`` adds exactly the :mod:`repro.faults` package;
* ``REPRO_SANITIZE=1`` adds exactly :mod:`repro.analyze.checkers`;
* a fresh ``import repro.analyze.ci`` (the static analyzer, which never
  simulates) loads the root package, ``repro.analyze`` and its static
  modules, and nothing of the simulator.

Counts only, no wall clock: with ``PYTHONDONTWRITEBYTECODE=1`` every
process compiles what it imports, so each module left out here is
start-up time saved on every run.
"""

import pytest

from . import budget

FAULTS = [
    "repro.faults",
    "repro.faults.impairments",
    "repro.faults.library",
    "repro.faults.observers",
    "repro.faults.scenario",
]
SIMULATOR = ("core", "network", "simkernel", "transport", "metrics", "faults", "workloads")
BOTH = pytest.mark.parametrize("rpi", ["sctp", "tcp"])


def _loaded(name):
    return budget.measure(name)["row"]["loaded"]


@BOTH
def test_a_clean_run_loads_one_stack_and_nothing_else(rpi):
    loaded = _loaded(f"startup_{rpi}")
    assert loaded == budget.pinned(f"startup_{rpi}")["loaded"]
    other = {"sctp": "tcp", "tcp": "sctp"}[rpi]
    assert f"repro.transport.{rpi}" in loaded and f"repro.core.rpi.{rpi}_rpi" in loaded
    assert not [m for m in loaded if m.startswith((f"repro.transport.{other}", "repro.faults"))]


@BOTH
def test_loss_adds_exactly_the_fault_library(rpi):
    clean, lossy = set(_loaded(f"startup_{rpi}")), set(_loaded(f"startup_{rpi}_lossy"))
    assert sorted(lossy - clean) == FAULTS
    assert clean <= lossy


@BOTH
def test_armed_sanitizers_add_exactly_the_checkers(rpi):
    clean, checked = set(_loaded(f"startup_{rpi}")), set(_loaded(f"startup_{rpi}_sanitized"))
    assert sorted(checked - clean) == ["repro.analyze.checkers"]
    assert clean <= checked


def test_the_static_analyzer_loads_no_simulator():
    loaded = _loaded("startup_analyzer")
    assert "repro.analyze.ci" in loaded
    assert not [m for m in loaded if m.split(".")[1:2] and m.split(".")[1] in SIMULATOR]
    assert loaded == budget.pinned("startup_analyzer")["loaded"]
