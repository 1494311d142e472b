"""Correctness tooling for the reproduction: static analyzer, sanitizers, perturbation.

Three instruments, one goal — making the simulator's determinism and
protocol conformance *checkable* instead of assumed:

* :mod:`repro.analyze.ci` — the static analyzer: one parsed program
  (:mod:`~repro.analyze.program`), the call-site rules
  (:mod:`~repro.analyze.lint`: wall clocks, global randomness, set
  iteration, ``id()`` ordering, kernel-internal pokes, process-state
  reads, unreferenced definitions), one suppression pass, one report;
* :mod:`repro.analyze.sanitize` — the switch for opt-in runtime invariant
  checkers on the kernel, both transports, and both RPIs
  (``REPRO_SANITIZE=1``); the checkers are in
  :mod:`repro.analyze.checkers`;
* :mod:`repro.analyze.perturb` — schedule-perturbation race detector
  that re-runs scenarios under reversed/shuffled same-time tie-breaking.

CLI: ``python -m repro.analyze {ci,perturb} ...`` (also installed as
the ``repro-analyze`` console script).

Nothing is re-exported here: the simulator reaches
:mod:`repro.analyze.sanitize` on every start-up, and doing so must not
load the static analyzer or the perturbation tool.  It loads
:mod:`repro.analyze.checkers` only when sanitizers are armed.
"""
