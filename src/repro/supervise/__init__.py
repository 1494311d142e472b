"""Supervised execution: the strict cell fan-out.

It is one primitive, :func:`supervised_map`
(:mod:`repro.supervise.executor`): one child process per task, up to
``jobs`` at a time, results in input order, and a lost task — one that
raised, returned an unpicklable result, or exited without a result —
raised as :class:`SuperviseError` naming it once the other tasks have
run.  ``python -m repro.bench --jobs`` and ``repro.sweep`` fan out
through it.  Every cell is a deterministic simulation, so nothing is
retried: the sweep cache keeps each finished cell, and re-running the
sweep recomputes only what was lost.

Hangs are the kernel's job: its run loops raise
:class:`repro.simkernel.LivelockError` when the clock stops moving, and
``run_until``'s limit bounds virtual time.
"""

from .executor import SupervisedOutcome, SuperviseError, supervised_map

__all__ = ["SuperviseError", "SupervisedOutcome", "supervised_map"]
