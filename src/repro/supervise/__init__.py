"""Supervised execution: crash/hang-tolerant cell fan-out.

The paper's case for SCTP is a robustness argument — the transport that
keeps making progress under loss and path failure wins for MPI.  This
package holds the harness to the same standard: a multi-cell run must
survive a crashed or hung worker the way an SCTP association survives
a dead path — retry, salvage, and keep the surviving results
byte-identical.

It is one primitive, :func:`supervised_map`
(:mod:`repro.supervise.executor`): one child process per attempt, crash
detection by exit code, hang detection by heartbeat, a per-attempt wall
deadline, bounded retry with seeded deterministic backoff, and
quarantine of persistently failing tasks into a structured failure
manifest.  ``python -m repro.bench --jobs`` and ``repro.sweep`` fan out
through it — strictly (:data:`STRICT` plus
:meth:`SupervisedOutcome.unwrap`) unless ``sweep run --supervise``
supplies a retry/quarantine policy.

In-process livelocks, which keep heartbeating, are the kernel's job: its
run loops raise :class:`repro.simkernel.LivelockError` when the clock
stops moving.
"""

from .executor import (
    CRASH,
    DEADLINE,
    ERROR,
    HANG,
    OK,
    STRICT,
    SupervisedOutcome,
    SuperviseError,
    SupervisePolicy,
    backoff_delay,
    supervised_map,
)

__all__ = [
    "CRASH",
    "DEADLINE",
    "ERROR",
    "HANG",
    "OK",
    "STRICT",
    "SuperviseError",
    "SupervisePolicy",
    "SupervisedOutcome",
    "backoff_delay",
    "supervised_map",
]
