"""Deterministic virtual-time discrete-event kernel.

This package is the foundation every other subsystem (network links,
transport protocol timers, MPI processes) runs on.  It provides:

* :class:`~repro.simkernel.kernel.Kernel` -- the event loop with an integer
  nanosecond clock and one cancellable, restartable timer handle,
* :class:`~repro.simkernel.futures.Future` / :class:`~repro.simkernel.futures.Task`
  -- asyncio-like primitives driven by the virtual clock instead of wall time,
* :func:`~repro.simkernel.sync.wait_all`, a future over several futures,
* unit helpers for time and bandwidth arithmetic.

Determinism rules: time is integral (ns), ties are broken by insertion
sequence number, and every stochastic component draws from a named RNG
stream derived from the kernel seed (``kernel.rng("link.loss.h0")``), so a
simulation is a pure function of its configuration and seed.
"""

from .futures import CancelledError, Future, Task
from .kernel import Kernel, LivelockError, RestartableTimer
from .sync import wait_all
from .units import GBIT_PER_S, MBIT_PER_S, MICROSECOND, MILLISECOND, SECOND, tx_time_ns

__all__ = [
    "CancelledError",
    "Future",
    "GBIT_PER_S",
    "Kernel",
    "LivelockError",
    "MBIT_PER_S",
    "MICROSECOND",
    "MILLISECOND",
    "RestartableTimer",
    "SECOND",
    "Task",
    "tx_time_ns",
    "wait_all",
]
