"""Protocol-invariant sanitizers: opt-in runtime checkers for the stacks.

The simulator's credibility rests on invariants the paper and the RFCs
state but ordinary tests only sample: the kernel clock never runs
backwards, a TCP cumulative ACK never retreats, SCTP never retransmits a
chunk the peer already gap-acked (RFC 4960 §6.3.3 rules E3/E4), and the
SCTP RPI never interleaves two messages on one (association, stream)
(paper §3.4.2, Option B).  This module is the switch that makes those
invariants executable; the checkers themselves are in
:mod:`repro.analyze.checkers`.

The design copies the zero-cost-when-disabled pattern of
:mod:`repro.metrics`: each instrumented object asks a factory here for a
sanitizer and stores the result — ``None`` when sanitizers are off, so
the hot path pays exactly one ``if self._san is not None`` check.  With
``REPRO_SANITIZE=1`` (or :func:`enable_sanitizers`), the factories return
live checker objects and any violated invariant raises
:class:`InvariantViolation` at the first moment the corruption is
observable, instead of surfacing as a wrong Figure-8 number three layers
later.  Zero cost covers import too: the simulator imports only this
switch, and a factory imports :mod:`~repro.analyze.checkers` the first
time it is asked while sanitizers are on.

Sanitizers never schedule events, never draw randomness, and never
mutate the objects they watch, so enabling them cannot change a
simulation's virtual-time behaviour — a property pinned by test.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, List, Optional

if TYPE_CHECKING:
    from .checkers import (
        AssociationSanitizer,
        IDataSanitizer,
        KernelSanitizer,
        OptionBSanitizer,
        RPISanitizer,
        StreamOrderSanitizer,
        TCPConnectionSanitizer,
    )

_FORCED: Optional[bool] = None  # programmatic override; None defers to env


def _resolve() -> bool:
    if _FORCED is not None:
        return _FORCED
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")  # repro: allow[AN108] — checkers only watch; CI cmps sanitized and plain runs


# The resolved flag: REPRO_SANITIZE is read here, at import, and again
# only when the programmatic override changes — never per call.
_ENABLED: bool = _resolve()


class InvariantViolation(AssertionError):
    """A protocol or kernel invariant was broken (sanitizers enabled).

    Subclasses ``AssertionError`` deliberately: a tripped sanitizer means
    the *simulator* is wrong, not the simulated workload, and should fail
    tests the same way a broken assert would.
    """

    def __init__(self, layer: str, invariant: str, detail: str) -> None:
        super().__init__(f"[{layer}] {invariant}: {detail}")
        self.layer = layer
        self.invariant = invariant
        self.detail = detail


def sanitizers_enabled() -> bool:
    """True when sanitizers are on (REPRO_SANITIZE=1 or forced in-process)."""
    return _ENABLED


def _force(on: Optional[bool]) -> None:
    global _FORCED, _ENABLED
    _FORCED = on
    _ENABLED = _resolve()


def enable_sanitizers(on: bool = True) -> None:
    """Force sanitizers on (or off) for this process, overriding the env.

    Only objects constructed *after* the call are instrumented: the
    factories are consulted once, at construction time, exactly like
    metrics enablement.
    """
    _force(on)


def reset_sanitizers() -> None:
    """Drop any programmatic override; the environment decides again."""
    _force(None)


class sanitized:
    """Context manager scoping :func:`enable_sanitizers` (mainly for tests)."""

    def __init__(self, on: bool = True) -> None:
        self._on = on
        self._prev: Optional[bool] = None

    def __enter__(self) -> "sanitized":
        self._prev = _FORCED
        _force(self._on)
        return self

    def __exit__(self, *exc: Any) -> None:
        _force(self._prev)


# ---------------------------------------------------------------------------
# factories: the only API instrumented code calls.  Each loads the checker
# classes (repro.analyze.checkers) only once sanitizers are on.
# ---------------------------------------------------------------------------


def kernel_sanitizer(kernel: Any) -> Optional[KernelSanitizer]:
    """Sanitizer for a Kernel, or None when disabled (the hot-path contract)."""
    if not _ENABLED:
        return None
    from .checkers import KernelSanitizer

    return KernelSanitizer(kernel)


def tcp_sanitizer() -> Optional[TCPConnectionSanitizer]:
    """Sanitizer for one TCP connection, or None when disabled."""
    if not _ENABLED:
        return None
    from .checkers import TCPConnectionSanitizer

    return TCPConnectionSanitizer()


def sctp_sanitizer() -> Optional[AssociationSanitizer]:
    """Sanitizer for one SCTP association, or None when disabled."""
    if not _ENABLED:
        return None
    from .checkers import AssociationSanitizer

    return AssociationSanitizer()


def stream_sanitizer() -> Optional[StreamOrderSanitizer]:
    """Sanitizer for one InboundStreams, or None when disabled."""
    if not _ENABLED:
        return None
    from .checkers import StreamOrderSanitizer

    return StreamOrderSanitizer()


def idata_sanitizer() -> Optional[IDataSanitizer]:
    """Sanitizer for one association's I-DATA path, or None when disabled."""
    if not _ENABLED:
        return None
    from .checkers import IDataSanitizer

    return IDataSanitizer()


def rpi_sanitizer() -> Optional[RPISanitizer]:
    """Sanitizer for one RPI's rendezvous machine, or None when disabled."""
    if not _ENABLED:
        return None
    from .checkers import RPISanitizer

    return RPISanitizer()


def option_b_sanitizer() -> Optional[OptionBSanitizer]:
    """Sanitizer for SCTP-RPI stream multiplexing, or None when disabled."""
    if not _ENABLED:
        return None
    from .checkers import OptionBSanitizer

    return OptionBSanitizer()


__all__: List[str] = [
    "InvariantViolation",
    "sanitizers_enabled",
    "enable_sanitizers",
    "reset_sanitizers",
    "sanitized",
    "kernel_sanitizer",
    "tcp_sanitizer",
    "sctp_sanitizer",
    "stream_sanitizer",
    "idata_sanitizer",
    "rpi_sanitizer",
    "option_b_sanitizer",
]
