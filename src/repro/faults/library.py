"""Canonical scenarios: the chaos matrix the benches and CI sweep.

Each factory returns a fresh :class:`~repro.faults.scenario.FaultScenario`
mapping onto a protocol mechanism the paper argues about; the chaos
figure (``python -m repro.bench chaos``) runs them against both
stacks.  All factories take times in nanoseconds and target every
host egress pipe by default (``"*"``), path 0 for path-scoped faults.
"""

from __future__ import annotations

from ..simkernel import MILLISECOND, SECOND
from .impairments import (
    BernoulliLoss,
    Blackhole,
    Corrupt,
    Duplicate,
    GilbertElliott,
    Reorder,
)
from .scenario import FaultEvent, FaultScenario


def bernoulli_loss(rate: float = 0.01, target: str = "*") -> FaultScenario:
    """The paper's Dummynet setting as a scenario (Table 1 regime)."""
    return FaultScenario(
        "bernoulli", [FaultEvent(0, None, target, BernoulliLoss(rate))]
    )


def burst_loss(
    p_enter_bad: float = 0.01,
    p_exit_bad: float = 0.25,
    loss_bad: float = 0.9,
    target: str = "*",
) -> FaultScenario:
    """Gilbert-Elliott correlated loss: multi-packet holes per window."""
    return FaultScenario(
        "burst",
        [
            FaultEvent(
                0,
                None,
                target,
                GilbertElliott(
                    p_enter_bad=p_enter_bad,
                    p_exit_bad=p_exit_bad,
                    loss_bad=loss_bad,
                ),
            )
        ],
    )


def primary_blackhole(
    start_ns: int = 1 * SECOND,
    duration_ns: int = 2 * SECOND,
    path: int = 0,
) -> FaultScenario:
    """Black out every host's path-``path`` egress for a window.

    ``duration_ns=0`` keeps the path dead until the end of the run (the
    multihoming-failover bench's permanent failure).
    """
    end = None if duration_ns == 0 else start_ns + duration_ns
    return FaultScenario(
        "blackhole", [FaultEvent(start_ns, end, f"h*p{path}", Blackhole())]
    )


def corruption(rate: float = 0.02, target: str = "*") -> FaultScenario:
    """Bit corruption caught by CRC32c (SCTP) / checksum (TCP)."""
    return FaultScenario("corrupt", [FaultEvent(0, None, target, Corrupt(rate))])


def dup_and_reorder(
    dup_rate: float = 0.01,
    reorder_rate: float = 0.05,
    reorder_delay_ns: int = 1 * MILLISECOND,
    target: str = "*",
) -> FaultScenario:
    """Duplication plus reordering: SACK/dupack robustness."""
    return FaultScenario(
        "dup_reorder",
        [
            FaultEvent(0, None, target, Duplicate(dup_rate)),
            FaultEvent(
                0, None, target, Reorder(reorder_rate, reorder_delay_ns)
            ),
        ],
    )
