"""Deterministic fault injection: scripted impairment scenarios.

The paper's evaluation is *made of* induced failure — Dummynet loss for
Table 1 and Figs. 10-12, path failure for §3.5.1's multihoming story,
checksum/verification-tag rejection for §3.5.2's robustness claims.
This package turns those one-off setups into a first-class subsystem:

* :mod:`~repro.faults.impairments` — composable per-packet impairment
  models (Bernoulli and Gilbert-Elliott loss, blackhole, corruption,
  duplication, reordering) behind one interface;
* :mod:`~repro.faults.scenario` — a declarative ``FaultScenario``
  timeline of ``(t_start, t_end, target, impairment)`` entries, armed
  onto the cluster's host egress pipes via seeded per-impairment RNG
  streams so same-seed runs are byte-identical;
* :mod:`~repro.faults.observers` — packet-tap probes measuring what the
  application felt (delivery stalls, recovery time);
* :mod:`~repro.faults.library` — the canonical chaos-matrix scenarios.

Quick example — a 2 s mid-run blackhole of the primary path::

    from repro import WorldConfig, run_app
    from repro.faults import FaultEvent, FaultScenario, Blackhole
    from repro.simkernel import SECOND

    scenario = FaultScenario(
        "primary-outage",
        [FaultEvent(1 * SECOND, 3 * SECOND, "h*p0", Blackhole())],
    )
    result = run_app(app, n_procs=2, rpi="sctp", n_paths=2, scenario=scenario)

SCTP rides it out by failing over to path 1 (heartbeat-detected); TCP
stalls through RTO exponential backoff.  ``python -m repro.bench
chaos`` sweeps the library against both stacks.
"""

from .impairments import (
    BernoulliLoss,
    Blackhole,
    Corrupt,
    Duplicate,
    GilbertElliott,
    Impairment,
    Reorder,
)
from .library import (
    bernoulli_loss,
    burst_loss,
    corruption,
    dup_and_reorder,
    primary_blackhole,
)
from .observers import DeliveryWatch, carries_data
from .scenario import ArmedScenario, FaultEvent, FaultScenario

__all__ = [
    "ArmedScenario",
    "BernoulliLoss",
    "Blackhole",
    "Corrupt",
    "DeliveryWatch",
    "Duplicate",
    "FaultEvent",
    "FaultScenario",
    "GilbertElliott",
    "Impairment",
    "Reorder",
    "bernoulli_loss",
    "burst_loss",
    "carries_data",
    "corruption",
    "dup_and_reorder",
    "primary_blackhole",
]
