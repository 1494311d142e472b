"""Declarative, deterministic fault-injection timelines.

A :class:`FaultScenario` is a named list of :class:`FaultEvent` entries
``(t_start_ns, t_end_ns, target, impairment)``.  Arming a scenario on a
cluster schedules kernel timers that install each impairment on every
matched target at ``t_start_ns`` and remove it at ``t_end_ns``
(``None`` = until the end of the run).  Targets select host egress
Dummynet pipes by ``fnmatch`` pattern over their keys (``"h0p0"``,
``"h*p0"``, ``"*"``): the pipes are the only place a fault is injected,
so a dead path is a :class:`~repro.faults.impairments.Blackhole` window
on that path's pipes.

Every armed impairment is an independent :meth:`clone` of the event's
prototype, bound to its own RNG stream
``faults:<scenario>:e<idx>:<target>`` — so the same scenario object can
arm many worlds, and arming never perturbs any other random stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, List, Optional, Sequence, Tuple

from .impairments import Impairment


@dataclass(frozen=True)
class FaultEvent:
    """One timeline entry: apply ``impairment`` to ``target`` during
    ``[t_start_ns, t_end_ns)``."""

    t_start_ns: int
    t_end_ns: Optional[int]  # None: stays armed until the end of the run
    target: str
    impairment: Impairment

    def __post_init__(self) -> None:
        if self.t_start_ns < 0:
            raise ValueError(f"event start cannot be negative: {self.t_start_ns}")
        if self.t_end_ns is not None and self.t_end_ns <= self.t_start_ns:
            raise ValueError(
                f"event window is empty: [{self.t_start_ns}, {self.t_end_ns})"
            )


@dataclass
class FaultScenario:
    """A named, reusable impairment timeline."""

    name: str
    events: Sequence[FaultEvent] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        self.events = tuple(self.events)

    # -- arming -----------------------------------------------------------
    def arm(self, kernel, pipes: Dict) -> "ArmedScenario":
        """Schedule this timeline against ``pipes``.

        Raises ``ValueError`` for targets that match nothing — a typo'd
        target silently doing nothing would be a debugging trap.
        """
        armed = ArmedScenario(self, kernel)
        for idx, event in enumerate(self.events):
            matched = sorted(k for k in pipes if fnmatch(k, event.target))
            if not matched:
                raise ValueError(
                    f"scenario {self.name!r} event {idx}: target "
                    f"{event.target!r} matches no Dummynet pipe"
                )
            for key in matched:
                imp = event.impairment.clone()
                imp.bind(kernel, f"faults:{self.name}:e{idx}:{key}")
                armed.add_pipe_window(event, idx, key, pipes[key], imp)
        return armed


class ArmedScenario:
    """A scenario scheduled onto one kernel: live state + metrics.

    Registers probes under ``faults.<scenario>.e<idx>.<target>.*`` so
    ``--metrics-json`` snapshots carry per-impairment seen/dropped/
    affected counts, plus a ``faults.<scenario>.active`` probe.
    """

    def __init__(self, scenario: FaultScenario, kernel) -> None:
        self.scenario = scenario
        self.kernel = kernel
        self.impairments: List[Tuple[str, Impairment]] = []  # (pipe key, imp)
        self.active = 0
        self._scope = kernel.metrics.scope(f"faults.{scenario.name}")
        self._scope.probe("active", lambda: self.active)
        self._scope.probe("impairments_armed", lambda: len(self.impairments))

    def add_pipe_window(
        self, event: FaultEvent, idx: int, key: str, pipe, imp: Impairment
    ) -> None:
        """Install ``imp`` on ``pipe`` for the event's time window."""
        self.impairments.append((key, imp))
        scope = self._scope.scope(f"e{idx}.{key}")
        scope.probe("packets_seen", lambda: imp.packets_seen)
        scope.probe("packets_dropped", lambda: imp.packets_dropped)
        scope.probe("packets_affected", lambda: imp.packets_affected)

        def on() -> None:
            pipe.arm(imp)
            self.active += 1

        def off() -> None:
            pipe.disarm(imp)
            self.active -= 1

        self.kernel.call_window(event.t_start_ns, event.t_end_ns, on, off)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ArmedScenario {self.scenario.name!r} "
            f"{len(self.impairments)} impairments, {self.active} active>"
        )
