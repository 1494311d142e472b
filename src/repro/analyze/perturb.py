"""Schedule-perturbation race detector for the virtual-time simulator.

The kernel breaks ties between equal-virtual-time events by insertion
order (FIFO).  That choice is *arbitrary*: correct simulation code must
produce the same results under any consistent tie-break, exactly as
correct threaded code must survive any legal interleaving.  This module
is the simulator's analogue of a data-race detector: it re-runs a
scenario with the tie-break reversed (LIFO) or seed-shuffled and diffs
digests of the results and metrics.  A digest mismatch means some layer
depends on same-timestamp event *ordering* — a latent race that a lucky
FIFO schedule was hiding.

Mechanism: every heap key the kernel pushes is ``(when, seq ^ mask)``.
XOR with a fixed mask is a bijection on the sequence numbers, so keys
stay unique and events at *different* times are untouched; only the
order *within* one timestamp changes.  ``mask=0`` is the production FIFO order; the all-ones mask
reverses every tie; a hash-derived mask deterministically shuffles them.

What must match across tie-breaks: every virtual-time output (durations,
bytes, retransmit counts — all transport and RPI metrics).  What may
legitimately differ: kernel *heap diagnostics* (depth histogram,
pending and processed event counts) and link *queue-occupancy
histograms* (sampled at enqueue instants, so same-timestamp enqueue
order shows through) — those measure the schedule itself, so
:data:`SCHEDULE_SENSITIVE_PREFIXES` and
:data:`SCHEDULE_SENSITIVE_INFIXES` are excluded from digests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

#: Mask bits available for tie-break perturbation.  Sequence numbers are
#: monotonically increasing ints; 62 bits keeps masked keys well inside
#: the small-int fast path while covering any realistic event count.
MASK_BITS = 62

#: Production order: ties pop first-scheduled-first.
TIEBREAK_FIFO = 0

#: Reversed ties: at each timestamp, last-scheduled pops first.
TIEBREAK_LIFO = (1 << MASK_BITS) - 1


def shuffle_mask(seed: int) -> int:
    """A deterministic, seed-derived tie-break mask (never 0 = FIFO)."""
    digest = hashlib.sha256(f"repro.analyze.perturb:{seed}".encode()).digest()
    mask = int.from_bytes(digest[:8], "big") & TIEBREAK_LIFO
    return mask or TIEBREAK_LIFO


#: Metric-key prefixes excluded from digests: they observe the *schedule*
#: (heap shape, event counts), not the simulated system, so a
#: tie-break perturbation legitimately changes them.
SCHEDULE_SENSITIVE_PREFIXES: Tuple[str, ...] = (
    "kernel.timer_heap_depth",
    "kernel.pending_timers",
    "kernel.events_processed",
    "kernel.tasks_spawned",
)

#: Metric-key infixes excluded from digests.  Link queue-occupancy
#: histograms sample the instantaneous queue depth at each packet
#: *enqueue instant*; when several enqueues share one virtual timestamp
#: the depth each observes depends on intra-timestamp order — the
#: histogram measures the tie-break, not the system.  Delivery times,
#: byte counts, and drop counters stay digest-covered.
SCHEDULE_SENSITIVE_INFIXES: Tuple[str, ...] = (
    ".queue_occupancy_bytes/",
)


class tiebreak:
    """Context manager installing a tie-break mask as the kernel default.

    Every :class:`~repro.simkernel.kernel.Kernel` constructed inside the
    block uses ``mask``; it is the one way to set a kernel's mask, and
    how the detector reaches kernels built deep inside the bench harness
    without threading a parameter through every layer.
    """

    def __init__(self, mask: int) -> None:
        self.mask = mask
        self._saved: Optional[int] = None

    def __enter__(self) -> "tiebreak":
        from ..simkernel import kernel as _kernel_mod

        self._saved = _kernel_mod.DEFAULT_TIEBREAK_MASK
        _kernel_mod.DEFAULT_TIEBREAK_MASK = self.mask
        return self

    def __exit__(self, *exc: Any) -> None:
        from ..simkernel import kernel as _kernel_mod

        _kernel_mod.DEFAULT_TIEBREAK_MASK = self._saved


def filter_schedule_sensitive(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Drop metric keys that measure the schedule rather than the system."""
    return {
        key: value
        for key, value in snapshot.items()
        if not key.startswith(SCHEDULE_SENSITIVE_PREFIXES)
        and not any(infix in key for infix in SCHEDULE_SENSITIVE_INFIXES)
    }


def digest_payload(payload: Any) -> str:
    """SHA-256 over a canonical JSON encoding (sorted keys, no spaces)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def parse_mode(spec: str) -> Tuple[str, int]:
    """Parse a mode spec: ``fifo``, ``lifo``, or ``shuffle:<seed>``."""
    if spec == "fifo":
        return "fifo", TIEBREAK_FIFO
    if spec == "lifo":
        return "lifo", TIEBREAK_LIFO
    if spec.startswith("shuffle:"):
        seed = int(spec.split(":", 1)[1])
        return spec, shuffle_mask(seed)
    raise ValueError(f"unknown tie-break mode {spec!r} (fifo | lifo | shuffle:N)")


@dataclass
class PerturbResult:
    """Digest comparison across tie-break modes for one scenario."""

    label: str
    digests: Dict[str, str] = field(default_factory=dict)
    baseline: str = "fifo"

    @property
    def deterministic(self) -> bool:
        """True when every mode digested identically to the baseline."""
        base = self.digests.get(self.baseline)
        return all(d == base for d in self.digests.values())

    def report(self) -> str:
        lines = [f"perturb {self.label}: "
                 + ("OK (schedule-independent)" if self.deterministic else "RACE")]
        for mode in sorted(self.digests):
            marker = " " if self.digests[mode] == self.digests[self.baseline] else "!"
            lines.append(f"  {marker} {mode:<12} {self.digests[mode]}")
        if not self.deterministic:
            lines.append(
                "  results depend on same-timestamp event ordering; some layer "
                "is racing on tie-break order"
            )
        return "\n".join(lines)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "baseline": self.baseline,
            "digests": dict(sorted(self.digests.items())),
            "deterministic": self.deterministic,
        }


def perturb_run(
    fn: Callable[[], Any],
    modes: Sequence[str] = ("lifo",),
    label: str = "scenario",
) -> PerturbResult:
    """Run ``fn`` under FIFO plus each perturbed tie-break; diff digests.

    ``fn`` must be self-contained and repeatable: it builds its own
    worlds/kernels and returns a JSON-encodable result.  Each execution
    wraps a :class:`~repro.metrics.collect.MetricsCollector`, so the
    digest covers both the returned value and every world's metrics
    snapshot (minus :data:`SCHEDULE_SENSITIVE_PREFIXES`).
    """
    from ..metrics.collect import MetricsCollector

    result = PerturbResult(label=label)
    wanted = ["fifo", *[m for m in modes if m != "fifo"]]
    for spec in wanted:
        name, mask = parse_mode(spec)
        with tiebreak(mask):
            with MetricsCollector() as collector:
                value = fn()
        payload = {
            "result": value,
            "runs": [
                {
                    "label": run["label"],
                    "metrics": filter_schedule_sensitive(run["metrics"]),
                }
                for run in collector.runs
            ],
        }
        result.digests[name] = digest_payload(payload)
    return result


def perturb_cell(
    experiment: str,
    params: Mapping[str, Any],
    modes: Sequence[str] = ("lifo",),
) -> PerturbResult:
    """Perturb one bench-harness cell (e.g. ``fig8`` / ``{"size": 1024}``)."""
    from ..bench.harness import cell_id, run_sweep_cell

    def run() -> Any:
        return [row.to_jsonable() for row in run_sweep_cell(experiment, params)]

    return perturb_run(run, modes=modes, label=cell_id(experiment, params))


def _parse_param(text: str) -> Tuple[str, Any]:
    """One ``name=value`` CLI token; the value is JSON when it parses."""
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise ValueError(f"parameter {text!r} must look like name=value")
    try:
        return name, json.loads(raw)
    except json.JSONDecodeError:
        return name, raw


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI body for ``python -m repro.analyze perturb`` (returns exit code)."""
    import argparse

    from ..bench.harness import MATRICES, resolve_sweep_params

    parser = argparse.ArgumentParser(
        prog="repro-analyze perturb",
        description=(
            "re-run a bench cell under perturbed same-time tie-breaking and "
            "diff metrics digests (simulator race detector)"
        ),
    )
    parser.add_argument(
        "experiment",
        metavar="EXPERIMENT",
        help=f"experiment to perturb: {', '.join(MATRICES)}",
    )
    parser.add_argument(
        "params",
        nargs="*",
        metavar="name=value",
        help="the cell's parameters, e.g. size=1024: every axis of the "
        "experiment plus any free parameter to override (values are JSON, "
        "else taken as strings)",
    )
    parser.add_argument(
        "--modes",
        default="lifo",
        help="comma-separated perturbations: lifo, shuffle:<seed> "
        "(default: lifo)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="write a machine-readable report to FILE ('-' for stdout)",
    )
    args = parser.parse_args(argv)

    try:
        params = dict(_parse_param(text) for text in args.params)
        resolve_sweep_params(args.experiment, params)
    except (KeyError, ValueError) as err:
        parser.error(str(err.args[0]))
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    for mode in modes:
        parse_mode(mode)  # validate before paying for any simulation

    result = perturb_cell(args.experiment, params, modes=modes)
    if args.json:
        import sys
        from pathlib import Path

        text = json.dumps(result.to_jsonable(), indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            Path(args.json).write_text(text, encoding="utf-8")
    if args.json != "-":
        print(result.report())
    return 0 if result.deterministic else 1


__all__ = [
    "MASK_BITS",
    "TIEBREAK_FIFO",
    "TIEBREAK_LIFO",
    "SCHEDULE_SENSITIVE_PREFIXES",
    "SCHEDULE_SENSITIVE_INFIXES",
    "shuffle_mask",
    "tiebreak",
    "filter_schedule_sensitive",
    "digest_payload",
    "parse_mode",
    "PerturbResult",
    "perturb_run",
    "perturb_cell",
    "main",
]
