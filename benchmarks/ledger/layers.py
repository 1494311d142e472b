"""Per-layer attribution: profiler spans by layer, and simulated counts.

Two sources, both driven from the benchmark's own files:

* :class:`LayerTrace` installs ``cProfile`` around the measured phase of
  one repetition and folds every function into the layer its file's
  package names.  A repetition crosses layer boundaries about a million
  times, so raw spans are not kept: they are aggregated in memory per
  (caller layer -> callee layer) edge as calls + cumulative seconds, a
  layer's self time is its functions' own time with callee time
  excluded, and the table is written out once, when the run ends.
* :func:`simulated_counts` folds the flat ``World.metrics.snapshot()``
  documents of one metrics-on repetition into the ledger's counts.
"""

from __future__ import annotations

import cProfile
import functools
import re
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Tuple

import repro

from catalog import LAYERS, PACKAGE_LAYER

REPRO_ROOT = Path(repro.__file__).resolve().parent
SHARED = "transport.shared"
_PREFIXES = sorted(PACKAGE_LAYER, key=len, reverse=True)  # longest match first


@functools.lru_cache(maxsize=None)
def layer_of(filename: str) -> str:
    """The layer a code object's file belongs to (``other`` outside repro)."""
    try:
        rel = Path(filename).resolve().relative_to(REPRO_ROOT).as_posix()
    except ValueError:
        return "other"
    for prefix in _PREFIXES:
        if rel.startswith(prefix + "/"):
            return PACKAGE_LAYER[prefix]
    return "other"  # repro/__init__.py


class LayerTrace:
    """Profile calls, then report layer self time, calls, edges and hot spots."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()

    def run(self, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` under the profiler (accumulates across calls)."""
        self._profile.enable()
        try:
            return fn()
        finally:
            self._profile.disable()

    @staticmethod
    def _layer(code: Any) -> str:
        # a builtin has no file: cProfile hands over its name as a string
        return "other" if isinstance(code, str) else layer_of(code.co_filename)

    def report(self, top: int = 10) -> Dict[str, Any]:
        """Fold the profile into ``{"layers": ..., "edges": ...}``."""
        # getstats(), not pstats: pstats keys functions by (file, line,
        # name), under which every dataclass-generated __init__ collides
        every = (*LAYERS, SHARED)
        self_s = dict.fromkeys(every, 0.0)
        calls = dict.fromkeys(every, 0)
        funcs: Dict[str, List[Tuple[float, int, str, str, int]]] = {layer: [] for layer in every}
        edges: Dict[Tuple[str, str], List[float]] = {}
        for entry in self._profile.getstats():
            layer = self._layer(entry.code)
            self_s[layer] += entry.inlinetime
            calls[layer] += entry.callcount
            funcs[layer].append((entry.inlinetime, entry.callcount, *_describe(entry.code)))
            for callee in entry.calls or ():
                edge = edges.setdefault((layer, self._layer(callee.code)), [0, 0.0])
                edge[0] += callee.callcount
                edge[1] += callee.totaltime
        _charge_shared_to_callers(self_s, calls, edges)
        total = sum(self_s[layer] for layer in LAYERS) or 1.0
        return {
            "total_self_s": total,
            "layers": {
                layer: {
                    "self_s": self_s[layer],
                    "self_share": self_s[layer] / total,
                    "calls": calls[layer],
                    "top": [
                        {"function": name, "file": filename, "line": line,
                         "self_s": seconds, "calls": n}
                        for seconds, n, name, filename, line in sorted(
                            funcs[layer], key=lambda row: (-row[0], row[2:])
                        )[:top]
                    ],
                }
                for layer in LAYERS
            },
            "edges": [
                {"from": src, "to": dst, "calls": int(n), "cum_s": cum}
                for (src, dst), (n, cum) in sorted(edges.items())
                if src != dst
            ],
        }


def _describe(code: Any) -> Tuple[str, str, int]:
    """(function, file relative to ``src``, line) of a profiler entry."""
    if isinstance(code, str):
        return code, "~", 0
    try:
        filename = Path(code.co_filename).resolve().relative_to(REPRO_ROOT.parent).as_posix()
    except ValueError:
        filename = code.co_filename
    # co_qualname is 3.11+; the project supports 3.10
    return getattr(code, "co_qualname", code.co_name), filename, code.co_firstlineno


def _charge_shared_to_callers(
    self_s: Dict[str, float], calls: Dict[str, int], edges: Dict[Tuple[str, str], List[float]]
) -> None:
    """Split ``transport/base.py`` between the stacks by who called it."""
    into = {
        src: n for (src, dst), (n, _cum) in edges.items() if dst == SHARED and src != SHARED
    }
    total = sum(into.values())
    for src, n in into.items():
        self_s[src] += self_s[SHARED] * n / total
        calls[src] += round(calls[SHARED] * n / total)


# -- simulated counts from metrics snapshots ---------------------------------
def _total(snapshots: Iterable[Dict[str, Any]], pattern: str) -> float:
    rx = re.compile(pattern)
    return sum(
        value
        for snap in snapshots
        for key, value in snap.items()
        if rx.fullmatch(key)
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def simulated_counts(snapshots: List[Dict[str, Any]]) -> Dict[str, float]:
    """The ledger's exact counts, summed over every world of one repetition.

    Node-level keys only (``transport.sctp.node3.packets_sent``, not the
    per-association copies beneath them), so nothing is counted twice.
    """
    node = r"node\d+"
    events = _total(snapshots, r"kernel\.events_processed")
    packets = _total(snapshots, rf"host\.{node}\.tx_packets")
    tcp_sent = _total(snapshots, rf"transport\.tcp\.{node}\.segments_sent")
    sctp_packets = _total(snapshots, rf"transport\.sctp\.{node}\.packets_sent")
    sctp_chunks = _total(snapshots, rf"transport\.sctp\.{node}\.i?data_chunks_sent")
    eager = _total(snapshots, r"rpi\.\w+\.rank\d+\.(eager_sends|ssends)")
    rendezvous = _total(snapshots, r"rpi\.\w+\.rank\d+\.rendezvous_sends")
    msgs = eager + rendezvous
    unexpected = _total(snapshots, r"rpi\.\w+\.rank\d+\.unexpected_messages")
    expected = _total(snapshots, r"rpi\.\w+\.rank\d+\.expected_messages")
    pipe_drops = _total(snapshots, r"net\.dummynet\.[^.]+\.dropped_packets")
    pipe_passed = _total(snapshots, r"net\.dummynet\.[^.]+\.passed_packets")
    return {
        "simkernel.events": events,
        "simkernel.heap_depth_mean": _ratio(
            _total(snapshots, r"kernel\.timer_heap_depth/sum"),
            _total(snapshots, r"kernel\.timer_heap_depth/count"),
        ),
        "simkernel.heap_compactions": _total(snapshots, r"kernel\.heap_compactions"),
        "network.packets": packets,
        "network.events_per_packet": _ratio(events, packets),
        "network.switch_forwarded": _total(snapshots, r"net\.switch\.[^.]+\.forwarded"),
        "network.drops": pipe_drops + _total(snapshots, r"net\.link\..+\.dropped_packets"),
        "transport.tcp.segments": tcp_sent,
        "transport.tcp.retransmit_frac": _ratio(
            _total(snapshots, rf"transport\.tcp\.{node}\.retransmitted_segments"), tcp_sent
        ),
        "transport.tcp.sacked_ranges": _total(
            snapshots, rf"transport\.tcp\.{node}\.sacked_ranges"
        ),
        "transport.sctp.packets": sctp_packets,
        "transport.sctp.chunks_per_packet": _ratio(sctp_chunks, sctp_packets),
        "transport.sctp.sacks": _total(snapshots, rf"transport\.sctp\.{node}\.sacks_sent"),
        "transport.sctp.gap_blocks": _total(
            snapshots, rf"transport\.sctp\.{node}\.gap_blocks_sent"
        ),
        "transport.sctp.retransmit_frac": _ratio(
            _total(snapshots, rf"transport\.sctp\.{node}\.retransmitted_chunks"), sctp_chunks
        ),
        "transport.sctp.scheduler_decisions": _total(
            snapshots, rf"transport\.sctp\.{node}\.scheduler_decisions"
        ),
        "transport.sctp.idata_chunks": _total(
            snapshots, rf"transport\.sctp\.{node}\.idata_chunks_sent"
        ),
        "core.msgs": msgs,
        "core.packets_per_msg": _ratio(packets, msgs),
        "core.advance_calls_per_msg": _ratio(
            _total(snapshots, r"rpi\.\w+\.rank\d+\.advance_calls"), msgs
        ),
        "core.unexpected_frac": _ratio(unexpected, unexpected + expected),
        "core.rendezvous_frac": _ratio(rendezvous, msgs),
        "faults.dropped_frac": _ratio(pipe_drops, pipe_drops + pipe_passed),
    }


def virtual_seconds(snapshots: List[Dict[str, Any]]) -> float:
    """Virtual time simulated by one repetition, summed over its worlds."""
    return _total(snapshots, r"kernel\.now_ns") / 1e9
