"""The unified metrics registry: counters, histograms, probes.

Every layer of the stack — kernel, links, Dummynet pipes, both transport
protocols, the RPI progression engines — registers into one hierarchical
:class:`MetricsRegistry` owned by the :class:`~repro.simkernel.Kernel`.
The registry is built for two properties the benchmarks depend on:

* **zero cost when disabled** — every push-metric site checks
  :attr:`MetricsRegistry.enabled` when it is built and creates no
  instrument when it is off (the histograms hold ``None``; the world
  never attaches a :class:`~repro.metrics.taps.MetricsPacketTap`), so an
  uninstrumented simulation pays one ``None`` check per push site.  A
  disabled registry also drops probe registrations and snapshots to
  ``{}``;
* **deterministic snapshots** — histograms use fixed bucket edges,
  snapshot keys are sorted, and every value derives from virtual time or
  event counts, so two runs with the same seed serialise to
  byte-identical JSON (the CI determinism gate asserts exactly this).

Two metric styles coexist:

* **push** metrics (:class:`Counter`, :class:`Histogram`) record
  transient values at event time — congestion-window samples, queue
  occupancy, timer-heap depth;
* **pull** probes (:meth:`MetricsRegistry.probe`) are callbacks read at
  snapshot time.  Layers that already keep cheap stats structs (TCP's
  ``ConnStats``, SCTP's ``AssocStats``, the RPI's ``RPIStats``) register
  probes over them, which costs nothing on the hot path at all.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, Union

Number = Union[int, float]


class Counter:
    """A monotonically growing count (events, bytes, drops)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (default 1) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount


class Histogram:
    """Fixed-bucket histogram; edges are frozen at creation for determinism.

    ``edges`` must be strictly increasing; an observation ``v`` lands in
    the first bucket whose edge satisfies ``v <= edge``, with one
    overflow bucket above the last edge.
    """

    __slots__ = ("name", "edges", "counts", "total_count", "total_sum")

    def __init__(self, name: str, edges: Iterable[Number]) -> None:
        edge_tuple = tuple(edges)
        if not edge_tuple:
            raise ValueError(f"histogram {name}: needs at least one bucket edge")
        if any(b <= a for a, b in zip(edge_tuple, edge_tuple[1:], strict=False)):
            raise ValueError(
                f"histogram {name}: edges must be strictly increasing: {edge_tuple}"
            )
        self.name = name
        self.edges = edge_tuple
        self.counts = [0] * (len(edge_tuple) + 1)
        self.total_count = 0
        self.total_sum = 0

    def observe(self, value: Number) -> None:
        """Record one sample."""
        # bisect_left gives "first bucket with value <= edge" (le semantics)
        self.counts[bisect_left(self.edges, value)] += 1
        self.total_count += 1
        self.total_sum += value


def _coerce(value: Any) -> Any:
    """Make a probe/row value JSON-stable (handles numpy scalars)."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    # numpy integers/floats/bools and similar scalar wrappers
    try:
        if hasattr(value, "is_integer") or hasattr(value, "__float__"):
            f = float(value)
            return int(f) if f.is_integer() and abs(f) < 2**53 else f
    except (TypeError, ValueError):
        pass
    return str(value)


class MetricsScope:
    """A registry view that prefixes every name (``scope.counter("x")``)."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix

    def _join(self, name: str) -> str:
        return f"{self._prefix}.{name}" if self._prefix else name

    @property
    def enabled(self) -> bool:
        return self._registry.enabled

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._join(name))

    def histogram(self, name: str, edges: Iterable[Number]) -> Histogram:
        return self._registry.histogram(self._join(name), edges)

    def probe(self, name: str, fn: Callable[[], Any]) -> None:
        self._registry.probe(self._join(name), fn)

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self._registry, self._join(prefix))


class MetricsRegistry:
    """Hierarchical metric store with deterministic snapshots.

    Metric creation is get-or-create: asking twice for the same name
    returns the same object (so e.g. every TCP connection on a host can
    share one cwnd histogram).  Asking for an existing name with a
    different metric kind is an error.  Probe names are deduplicated
    with a deterministic ``#N`` suffix, since independent objects (two
    connections reusing a port pair) may legitimately describe
    themselves identically.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._metrics: Dict[str, Union[Counter, Histogram]] = {}
        self._probes: Dict[str, Callable[[], Any]] = {}

    @property
    def enabled(self) -> bool:
        return self._enabled

    # -- creation ----------------------------------------------------------
    def _get_or_create(self, name: str, kind: type, factory: Callable):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        if name in self._probes:
            raise TypeError(f"metric {name!r} already registered as a probe")
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def histogram(self, name: str, edges: Iterable[Number]) -> Histogram:
        """Get or create a fixed-edge histogram called ``name``."""
        hist = self._get_or_create(name, Histogram, lambda: Histogram(name, edges))
        if hist.edges != tuple(edges):
            raise ValueError(
                f"histogram {name!r} re-requested with different edges "
                f"({hist.edges} vs {tuple(edges)})"
            )
        return hist

    def probe(self, name: str, fn: Callable[[], Any]) -> None:
        """Register a pull callback evaluated at snapshot time."""
        if not self._enabled:
            return
        unique = name
        suffix = 2
        while unique in self._probes or unique in self._metrics:
            unique = f"{name}#{suffix}"
            suffix += 1
        self._probes[unique] = fn

    def scope(self, prefix: str) -> MetricsScope:
        """A view of this registry under ``prefix.``."""
        return MetricsScope(self, prefix)

    # -- reading -----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """One flat, name-sorted dict of every metric and probe value.

        Histograms expand into ``<name>/le_<edge>``, ``<name>/le_inf``,
        ``<name>/count`` and ``<name>/sum`` entries.
        """
        if not self._enabled:
            return {}
        out: Dict[str, Any] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                for edge, count in zip(metric.edges, metric.counts, strict=False):
                    out[f"{name}/le_{edge}"] = count
                out[f"{name}/le_inf"] = metric.counts[-1]
                out[f"{name}/count"] = metric.total_count
                out[f"{name}/sum"] = _coerce(metric.total_sum)
            else:
                out[name] = _coerce(metric.value)
        for name, fn in self._probes.items():
            out[name] = _coerce(fn())
        return dict(sorted(out.items()))
