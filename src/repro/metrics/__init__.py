"""Unified observability layer: one registry across every subsystem.

See :mod:`repro.metrics.registry` for the metric types,
:mod:`repro.metrics.taps` for the packet-tap bus shared with
:class:`repro.util.trace.PacketTrace`, and
:mod:`repro.metrics.collect` for benchmark-time collection
(``python -m repro.bench fig8 --metrics-json out.json``).
"""

from .collect import MetricsCollector, active_collector
from .registry import Counter, Histogram, MetricsRegistry, MetricsScope
from .taps import MetricsPacketTap, PacketTap

__all__ = [
    "Counter",
    "Histogram",
    "MetricsCollector",
    "MetricsPacketTap",
    "MetricsRegistry",
    "MetricsScope",
    "PacketTap",
    "active_collector",
]
