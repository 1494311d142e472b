"""Packet-tap infrastructure shared by tracing and metrics.

Hosts publish every transmitted/received packet to the callbacks in
``host.taps``.  :class:`PacketTap` is the attach plumbing every
consumer shares; :class:`repro.util.trace.PacketTrace` (the tcpdump-like
recorder) and :class:`MetricsPacketTap` (per-host, per-protocol packet
and byte counters) are both consumers of the same bus, so a benchmark
can count *and* trace without the host knowing either exists.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from .registry import Counter, MetricsScope


class PacketTap:
    """Base class: subscribe to the packet events of a set of hosts.

    Subclasses implement :meth:`on_packet`; ``direction`` is ``"tx"`` or
    ``"rx"``, ``host`` the publishing :class:`~repro.network.host.Host`,
    ``packet`` the :class:`~repro.network.packet.Packet` on the wire.
    """

    def attach(self, hosts: Iterable) -> "PacketTap":
        """Start observing ``hosts``; returns self for chaining."""
        for host in hosts:
            host.taps.append(self._tap)
        return self

    def _tap(self, direction: str, host, packet) -> None:
        self.on_packet(direction, host, packet)

    def on_packet(self, direction: str, host, packet) -> None:
        """Handle one packet event; subclasses override."""
        raise NotImplementedError


class MetricsPacketTap(PacketTap):
    """Counts packets and wire bytes per (host, direction, protocol).

    Registers ``<host>.<direction>.<proto>.packets`` / ``.bytes``
    counters under the scope it is given (the world uses
    ``net.packets``).
    """

    def __init__(self, scope: MetricsScope) -> None:
        self._scope = scope
        self._counters: Dict[Tuple[str, str, str], Tuple[Counter, Counter]] = {}

    def on_packet(self, direction: str, host, packet) -> None:
        key = (host.name, direction, packet.proto)
        pair = self._counters.get(key)
        if pair is None:
            base = f"{host.name}.{direction}.{packet.proto}"
            pair = (
                self._scope.counter(f"{base}.packets"),
                self._scope.counter(f"{base}.bytes"),
            )
            self._counters[key] = pair
        pair[0].inc()
        pair[1].inc(packet.wire_size)
