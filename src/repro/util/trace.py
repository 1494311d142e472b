"""Packet tracing: tcpdump for the simulator.

Attach a :class:`PacketTrace` to any set of hosts and every packet they
transmit or receive is recorded with its virtual timestamp.  Useful for
debugging protocol behaviour and for tests that assert on wire-level
event sequences.

    trace = PacketTrace(kernel)
    trace.attach(cluster.hosts)
    ... run simulation ...
    print(trace.to_text(proto="sctp", limit=50))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..metrics.taps import PacketTap


@dataclass(frozen=True)
class TraceEntry:
    """One observed packet event."""

    t_ns: int
    direction: str  # "tx" | "rx"
    host: str
    proto: str
    src: str
    dst: str
    wire_size: int
    summary: str

    def format(self) -> str:
        return (
            f"{self.t_ns / 1e6:12.3f}ms {self.host:<7} {self.direction} "
            f"{self.proto:<5} {self.src}->{self.dst} {self.wire_size:>5}B "
            f"{self.summary}"
        )


class PacketTrace(PacketTap):  # repro: allow[AN107] — the documented debugging aid
    """Records packet events from the hosts it is attached to.

    One consumer of the shared :class:`~repro.metrics.taps.PacketTap`
    infrastructure (the other being
    :class:`~repro.metrics.taps.MetricsPacketTap`); both can observe the
    same hosts simultaneously.
    """

    def __init__(self, kernel, max_entries: int = 100_000) -> None:
        self.kernel = kernel
        self.max_entries = max_entries
        self.entries: List[TraceEntry] = []
        self.dropped = 0  # entries beyond max_entries

    def on_packet(self, direction: str, host, packet) -> None:
        if len(self.entries) >= self.max_entries:
            self.dropped += 1
            return
        self.entries.append(
            TraceEntry(
                t_ns=self.kernel.now,
                direction=direction,
                host=host.name,
                proto=packet.proto,
                src=packet.src,
                dst=packet.dst,
                wire_size=packet.wire_size,
                summary=repr(packet.payload),
            )
        )

    # -- queries ------------------------------------------------------------
    def select(
        self,
        proto: Optional[str] = None,
        host: Optional[str] = None,
        direction: Optional[str] = None,
    ) -> List[TraceEntry]:
        """Filtered view of the recorded entries, in time order."""
        out = self.entries
        if proto is not None:
            out = [e for e in out if e.proto == proto]
        if host is not None:
            out = [e for e in out if e.host == host]
        if direction is not None:
            out = [e for e in out if e.direction == direction]
        return out

    def count(self, **filters) -> int:
        """Number of matching entries."""
        return len(self.select(**filters))

    def to_text(  # repro: allow[AN107] — the debugging aid's dump
        self, limit: int = 200, **filters
    ) -> str:
        """Human-readable dump of (up to ``limit``) matching entries."""
        lines = [e.format() for e in self.select(**filters)[:limit]]
        if self.dropped:
            lines.append(f"... trace truncated, {self.dropped} events dropped")
        return "\n".join(lines)
