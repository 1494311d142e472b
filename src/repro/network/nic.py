"""Network interface card: one address, one egress path.

A multihomed host (paper §2.1) simply owns several NICs, each on its own
subnet/switch, so the end-to-end paths are genuinely independent — losing
one switch only kills the packets routed over that interface.
"""

from __future__ import annotations

from typing import Callable, Optional

from .packet import Packet

Sink = Callable[[Packet], None]


class NIC:
    """A host interface: an IP address plus an egress sink (pipe or link)."""

    def __init__(self, addr: str, egress: Optional[Sink] = None) -> None:
        self.addr = addr
        self.egress = egress
        self.host = None  # set by Host.add_interface
        self.up = True
        self.tx_packets = 0
        self.rx_packets = 0

    def connect(self, egress: Sink) -> None:
        """Attach the first element of the egress chain."""
        self.egress = egress

    def send(self, packet: Packet) -> None:
        """Transmit if the interface is up; silently drop otherwise."""
        if not self.up:
            return
        if self.egress is None:
            raise RuntimeError(f"NIC {self.addr} has no egress connected")
        self.tx_packets += 1
        self.egress(packet)

    def receive(self, packet: Packet) -> None:
        """Ingress from the wire; hands the packet to the owning host."""
        if not self.up or self.host is None:
            return
        self.rx_packets += 1
        self.host.deliver(packet)

    def set_up(self, up: bool) -> None:
        """Administratively enable/disable the interface (failover tests)."""
        self.up = up

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"<NIC {self.addr} {state}>"
