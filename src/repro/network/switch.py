"""Layer-2 switch with static forwarding.

The paper's cluster hangs all eight nodes off one gigabit switch (one per
subnet when multihomed).  We model store-and-forward switching: the ingress
side is instantaneous (the input link already paid serialisation), and each
output port owns a :class:`~repro.network.link.Link` whose serialisation
models output-port contention.
"""

from __future__ import annotations

from typing import Callable, Dict

from .link import Link
from .packet import Packet


class Switch:
    """Static-table L2 switch: destination address -> output link."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._ports: Dict[str, Link] = {}
        self.forwarded = 0
        self.unroutable = 0
        self.up = True

    def attach(self, addr: str, out_link: Link) -> None:
        """Bind ``addr`` to the link leading to that address's NIC."""
        if addr in self._ports:
            raise ValueError(f"switch {self.name}: {addr} already attached")
        self._ports[addr] = out_link

    def ingress(self) -> Callable[[Packet], None]:
        """The sink to hand to every host->switch link."""
        return self._forward

    def _forward(self, packet: Packet) -> None:
        if not self.up:
            return
        out = self._ports.get(packet.dst)
        if out is None:
            self.unroutable += 1
            return
        self.forwarded += 1
        out.send(packet)

    def set_up(self, up: bool) -> None:
        """Kill/revive the whole switch (multihoming failover scenarios)."""
        self.up = up

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Switch {self.name} ports={len(self._ports)}>"
