"""Packet-level network substrate.

Models the paper's testbed: eight hosts with one or more gigabit interfaces,
connected through a layer-2 switch, with Dummynet-style seeded Bernoulli
loss pipes on host egress.  Everything is built from four small pieces:

* :class:`~repro.network.packet.Packet` — an IP-ish datagram whose payload
  is a transport PDU object (bytes are accounted, never materialised),
* :class:`~repro.network.link.Link` — unidirectional serialisation +
  propagation + FIFO drop-tail queue,
* :class:`~repro.network.switch.Switch` — static L2 forwarding,
* :class:`~repro.network.host.Host` — addresses, protocol demux, and a
  :class:`~repro.network.costmodel.CostModel`-driven CPU.

:func:`~repro.network.topology.build_cluster` assembles the whole testbed in
one call.
"""

from .costmodel import CostModel
from .dummynet import DummynetPipe
from .host import Host, HostCPU
from .link import Link
from .packet import Packet
from .switch import Switch
from .topology import Cluster, ClusterConfig, build_cluster

__all__ = [
    "Cluster",
    "ClusterConfig",
    "CostModel",
    "DummynetPipe",
    "Host",
    "HostCPU",
    "Link",
    "Packet",
    "Switch",
    "build_cluster",
]
