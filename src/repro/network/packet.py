"""The simulator's datagram.

A :class:`Packet` stands for one IP datagram on the wire.  Its ``payload``
is the transport protocol's PDU object (a TCP segment or an SCTP packet of
chunks); ``wire_size`` is the number of bytes the datagram would occupy on
the link including all headers, which is what links/queues/loss act on.
Actual user bytes are never stored in packets — transports use a ledger
scheme (see ``repro.transport``) so data is only *readable* once the
protocol has legitimately delivered it.
"""

from __future__ import annotations

import itertools
from typing import Any

_packet_ids = itertools.count(1)
_next_packet_id = _packet_ids.__next__  # bound method: no lambda per packet

IP_HEADER = 20


class Packet:
    """One simulated IP datagram (slotted: one per wire transmission)."""

    __slots__ = ("src", "dst", "proto", "payload", "wire_size", "pkt_id", "corrupted")

    def __init__(self, src: str, dst: str, proto: str, payload: Any, wire_size: int) -> None:
        if wire_size <= 0:
            raise ValueError(f"packet must occupy wire bytes, got {wire_size}")
        self.src = src
        self.dst = dst
        self.proto = proto  # "tcp" | "sctp" (plus anything tests register)
        self.payload = payload
        self.wire_size = wire_size  # total on-wire bytes including IP + transport headers
        self.pkt_id = _next_packet_id()
        # set by the Corrupt impairment (repro.faults): the datagram still
        # occupies the wire, but the receiving transport's integrity check
        # (SCTP CRC32c, TCP checksum) must reject it on arrival
        self.corrupted = False

    def __repr__(self) -> str:
        return (
            f"Packet(src={self.src!r}, dst={self.dst!r}, proto={self.proto!r}, "
            f"payload={self.payload!r}, wire_size={self.wire_size!r}, "
            f"pkt_id={self.pkt_id!r}, corrupted={self.corrupted!r})"
        )
