"""Recovery observers: measure how transports ride out a fault.

Built on the host packet-tap bus (``host.taps``) shared with
:class:`repro.metrics.MetricsPacketTap` and
:class:`repro.util.trace.PacketTrace`, so benches can measure recovery
without the transports knowing they are observed.
"""

from __future__ import annotations

from typing import Optional

from ..metrics.taps import PacketTap
from ..simkernel import MILLISECOND


def carries_data(packet) -> bool:
    """Whether a packet moves user payload (vs pure control/ack)."""
    payload = packet.payload
    data_len = getattr(payload, "data_len", None)  # TCP segment
    if data_len is not None:
        return data_len > 0
    data_chunks = getattr(payload, "data_chunks", None)  # SCTP packet
    if data_chunks is not None:
        return bool(data_chunks())
    return True  # unknown PDU: count it


class DeliveryWatch(PacketTap):
    """Tracks data-delivery stalls for one protocol across a run.

    * ``max_gap_ns`` — the longest interval between two consecutive
      data-bearing receives anywhere in the observed host set: under a
      fault this is the outage the application actually felt (TCP's RTO
      backoff stall, SCTP's failover detection time).
    * ``recovery_ns`` — how long after ``fault_start_ns`` delivery
      resumed: the end of the first stall (gap >= ``min_stall_ns``)
      reaching past the fault start.  In-flight packets draining just
      after the fault hits don't count as recovery — only delivery
      resuming after an actual outage does.
    """

    def __init__(
        self,
        proto: str,
        fault_start_ns: int = 0,
        min_stall_ns: int = 1 * MILLISECOND,
    ) -> None:
        self.proto = proto
        self.fault_start_ns = fault_start_ns
        self.min_stall_ns = min_stall_ns
        self.data_rx_packets = 0
        self.first_data_rx_ns: Optional[int] = None
        self.last_data_rx_ns: Optional[int] = None
        self.first_data_rx_after_fault_ns: Optional[int] = None
        self.stall_recovered_ns: Optional[int] = None  # end of first stall
        self.max_gap_ns = 0

    def on_packet(self, direction: str, host, packet) -> None:
        if direction != "rx" or packet.proto != self.proto:
            return
        if not carries_data(packet):
            return
        now = host.kernel.now
        self.data_rx_packets += 1
        if self.last_data_rx_ns is None:
            self.first_data_rx_ns = now
        else:
            gap = now - self.last_data_rx_ns
            if gap > self.max_gap_ns:
                self.max_gap_ns = gap
            if (
                self.stall_recovered_ns is None
                and now >= self.fault_start_ns
                and gap >= self.min_stall_ns
            ):
                self.stall_recovered_ns = now
        self.last_data_rx_ns = now
        if now >= self.fault_start_ns and self.first_data_rx_after_fault_ns is None:
            self.first_data_rx_after_fault_ns = now

    @property
    def recovery_ns(self) -> Optional[int]:
        """ns from fault start until delivery resumed after the outage.

        ``0`` means delivery never stalled (the stack shrugged the fault
        off); ``None`` means data never flowed again after the fault.
        """
        if self.stall_recovered_ns is not None:
            return self.stall_recovered_ns - self.fault_start_ns
        if self.first_data_rx_after_fault_ns is not None:
            return 0
        return None
