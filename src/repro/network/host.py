"""Hosts: addresses, a serialised CPU, and protocol demultiplexing.

A :class:`Host` is where the transport stacks live.  Transports register as
protocol handlers; inbound packets are charged receive CPU (via
:class:`HostCPU`, which serialises work like a real single core) and then
demultiplexed by protocol; outbound packets are charged send CPU and handed
straight to the egress (the Dummynet pipe) of the packet's source address.
A multihomed host (paper §2.1) owns one address per subnet, each with its
own egress, so losing one path only kills the packets sent from that
address.  A host reads each
protocol's per-packet charge from a table it derives once from its frozen
:class:`CostModel`, so a packet pays a dictionary read and a multiply.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..simkernel import Kernel
from .costmodel import CostModel
from .packet import Packet

Sink = Callable[[Packet], None]


def _cost_terms(cost: Callable[[str, int], int], proto: str) -> Tuple[int, int]:
    """``(fixed ns, ns per KiB)`` of one of :class:`CostModel`'s per-packet
    formulas, each of which is ``fixed + per_kib * wire_size // 1024``:
    evaluated at 0 and 1,024 bytes, the formula gives both terms."""
    fixed = cost(proto, 0)
    return fixed, cost(proto, 1024) - fixed


class HostCPU:
    """A single serialised execution resource.

    ``execute`` queues work FIFO behind whatever the CPU is already doing;
    this is what makes per-message stack costs visible as throughput (the
    ping-pong sender cannot push packet N+1 while still checksumming N).
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self._busy_until = 0
        self.total_busy_ns = 0

    def execute(self, cost_ns: int, fn: Callable, *args: Any) -> int:
        """Run ``fn(*args)`` after ``cost_ns`` of CPU, FIFO-serialised.

        Returns the virtual time at which the work completes.  CPU work is
        never cancelled, so it goes through the fire-and-forget kernel path.
        """
        done = self.charge(cost_ns)
        if done == self.kernel._now:
            fn(*args)
        else:
            self.kernel.post_at(done, fn, *args)
        return done

    def charge(self, cost_ns: int) -> int:
        """Account ``cost_ns`` of CPU; return when that work completes.

        Pure FIFO arithmetic: nothing lands in the kernel heap.  A FIFO
        fixes a job's completion time at submission, so the later jobs
        queue behind it exactly as if a completion event had been posted,
        and an event that runs no code changes no virtual-time output
        (DESIGN §9.3).
        """
        if cost_ns < 0:
            raise ValueError(f"negative CPU cost: {cost_ns}")
        now = self.kernel._now
        start = self._busy_until
        if start < now:
            start = now
        done = start + cost_ns
        self._busy_until = done
        self.total_busy_ns += cost_ns
        return done


class Host:
    """A cluster node: addresses + CPU + registered transport handlers."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.kernel = kernel
        self.name = name
        self._cost_model = cost_model or CostModel()
        # per-protocol (fixed ns, ns per KiB) of the send charge, filled
        # when a handler registers (or on an unregistered protocol's first
        # packet); the receive terms sit beside each handler
        self._send_terms: Dict[str, Tuple[int, int]] = {}
        self.cpu = HostCPU(kernel)
        # local address -> its egress (the address's Dummynet pipe),
        # primary first.  The data path schedules the egress and the
        # prebound per-proto handler.receive once per packet (a stored
        # bound method is cheaper to look up than to re-bind)
        self.egress: Dict[str, Sink] = {}
        self._handler_recv: Dict[str, Tuple[Callable[[Packet], None], int, int]] = {}
        self._handlers: Dict[str, Any] = {}
        self.rx_packets = 0
        self.tx_packets = 0
        # observability taps: fn(direction, host, packet); consumers are
        # PacketTap subclasses (repro.metrics.taps, repro.util.trace)
        self.taps: List[Callable[[str, "Host", Packet], None]] = []
        scope = kernel.metrics.scope(f"host.{name}")
        scope.probe("rx_packets", lambda: self.rx_packets)
        scope.probe("tx_packets", lambda: self.tx_packets)
        scope.probe("cpu_busy_ns", lambda: self.cpu.total_busy_ns)

    @property
    def cost_model(self) -> CostModel:
        """The host's CPU charges (read-only: the per-packet terms are
        derived from it once)."""
        return self._cost_model

    # -- addresses ---------------------------------------------------------
    def add_address(self, addr: str, egress: Sink) -> None:
        """Own ``addr`` and send its packets into ``egress``; the first
        address added is the primary."""
        if addr in self.egress:
            raise ValueError(f"host {self.name}: {addr} already added")
        self.egress[addr] = egress

    def addresses(self) -> List[str]:
        """All local addresses, primary first."""
        return list(self.egress)

    @property
    def primary_address(self) -> str:
        """The first address added."""
        for addr in self.egress:
            return addr
        raise RuntimeError(f"host {self.name} has no addresses")

    # -- protocol handlers -------------------------------------------------
    def register_protocol(self, proto: str, handler: Any) -> None:
        """Install the object whose ``.receive(packet)`` gets ``proto`` input."""
        if proto in self._handlers:
            raise ValueError(f"host {self.name}: protocol {proto} already registered")
        self._handlers[proto] = handler
        self._send_terms[proto] = _cost_terms(self._cost_model.packet_send_cost, proto)
        self._handler_recv[proto] = (
            handler.receive,
            *_cost_terms(self._cost_model.packet_recv_cost, proto),
        )

    # -- data path ---------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Transmit ``packet`` into the egress of ``packet.src``, charging
        the protocol's per-packet send CPU first."""
        egress = self.egress.get(packet.src)
        if egress is None:  # unknown source: the primary address's egress
            egress = self.egress[self.primary_address]
        terms = self._send_terms.get(packet.proto)
        if terms is None:  # no handler registered for this protocol
            terms = self._send_terms[packet.proto] = _cost_terms(
                self._cost_model.packet_send_cost, packet.proto
            )
        fixed, per_kib = terms
        cost = fixed + per_kib * packet.wire_size // 1024 if per_kib else fixed
        self.tx_packets += 1
        if self.taps:
            for tap in self.taps:
                tap("tx", self, packet)
        # per-packet hot path: HostCPU.execute inlined (CostModel rejects
        # negative fields, so the negative-cost guard is skipped)
        cpu = self.cpu
        kernel = cpu.kernel
        now = kernel._now
        start = cpu._busy_until
        if start < now:
            start = now
        done = start + cost
        cpu._busy_until = done
        cpu.total_busy_ns += cost
        if done == now:
            egress(packet)
        else:
            kernel.post_at(done, egress, packet)

    def deliver(self, packet: Packet) -> None:
        """Ingress from the wire (every downlink's sink): charge receive
        CPU, then demux to the transport."""
        entry = self._handler_recv.get(packet.proto)
        if entry is None:
            return  # no listener: silently dropped, like an unhandled proto
        handler_recv, fixed, per_kib = entry
        self.rx_packets += 1
        if self.taps:
            for tap in self.taps:
                tap("rx", self, packet)
        cost = fixed + per_kib * packet.wire_size // 1024 if per_kib else fixed
        cpu = self.cpu
        kernel = cpu.kernel
        now = kernel._now
        start = cpu._busy_until
        if start < now:
            start = now
        done = start + cost
        cpu._busy_until = done
        cpu.total_busy_ns += cost
        if done == now:
            handler_recv(packet)
        else:
            kernel.post_at(done, handler_recv, packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} {self.addresses()}>"
