"""Hosts: NICs, a serialised CPU, and protocol demultiplexing.

A :class:`Host` is where the transport stacks live.  Transports register as
protocol handlers; inbound packets are charged receive CPU (via
:class:`HostCPU`, which serialises work like a real single core) and then
demultiplexed by protocol; outbound packets are charged send CPU and routed
out of the NIC owning the packet's source address.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..simkernel import Kernel
from .costmodel import CostModel
from .nic import NIC
from .packet import Packet


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

        Returns the virtual time at which the work completes.
        """
        if cost_ns < 0:
            raise ValueError(f"negative CPU cost: {cost_ns}")
        # per-packet hot path: avoid max()/property overhead, and schedule
        # through the fire-and-forget kernel path (CPU work is never
        # cancelled, so no handle is needed)
        kernel = self.kernel
        now = kernel._now
        start = self._busy_until
        if start < now:
            start = now
        done = start + cost_ns
        self._busy_until = done
        self.total_busy_ns += cost_ns
        if done == now:
            fn(*args)
        else:
            kernel.post_at(done, fn, *args)
        return done

    def charge(self, cost_ns: int) -> int:
        """Account CPU time without attaching a callback.

        Same serialisation as ``execute(cost_ns, _noop)`` — the no-op
        completion event still lands on the heap so clock advance and
        deadlock detection are unchanged — minus one call frame.
        """
        if cost_ns < 0:
            raise ValueError(f"negative CPU cost: {cost_ns}")
        kernel = self.kernel
        now = kernel._now
        start = self._busy_until
        if start < now:
            start = now
        done = start + cost_ns
        self._busy_until = done
        self.total_busy_ns += cost_ns
        if done != now:
            kernel.post_at(done, _noop)
        return done


def _noop() -> None:
    return None


class Host:
    """A cluster node: interfaces + CPU + registered transport handlers."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.kernel = kernel
        self.name = name
        self.cost_model = cost_model or CostModel()
        self.cpu = HostCPU(kernel)
        self.interfaces: List[NIC] = []
        self._nic_by_addr: Dict[str, NIC] = {}
        # prebound per-address NIC.send / per-proto handler.receive: the
        # data path schedules these once per packet, and looking up a
        # stored bound method is cheaper than re-binding it each time
        self._nic_send_by_addr: Dict[str, Callable[[Packet], None]] = {}
        self._handler_recv: Dict[str, Callable[[Packet], None]] = {}
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

    # -- interfaces ------------------------------------------------------
    def add_interface(self, nic: NIC) -> NIC:
        """Attach a NIC; the first attached NIC is the primary address."""
        nic.host = self
        self.interfaces.append(nic)
        if nic.addr not in self._nic_by_addr:
            self._nic_by_addr[nic.addr] = nic
            self._nic_send_by_addr[nic.addr] = nic.send
        return nic

    def addresses(self) -> List[str]:
        """All local addresses, primary first."""
        return [nic.addr for nic in self.interfaces]

    @property
    def primary_address(self) -> str:
        """The address of the first (primary) interface."""
        if not self.interfaces:
            raise RuntimeError(f"host {self.name} has no interfaces")
        return self.interfaces[0].addr

    def nic_for(self, addr: str) -> NIC:
        """The NIC bound to ``addr`` (falls back to the primary NIC)."""
        nic = self._nic_by_addr.get(addr)
        if nic is not None:
            return nic
        return self.interfaces[0]

    # -- protocol handlers -------------------------------------------------
    def register_protocol(self, proto: str, handler: Any) -> None:
        """Install the object whose ``.receive(packet)`` gets ``proto`` input."""
        if proto in self._handlers:
            raise ValueError(f"host {self.name}: protocol {proto} already registered")
        self._handlers[proto] = handler
        self._handler_recv[proto] = handler.receive

    def protocol_handler(self, proto: str) -> Any:
        """Look up a previously registered handler."""
        return self._handlers[proto]

    # -- data path ---------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Transmit ``packet`` out of the NIC owning ``packet.src``,
        charging the protocol's per-packet send CPU first."""
        nic_send = self._nic_send_by_addr.get(packet.src)
        if nic_send is None:
            nic_send = self.interfaces[0].send  # unknown src: primary NIC
        cost = self.cost_model.packet_send_cost(packet.proto, packet.wire_size)
        self.tx_packets += 1
        if self.taps:
            for tap in self.taps:
                tap("tx", self, packet)
        # per-packet hot path: HostCPU.execute inlined (the cost model
        # never returns a negative charge, so the guard is skipped)
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
            nic_send(packet)
        else:
            kernel.post_at(done, nic_send, packet)

    def deliver(self, packet: Packet) -> None:
        """Ingress path: charge receive CPU, then demux to the transport."""
        handler_recv = self._handler_recv.get(packet.proto)
        if handler_recv is None:
            return  # no listener: silently dropped, like an unhandled proto
        self.rx_packets += 1
        if self.taps:
            for tap in self.taps:
                tap("rx", self, packet)
        cost = self.cost_model.packet_recv_cost(packet.proto, packet.wire_size)
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
