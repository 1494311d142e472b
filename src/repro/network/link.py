"""Unidirectional link: serialisation + propagation + drop-tail FIFO.

A transmitter can only push one packet onto the wire at a time; packets
that arrive while the transmitter is busy wait in a byte-bounded queue and
are dropped (tail drop) when it overflows.  Propagation is a pure delay, so
multiple packets can be in flight simultaneously.

One kernel event per hop: the transmitter is a single FIFO feeder, so the
instant a packet finishes serialising is known when it is accepted, and
:meth:`Link.send` posts the sink call directly at that instant plus the
propagation delay.  Nothing observes the end of serialisation except the
byte count of the queue, which is settled lazily: accepted packets wait in
a FIFO of ``(serialisation end, size)`` and leave the count the next time
anybody looks (the next ``send``, ``queued_bytes``, the metrics probe).
A packet whose serialisation ends at exactly ``now`` has left the queue.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from ..simkernel import Kernel
from .packet import Packet

Sink = Callable[[Packet], None]

# queue-occupancy buckets in bytes: one MTU up to the default 512 KiB cap
QUEUE_OCCUPANCY_EDGES = (1500, 8 * 1024, 32 * 1024, 128 * 1024, 512 * 1024, 2 * 1024 * 1024)


class Link:
    """One direction of a cable; create two for full duplex."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        bandwidth_bps: int,
        prop_delay_ns: int,
        queue_bytes: int = 512 * 1024,
        sink: Optional[Sink] = None,
    ) -> None:
        if prop_delay_ns < 0:
            raise ValueError("propagation delay cannot be negative")
        if bandwidth_bps <= 0:
            raise ValueError(f"non-positive bandwidth: {bandwidth_bps}")
        self.kernel = kernel
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay_ns = prop_delay_ns
        self.queue_bytes = queue_bytes
        self.sink = sink
        self._ready_at = 0  # virtual time the transmitter becomes idle
        # bytes accepted and not yet settled out of _serialising; read
        # through queued_bytes, which settles first
        self._queued_bytes = 0
        self._serialising: Deque[Tuple[int, int]] = deque()  # (done, size)
        # PDES hook: when set, an accepted packet is handed here as
        # ``(link, packet, deliver_at)`` instead of being scheduled onto
        # the local sink — the packet is leaving this shard and will be
        # delivered by the peer shard that owns the receiving end (see
        # repro.simkernel.pdes)
        self.divert: Optional[Callable[["Link", Packet, int], None]] = None
        # statistics
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        scope = kernel.metrics.scope(f"net.link.{name}")
        scope.probe("tx_packets", lambda: self.tx_packets)
        scope.probe("tx_bytes", lambda: self.tx_bytes)
        scope.probe("dropped_packets", lambda: self.dropped_packets)
        scope.probe("dropped_bytes", lambda: self.dropped_bytes)
        scope.probe("queued_bytes", lambda: self.queued_bytes)
        self._occupancy_hist = (
            scope.histogram("queue_occupancy_bytes", QUEUE_OCCUPANCY_EDGES)
            if kernel.metrics.enabled
            else None
        )

    def connect(self, sink: Sink) -> None:
        """Attach the receiving end (`Host.deliver` or a switch port)."""
        self.sink = sink

    @property
    def queued_bytes(self) -> int:
        """Bytes currently waiting for (or occupying) the transmitter."""
        now = self.kernel._now
        if self._ready_at <= now:
            return 0
        return self._settle(now)

    def _settle(self, now: int) -> int:
        """Transmitter busy past ``now``: drop what has been serialised by
        ``now`` from the byte count."""
        serialising = self._serialising
        queued = self._queued_bytes
        # terminates: the last entry ends at _ready_at, which is > now
        while serialising[0][0] <= now:
            queued -= serialising.popleft()[1]
        self._queued_bytes = queued
        return queued

    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet``; returns False if tail-dropped."""
        sink = self.sink
        if sink is None:
            raise RuntimeError(f"link {self.name} has no sink connected")
        kernel = self.kernel
        now = kernel._now
        size = packet.wire_size
        start = self._ready_at
        if start <= now:
            # transmitter idle: everything accepted earlier has left
            start = now
            queued = size
            self._serialising.clear()
        else:
            queued = self._settle(now) + size
        if queued > self.queue_bytes:
            self.dropped_packets += 1
            self.dropped_bytes += size
            return False
        self._queued_bytes = queued
        if self._occupancy_hist is not None:
            self._occupancy_hist.observe(queued)
        # hot path: serialisation delay inlined (identical arithmetic to
        # simkernel.units.tx_time_ns) and delivery scheduled through the
        # fire-and-forget kernel path — a transmission is never cancelled
        bandwidth = self.bandwidth_bps
        tx_ns = (size * 8_000_000_000 + bandwidth - 1) // bandwidth
        done = start + (tx_ns if tx_ns > 0 else 1)
        self._ready_at = done
        self._serialising.append((done, size))
        self.tx_packets += 1
        self.tx_bytes += size
        divert = self.divert
        if divert is not None:
            divert(self, packet, done + self.prop_delay_ns)
        else:
            kernel.post_at(done + self.prop_delay_ns, sink, packet)
        return True
