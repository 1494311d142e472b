"""Dummynet-style impairment pipe on every host egress.

The paper's testbed ran FreeBSD Dummynet on every node to inject a
configurable packet loss rate (0%, 1%, 2%) on the links between nodes.
:class:`DummynetPipe` reproduces the ``plr`` behaviour — an independent
Bernoulli drop per packet at a rate fixed when the pipe is built, drawn
from a named, seeded RNG stream so experiments are reproducible.  It is
also the one place the network is impaired: every fault a
:mod:`repro.faults` scenario injects is an
:class:`~repro.faults.impairments.Impairment` armed on a pipe's chain
(the base Bernoulli loss first, armed impairments after, in arming
order) that each packet flows through.

Determinism: the base loss draws from the ``dummynet:<name>`` stream
(one draw per packet, only while ``loss_rate > 0``); every armed
impairment draws from its own stream, so arming a scenario never
perturbs the base loss pattern.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..faults.impairments import BernoulliLoss, Impairment
from ..simkernel import Kernel
from .packet import Packet

Sink = Callable[[Packet], None]


class DummynetPipe:
    """Callable packet filter: base Bernoulli loss + armed impairments."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        loss_rate: float = 0.0,
        sink: Optional[Sink] = None,
    ) -> None:
        self.kernel = kernel
        self.name = name
        self.sink = sink
        # loss_rate validation happens in BernoulliLoss ([0, 1]; 1.0 is a
        # legitimate full blackhole, the degenerate link-down case)
        self._base = BernoulliLoss(loss_rate).bind(kernel, f"dummynet:{name}")
        self._armed: List[Impairment] = []
        # the per-packet chain is cached and rebuilt only when the armed
        # set changes (hot-path: one tuple read instead of a list
        # construction per packet)
        self._chain: tuple = ()
        self._rebuild_chain()
        self.passed_packets = 0
        self.dropped_packets = 0
        self.duplicated_packets = 0
        self.corrupted_packets = 0
        scope = kernel.metrics.scope(f"net.dummynet.{name}")
        scope.probe("passed_packets", lambda: self.passed_packets)
        scope.probe("dropped_packets", lambda: self.dropped_packets)
        scope.probe("duplicated_packets", lambda: self.duplicated_packets)
        scope.probe("corrupted_packets", lambda: self.corrupted_packets)
        scope.probe("armed_impairments", lambda: len(self._armed))

    # -- configuration ----------------------------------------------------
    @property
    def loss_rate(self) -> float:
        """Base Bernoulli drop probability (Dummynet ``plr``)."""
        return self._base.rate

    def connect(self, sink: Sink) -> None:
        """Attach the downstream element (usually a Link)."""
        self.sink = sink

    # -- impairment chain --------------------------------------------------
    def _rebuild_chain(self) -> None:
        """Recompute the cached per-packet impairment chain."""
        if self._base.rate == 0.0:
            self._chain = tuple(self._armed)
        else:
            self._chain = (self._base, *self._armed)

    def arm(self, impairment: Impairment) -> Impairment:
        """Append an impairment to the chain (bound here if needed)."""
        if not impairment.bound:
            impairment.bind(
                self.kernel,
                f"dummynet:{self.name}:{impairment.kind}{len(self._armed)}",
            )
        self._armed.append(impairment)
        self._rebuild_chain()
        return impairment

    def disarm(self, impairment: Impairment) -> None:
        """Remove a previously armed impairment (no-op if absent)."""
        if impairment in self._armed:
            self._armed.remove(impairment)
            self._rebuild_chain()

    @property
    def armed_impairments(self) -> tuple:
        """The currently armed (non-base) impairments, in chain order."""
        return tuple(self._armed)

    # -- data path ---------------------------------------------------------
    def __call__(self, packet: Packet) -> None:
        sink = self.sink
        if sink is None:
            raise RuntimeError(f"dummynet pipe {self.name} has no sink")
        chain = self._chain
        if not chain:
            # clean-pipe fast path: nothing armed, no base loss
            self.passed_packets += 1
            if packet.corrupted:
                self.corrupted_packets += 1
            sink(packet)
            return
        entries = [(packet, 0)]
        for impairment in chain:
            nxt = []
            for pkt, delay in entries:
                for out, extra in impairment.process(pkt):
                    nxt.append((out, delay + extra))
            entries = nxt
            if not entries:
                break
        if not entries:
            self.dropped_packets += 1
            return
        self.duplicated_packets += len(entries) - 1
        for pkt, delay in entries:
            self.passed_packets += 1
            if pkt.corrupted:
                self.corrupted_packets += 1
            if delay:
                self.kernel.post_after(delay, sink, pkt)
            else:
                sink(pkt)
