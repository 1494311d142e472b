"""Composable packet impairment models.

Every impairment is one small state machine behind a single interface:
:meth:`Impairment.process` takes one packet and returns the list of
``(packet, delay_ns)`` pairs to forward downstream — an empty list
drops the packet, two entries duplicate it, a non-zero delay lets later
packets overtake it (reordering).  Impairments are configuration
dataclasses; all runtime state (RNG stream, counters, Markov state) is
created by :meth:`Impairment.bind`, so one unbound instance can serve as
the prototype for many armed copies (one per target pipe) without any
shared state.

Determinism: every bound impairment draws from its own named kernel RNG
stream (``kernel.rng(label)``), so arming a new impairment never
perturbs the draws of the base Dummynet loss process or of any other
impairment — same-seed runs stay byte-identical.

The models map onto the mechanisms the paper's evaluation exercises:

* :class:`BernoulliLoss` — the Dummynet ``plr`` i.i.d. drop of §4
  (Table 1, Figs. 10-12); rate 1.0 is a full blackhole.
* :class:`GilbertElliott` — bursty/correlated loss, the regime where
  SCTP's unlimited SACK gap-ack blocks beat TCP's 3-block SACK option.
* :class:`Blackhole` — a time-windowed link failure; drives SCTP
  heartbeat-based failover (§3.5.1) vs TCP RTO backoff.
* :class:`Corrupt` — on-wire bit corruption; rejected by SCTP's CRC32c
  / verification-tag validation and TCP's checksum (§3.5.2).
* :class:`Duplicate` / :class:`Reorder` — duplicate TSN reporting and
  SACK reordering robustness.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Tuple

from ..network.packet import Packet

Emit = Tuple[Packet, int]  # (packet to forward, extra delay in ns)


def _check_rate(name: str, rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{name} must be in [0, 1]: {rate}")


def copy_packet(packet: Packet) -> Packet:
    """A duplicate wire copy (fresh pkt_id, same payload object)."""
    dup = Packet(
        src=packet.src,
        dst=packet.dst,
        proto=packet.proto,
        payload=packet.payload,
        wire_size=packet.wire_size,
    )
    dup.corrupted = packet.corrupted
    return dup


@dataclass
class Impairment:
    """Base class: a configurable, seedable per-packet packet filter.

    Subclasses override :meth:`process` (and optionally :meth:`on_bind`
    for extra runtime state).  Config lives in dataclass fields so
    :meth:`clone` can stamp out independent per-target copies.
    """

    #: short name used in the RNG stream label of a pipe-armed copy
    kind = "impairment"

    def bind(self, kernel, stream: str) -> "Impairment":
        """Attach to a kernel: create the RNG stream and zero counters."""
        self.kernel = kernel
        self.stream = stream
        self.rng = kernel.rng(stream)
        self.packets_seen = 0
        self.packets_dropped = 0
        self.packets_affected = 0  # corrupted / duplicated / delayed / ...
        self.on_bind()
        return self

    def on_bind(self) -> None:
        """Hook for subclass runtime state (Markov state, etc.)."""

    @property
    def bound(self) -> bool:
        """Whether :meth:`bind` has been called."""
        return getattr(self, "rng", None) is not None

    def clone(self) -> "Impairment":
        """An unbound copy with the same configuration."""
        return dataclasses.replace(self)

    def process(self, packet: Packet) -> List[Emit]:
        """Transform one packet into the list of packets to forward."""
        raise NotImplementedError


@dataclass
class BernoulliLoss(Impairment):
    """Independent drop per packet — Dummynet's ``plr`` (paper §4).

    ``rate`` may be 1.0: a full blackhole, the degenerate link-down case.
    The RNG is only consulted when ``rate > 0`` so an idle impairment
    leaves the stream untouched (this preserves the draw sequence of the
    pre-refactor :class:`~repro.network.dummynet.DummynetPipe`).
    """

    kind = "bernoulli"
    rate: float = 0.0

    def __post_init__(self) -> None:
        _check_rate("loss rate", self.rate)

    def process(self, packet: Packet) -> List[Emit]:
        self.packets_seen += 1
        if self.rate > 0.0 and self.rng.random() < self.rate:
            self.packets_dropped += 1
            return []
        return [(packet, 0)]


@dataclass
class GilbertElliott(Impairment):
    """Two-state Markov (Gilbert-Elliott) bursty loss.

    GOOD drops with probability ``loss_good`` (usually 0), BAD with
    ``loss_bad`` (usually near 1).  After each packet the chain moves
    GOOD->BAD with ``p_enter_bad`` and BAD->GOOD with ``p_exit_bad``, so
    the mean burst length is ``1 / p_exit_bad`` packets.  Correlated
    loss is where SACK gap-ack reporting differentiates the stacks.
    """

    kind = "gilbert_elliott"
    p_enter_bad: float = 0.01
    p_exit_bad: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        _check_rate("p_enter_bad", self.p_enter_bad)
        _check_rate("p_exit_bad", self.p_exit_bad)
        _check_rate("loss_good", self.loss_good)
        _check_rate("loss_bad", self.loss_bad)

    def on_bind(self) -> None:
        self.in_bad_state = False

    def process(self, packet: Packet) -> List[Emit]:
        self.packets_seen += 1
        loss = self.loss_bad if self.in_bad_state else self.loss_good
        # fixed two draws per packet keeps the stream layout stable
        dropped = self.rng.random() < loss
        flip = self.rng.random()
        if self.in_bad_state:
            if flip < self.p_exit_bad:
                self.in_bad_state = False
        elif flip < self.p_enter_bad:
            self.in_bad_state = True
        if dropped:
            self.packets_dropped += 1
            return []
        return [(packet, 0)]


@dataclass
class Blackhole(Impairment):
    """Drop everything — a dead link/path while armed.

    Time-windowing comes from the enclosing
    :class:`~repro.faults.scenario.FaultEvent`; a windowed blackhole is
    a brownout-to-black link outage that exercises SCTP heartbeat
    failover and TCP RTO exponential backoff.
    """

    kind = "blackhole"

    def process(self, packet: Packet) -> List[Emit]:
        self.packets_seen += 1
        self.packets_dropped += 1
        return []


@dataclass
class Corrupt(Impairment):
    """Flip bits on the wire with probability ``rate``.

    The packet keeps flowing (links/queues still charge its bytes) but
    arrives with ``corrupted=True``; the receiving transport's integrity
    check (SCTP CRC32c, TCP checksum) must drop and count it.
    """

    kind = "corrupt"
    rate: float = 0.01

    def __post_init__(self) -> None:
        _check_rate("corruption rate", self.rate)

    def process(self, packet: Packet) -> List[Emit]:
        self.packets_seen += 1
        if self.rate > 0.0 and self.rng.random() < self.rate:
            packet.corrupted = True
            self.packets_affected += 1
        return [(packet, 0)]


@dataclass
class Duplicate(Impairment):
    """Emit an extra wire copy with probability ``rate``.

    Drives the receivers' duplicate handling: SCTP reports dup TSNs in
    SACKs, TCP sends immediate duplicate ACKs.
    """

    kind = "duplicate"
    rate: float = 0.01

    def __post_init__(self) -> None:
        _check_rate("duplication rate", self.rate)

    def process(self, packet: Packet) -> List[Emit]:
        self.packets_seen += 1
        if self.rate > 0.0 and self.rng.random() < self.rate:
            self.packets_affected += 1
            return [(packet, 0), (copy_packet(packet), 0)]
        return [(packet, 0)]


@dataclass
class Reorder(Impairment):
    """Hold a packet for ``delay_ns`` with probability ``rate``.

    Later packets overtake the held one, producing genuine on-wire
    reordering (gap-ack blocks on SCTP, dupacks on TCP — and spurious
    fast retransmit if the delay beats the dupack threshold).
    """

    kind = "reorder"
    rate: float = 0.05
    delay_ns: int = 1_000_000  # 1 ms: several packet times at 1 Gbit/s

    def __post_init__(self) -> None:
        _check_rate("reorder rate", self.rate)
        if self.delay_ns <= 0:
            raise ValueError(f"reorder delay must be positive: {self.delay_ns}")

    def process(self, packet: Packet) -> List[Emit]:
        self.packets_seen += 1
        if self.rate > 0.0 and self.rng.random() < self.rate:
            self.packets_affected += 1
            return [(packet, self.delay_ns)]
        return [(packet, 0)]
