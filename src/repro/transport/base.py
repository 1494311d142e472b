"""Machinery shared by both transports: RTO policy and each stack's tunables.

The two protocols use the same Jacobson/Karels estimator (RFC 6298 /
RFC 4960 §6.3 use identical formulas) but different *timer personalities*:
2005-era BSD TCP ran its retransmission clock off a coarse 500 ms slow
timer with a high minimum, while KAME SCTP used fine-grained timers with
RTO.Min = 1 s.  The personality is exactly what makes timeout recovery so
much more expensive for TCP in the paper's loss experiments, so it is
modelled explicitly here rather than buried in each stack.

:class:`TCPConfig` and :class:`SCTPConfig` live here too (and are
re-exported by their stacks): they are frozen settings that need only the
simulator's time units, so a :class:`~repro.core.world.WorldConfig` can
carry both while a world imports just the stack its RPI runs on.  A
setting is a field only where a caller sets it; the rest are constants
of the one module that reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simkernel import MILLISECOND, SECOND


@dataclass(frozen=True)
class TimerPersonality:
    """RTO clamping/quantisation policy."""

    min_rto_ns: int
    max_rto_ns: int
    initial_rto_ns: int
    granularity_ns: int  # RTO rounded up to a multiple of this (0 = exact)

    def clamp(self, rto_ns: int) -> int:
        """Apply granularity quantisation and min/max clamping."""
        if self.granularity_ns:
            ticks = (rto_ns + self.granularity_ns - 1) // self.granularity_ns
            rto_ns = ticks * self.granularity_ns
        return max(self.min_rto_ns, min(self.max_rto_ns, rto_ns))


#: BSD 4.4-lineage TCP: 500 ms slow-timer ticks, min RTO two ticks.
BSD_TCP_TIMERS = TimerPersonality(
    min_rto_ns=1 * SECOND,
    max_rto_ns=64 * SECOND,
    initial_rto_ns=3 * SECOND,
    granularity_ns=500 * MILLISECOND,
)

#: KAME SCTP: RFC 4960 defaults (RTO.Min 1 s, RTO.Max 60 s), fine timers.
KAME_SCTP_TIMERS = TimerPersonality(
    min_rto_ns=1 * SECOND,
    max_rto_ns=60 * SECOND,
    initial_rto_ns=3 * SECOND,
    granularity_ns=10 * MILLISECOND,
)


class RTOEstimator:
    """Jacobson/Karels smoothed RTT -> RTO, with exponential backoff.

    ``rto_ns`` is held, not derived: every timer arm reads it, so the
    three methods that change its inputs recompute it, and always as
    ``personality.clamp(base << backoff_exponent)``.
    """

    def __init__(self, personality: TimerPersonality) -> None:
        self.personality = personality
        self.srtt_ns: int | None = None
        self.rttvar_ns = 0
        self._base_rto_ns = personality.initial_rto_ns
        self.backoff_exponent = 0
        #: current retransmission timeout including backoff
        self.rto_ns = personality.clamp(self._base_rto_ns)

    def observe(self, rtt_ns: int) -> None:
        """Feed one RTT sample (only from unretransmitted data — Karn)."""
        if rtt_ns < 0:
            raise ValueError(f"negative RTT sample: {rtt_ns}")
        if self.srtt_ns is None:
            self.srtt_ns = rtt_ns
            self.rttvar_ns = rtt_ns // 2
        else:
            # alpha = 1/8, beta = 1/4, integer arithmetic
            err = rtt_ns - self.srtt_ns
            self.rttvar_ns += (abs(err) - self.rttvar_ns) // 4
            self.srtt_ns += err // 8
        self._base_rto_ns = self.srtt_ns + max(
            self.personality.granularity_ns or 1, 4 * self.rttvar_ns
        )
        self.backoff_exponent = 0
        self.rto_ns = self.personality.clamp(self._base_rto_ns)

    def back_off(self) -> None:
        """Double the RTO after a timeout (capped by the personality max)."""
        if (self._base_rto_ns << self.backoff_exponent) < self.personality.max_rto_ns:
            self.backoff_exponent += 1
            self.rto_ns = self.personality.clamp(
                self._base_rto_ns << self.backoff_exponent
            )

    def reset_backoff(self) -> None:
        """Clear backoff after successful delivery progress."""
        if self.backoff_exponent:
            self.backoff_exponent = 0
            self.rto_ns = self.personality.clamp(self._base_rto_ns)


@dataclass(frozen=True)
class TCPConfig:
    """The TCP settings a caller sets: the paper's 220 KiB buffers (§4).

    Every other TCP setting is a constant of
    :mod:`repro.transport.tcp.connection`, the one module that reads it.
    """

    sndbuf: int = 220 * 1024  # paper sets both buffers to 220 KiB
    rcvbuf: int = 220 * 1024


@dataclass(frozen=True)
class SCTPConfig:
    """The SCTP settings a caller sets; defaults match the paper's setup
    (220 KiB buffers, 10 streams).  The fixed ones (PMTU, SACK policy,
    KAME timers, retransmission limits) are constants of
    :mod:`repro.transport.sctp.association` and
    :mod:`repro.transport.sctp.endpoint`."""

    sndbuf: int = 220 * 1024
    rcvbuf: int = 220 * 1024
    n_out_streams: int = 10
    n_in_streams: int = 10
    path_max_retrans: int = 5
    heartbeat_interval_ns: int = 30 * SECOND
    autoclose_ns: int = 0  # 0 disables (the paper's autoclose option)
    # RFC 8260: offer user-message interleaving (I-DATA).  Active only
    # when *both* sides offer it; otherwise the association falls back to
    # legacy DATA/SSN transparently.
    interleaving: bool = False
    # sender-side stream scheduler: fcfs | rr | wfq | prio (repro.
    # transport.sctp.sched).  fcfs reproduces pre-scheduler behaviour
    # bit-for-bit.
    scheduler: str = "fcfs"

    @property
    def max_message_size(self) -> int:
        """sctp_sendmsg limit: one message must fit the send buffer
        (paper §3.4/§3.6 — this is why the middleware re-fragments)."""
        return self.sndbuf
