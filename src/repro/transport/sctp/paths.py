"""Per-destination path state: congestion control, RTO, reachability.

SCTP keeps a *separate* congestion window and RTT estimator per peer
transport address (paper §4.1.1, last bullet).  The cwnd arithmetic here
implements the specific behaviours the paper credits for SCTP's superior
loss recovery:

* growth counts **bytes acknowledged**, not ACKs received,
* slow start whenever ``cwnd <= ssthresh`` (boundary included),
* a sender with **one byte** of cwnd space may send a full PMTU,
* fast-retransmit halving happens once per loss event (recovery point).
"""

from __future__ import annotations

from ..base import KAME_SCTP_TIMERS, RTOEstimator

ACTIVE = "ACTIVE"
INACTIVE = "INACTIVE"


class PathState:
    """One peer destination address and its transmission state."""

    def __init__(
        self,
        addr: str,
        mtu_payload: int,
        initial_peer_rwnd: int,
        path_max_retrans: int = 5,
    ) -> None:
        self.addr = addr
        self.mtu_payload = mtu_payload  # PMTU minus headers (data budget)
        # RFC 4960 initial cwnd: min(4*MTU, max(2*MTU, 4380))
        self.cwnd = min(4 * mtu_payload, max(2 * mtu_payload, 4380))
        self.ssthresh = initial_peer_rwnd
        self.partial_bytes_acked = 0
        self.rto = RTOEstimator(KAME_SCTP_TIMERS)
        self.path_max_retrans = path_max_retrans
        self.error_count = 0
        self.state = ACTIVE
        self.outstanding_bytes = 0
        # once-per-loss-event guard for fast retransmit halving
        self.fast_recovery_exit_tsn: int | None = None
        # the SACK being processed: bytes it newly acknowledged here (None:
        # none yet) and whether cwnd was full before it touched the path;
        # Association._on_sack sets both and clears sack_acked again
        self.sack_acked: int | None = None
        self.sack_cwnd_was_full = False
        # statistics
        self.fast_retransmits = 0
        self.timeouts = 0
        self.failures = 0  # ACTIVE -> INACTIVE transitions

    # -- congestion window -------------------------------------------------
    def can_send(self) -> bool:
        """The 1-byte rule: any cwnd space at all admits a full PMTU."""
        return self.state == ACTIVE and self.outstanding_bytes < self.cwnd

    def on_bytes_acked(self, acked: int, cwnd_was_full: bool) -> None:
        """Grow cwnd per RFC 4960 §7.2.1/7.2.2 (byte counting)."""
        if acked <= 0:
            return
        # slow start: RFC 4960 is in it while cwnd <= ssthresh (paper §4.1.1)
        if self.cwnd <= self.ssthresh:
            if cwnd_was_full:
                self.cwnd += min(acked, self.mtu_payload)
        else:
            self.partial_bytes_acked += acked
            if self.partial_bytes_acked >= self.cwnd and cwnd_was_full:
                self.partial_bytes_acked -= self.cwnd
                self.cwnd += self.mtu_payload

    def on_fast_retransmit(self, highest_outstanding_tsn: int) -> None:
        """Halve once per loss event; further strikes in the same window
        of data do not halve again (NewReno-SCTP behaviour, [15])."""
        if (
            self.fast_recovery_exit_tsn is not None
        ):  # still recovering from a previous event
            return
        self.ssthresh = max(self.cwnd // 2, 4 * self.mtu_payload)
        self.cwnd = self.ssthresh
        self.partial_bytes_acked = 0
        self.fast_recovery_exit_tsn = highest_outstanding_tsn
        self.fast_retransmits += 1

    def on_cum_advance(self, cum_tsn: int) -> None:
        """Exit fast recovery once the loss event's data is all acked."""
        if (
            self.fast_recovery_exit_tsn is not None
            and cum_tsn >= self.fast_recovery_exit_tsn
        ):
            self.fast_recovery_exit_tsn = None

    def on_timeout(self) -> None:
        """T3-rtx expiry: collapse to one PMTU (RFC 4960 §7.2.3)."""
        self.ssthresh = max(self.cwnd // 2, 4 * self.mtu_payload)
        self.cwnd = self.mtu_payload
        self.partial_bytes_acked = 0
        self.fast_recovery_exit_tsn = None
        self.timeouts += 1

    # -- reachability --------------------------------------------------------
    def note_error(self) -> None:
        """Count a timeout/heartbeat miss; mark INACTIVE past the limit."""
        self.error_count += 1
        if self.error_count > self.path_max_retrans and self.state == ACTIVE:
            self.state = INACTIVE
            self.failures += 1

    def note_success(self) -> None:
        """Any ack/heartbeat-ack proves reachability again."""
        self.error_count = 0
        if self.state == INACTIVE:
            self.state = ACTIVE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Path {self.addr} {self.state} cwnd={self.cwnd} "
            f"ssthresh={self.ssthresh} out={self.outstanding_bytes} "
            f"err={self.error_count}>"
        )
