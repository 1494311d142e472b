"""NewReno congestion state (RFC 5681/6582 arithmetic).

Kept as a plain arithmetic holder: the connection drives it with events
(new ack / duplicate ack threshold / partial ack / timeout) and reads
``cwnd`` back.  ACK-counted growth — TCP grows cwnd per *acknowledgement*,
one of the asymmetries versus SCTP's byte-counted growth that the paper
cites (§4.1.1) — falls out of calling :meth:`on_new_ack` once per ACK.
"""

from __future__ import annotations


class NewRenoState:
    """cwnd/ssthresh arithmetic for a NewReno sender."""

    def __init__(self, mss: int) -> None:
        self.mss = mss
        self.cwnd = 3 * mss  # RFC 5681 initial window for this MSS
        self.ssthresh = 1 << 30  # "infinite" until the first loss
        self.in_recovery = False
        self.recover = 0  # highest seq outstanding when loss was detected
        # statistics
        self.fast_retransmits = 0
        self.timeouts = 0

    def on_new_ack(self, acked_bytes: int) -> None:
        """Cumulative ACK advancing snd_una outside fast recovery."""
        if self.cwnd < self.ssthresh:  # slow start: the exponential phase
            # classic: one MSS per ACK (capped by what was acked)
            self.cwnd += acked_bytes if acked_bytes < self.mss else self.mss
        else:
            # congestion avoidance: ~one MSS per RTT
            self.cwnd += max(1, self.mss * self.mss // self.cwnd)

    def enter_fast_recovery(self, flight_size: int, highest_out: int) -> None:
        """Third duplicate ACK: halve, inflate by the three dupacks."""
        self.ssthresh = max(flight_size // 2, 2 * self.mss)
        self.cwnd = self.ssthresh + 3 * self.mss
        self.in_recovery = True
        self.recover = highest_out
        self.fast_retransmits += 1

    def on_dupack_in_recovery(self) -> None:
        """Each further dupack inflates cwnd by one MSS."""
        self.cwnd += self.mss

    def on_partial_ack(self, acked_bytes: int) -> None:
        """NewReno partial ACK: deflate by the amount acked, re-inflate 1 MSS."""
        self.cwnd = max(self.mss, self.cwnd - acked_bytes + self.mss)

    def exit_recovery(self) -> None:
        """Full ACK: deflate to ssthresh."""
        self.cwnd = self.ssthresh
        self.in_recovery = False

    def on_timeout(self, flight_size: int) -> None:
        """RTO: collapse to one segment and restart slow start."""
        self.ssthresh = max(flight_size // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.in_recovery = False
        self.timeouts += 1
