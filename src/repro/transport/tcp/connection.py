"""TCP connection state machine.

One :class:`TCPConnection` is one direction-pair of a TCP conversation:
handshake, sliding-window byte stream, loss recovery (fast retransmit /
NewReno fast recovery with a SACK scoreboard / retransmission timeout with
exponential backoff), flow control with persist probes, delayed ACKs and
connection teardown including TCP's half-closed state (which SCTP lacks —
paper §3.5.2).

The FreeBSD-5.3 personality the paper measured comes from
:data:`repro.transport.base.BSD_TCP_TIMERS` (coarse 500 ms timer ticks,
1 s minimum RTO): in a request/response workload a tail drop can only be
repaired by this timer, which is precisely why LAM-TCP collapses under
loss in the paper's Table 1/Fig. 10 while SCTP's SACK-everything recovery
does not.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional

from ...analyze.sanitize import tcp_sanitizer
from ...network.packet import Packet
from ...simkernel import MILLISECOND, SECOND
from ...util.blobs import Blob, ChunkList
from ...util.ranges import RangeSet
from ..base import BSD_TCP_TIMERS, RTOEstimator, TCPConfig
from .buffers import ReassemblyBuffer, SendBuffer
from .congestion import NewRenoState
from .segment import ACK, FIN, RST, SYN, TCPSegment

# connection states
CLOSED = "CLOSED"
LISTEN = "LISTEN"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSE_WAIT = "CLOSE_WAIT"
CLOSING = "CLOSING"
LAST_ACK = "LAST_ACK"
TIME_WAIT = "TIME_WAIT"

# Fixed settings (§4: every experiment runs them; none is a TCPConfig
# field, because no caller sets one).  SACK is always on and Nagle always
# off, as on the paper's nodes; the timers are BSD_TCP_TIMERS.
MSS = 1448
MAX_SACK_BLOCKS = 3  # IP option space limits reporting (§4.1.1)
DUPACK_THRESHOLD = 3
DELAYED_ACK_NS = 100 * MILLISECOND
MAX_SYN_RETRIES = 5
TIME_WAIT_NS = 1 * SECOND  # shortened 2MSL for simulation


@dataclass
class ConnStats:
    """Counters exposed for tests and benchmark diagnostics.

    Every field is also registered into the kernel's
    :class:`~repro.metrics.MetricsRegistry` (per-connection probes plus
    per-host sums kept by the endpoint), so ``--metrics-json`` snapshots
    carry them without the hot path paying for metric objects.
    """

    bytes_sent: int = 0
    bytes_received: int = 0
    segments_sent: int = 0
    segments_received: int = 0
    retransmitted_segments: int = 0
    rto_events: int = 0
    fast_retransmits: int = 0
    dupacks_received: int = 0
    sacked_ranges: int = 0
    persist_probes: int = 0


CONN_STAT_FIELDS = tuple(f.name for f in fields(ConnStats))

# cwnd sample buckets: MSS doublings from 2 up past the 220 KiB buffers
CWND_SAMPLE_EDGES = tuple(MSS * 2**k for k in range(1, 9))


class TCPConnection:
    """One endpoint of a TCP connection."""

    def __init__(
        self,
        endpoint,
        local_addr: str,
        local_port: int,
        remote_addr: str,
        remote_port: int,
        config: Optional[TCPConfig] = None,
    ) -> None:
        self.endpoint = endpoint
        self.kernel = endpoint.kernel
        self.host = endpoint.host
        self.local_addr = local_addr
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.config = config or TCPConfig()

        self.state = CLOSED
        self.stats = ConnStats()
        metrics = self.kernel.metrics
        conn_scope = metrics.scope(
            f"transport.tcp.{self.host.name}.conn"
            f".{local_port}-{remote_addr}:{remote_port}"
        )
        for name in CONN_STAT_FIELDS:
            conn_scope.probe(name, lambda n=name: getattr(self.stats, n))
        conn_scope.probe("state", lambda: self.state)
        # cwnd samples share one per-host histogram across connections
        self._cwnd_hist = (
            metrics.histogram(
                f"transport.tcp.{self.host.name}.cwnd_bytes", CWND_SAMPLE_EDGES
            )
            if metrics.enabled
            else None
        )
        endpoint.track_conn_stats(self.stats)

        # sender state (initialised at handshake)
        self.iss = endpoint.pick_iss()
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.snd_wnd = self.config.rcvbuf  # peer advertised window
        self.send_buffer = SendBuffer(self.iss + 1, self.config.sndbuf)
        self.cc = NewRenoState(MSS)
        self.rto = RTOEstimator(BSD_TCP_TIMERS)
        self._dupacks = 0
        self._sacked = RangeSet()  # sender scoreboard: SACKed bytes >= snd_una
        self._fin_queued = False
        self._fin_seq: Optional[int] = None

        # receiver state
        self.irs = 0
        self.reassembly: Optional[ReassemblyBuffer] = None
        self._ready = ChunkList()  # in-order data the app hasn't read
        self._eof = False
        self._last_advertised_wnd = self.config.rcvbuf
        self._rcv_adv = 0  # highest advertised right edge (never retreats)
        self._segs_since_ack = 0

        # RTT timing (one sample in flight, Karn's rule)
        self._rtt_seq: Optional[int] = None
        self._rtt_sent_at = 0

        # timers: one restartable handle each, idle until armed
        self._rtx_timer = self.kernel.timer(self._on_rtx_timeout)
        self._delack_timer = self.kernel.timer(self._on_delack)
        self._persist_timer = self.kernel.timer(self._on_persist)
        self._persist_backoff = 0
        self._syn_retries = 0

        # notification hooks (socket layer installs these)
        self.on_established: Callable[[], None] = _noop
        self.on_readable: Callable[[], None] = _noop
        self.on_writable: Callable[[], None] = _noop
        self.on_closed: Callable[[Optional[str]], None] = _noop1

        # protocol-invariant sanitizer; None unless REPRO_SANITIZE is on
        self._san = tcp_sanitizer()

    # ------------------------------------------------------------------
    # application interface
    # ------------------------------------------------------------------
    def open_active(self) -> None:
        """Begin an active open (client side of the handshake)."""
        if self.state != CLOSED:
            raise RuntimeError(f"open_active in state {self.state}")
        self.state = SYN_SENT
        self._send(SYN, self.iss)
        self.snd_nxt = self.iss + 1
        self._arm_rtx()

    def open_passive(self, syn: TCPSegment) -> None:
        """Respond to a received SYN (server side, via the endpoint)."""
        self.state = SYN_RCVD
        self._init_receiver(syn)
        self._send(SYN | ACK, self.iss)
        self.snd_nxt = self.iss + 1
        self._arm_rtx()

    def app_write(self, blob: Blob) -> int:
        """Queue bytes for sending; returns bytes accepted (0 = would block)."""
        if self.state not in (ESTABLISHED, CLOSE_WAIT):
            raise BrokenPipeError(f"write in state {self.state}")
        if self._fin_queued:
            raise BrokenPipeError("write after shutdown")
        accepted = self.send_buffer.write(blob)
        if accepted:
            self._try_send()
        return accepted

    @property
    def eof_pending(self) -> bool:
        """True when the peer's FIN has been consumed up to the stream end."""
        return self._eof and self._ready.nbytes == 0

    def app_read(self, nbytes: int) -> ChunkList:
        """Consume up to ``nbytes`` of in-order data (empty at EOF)."""
        ready = self._ready
        take = nbytes if nbytes < ready.nbytes else ready.nbytes
        data = ready.take(take)
        if take:
            self.stats.bytes_received += take
            # re-open the window if the read grew it meaningfully
            grew = self._recv_window() - self._last_advertised_wnd
            if grew >= 2 * MSS or grew >= self.config.rcvbuf // 2:
                self._send_ack_now()
        return data

    def writable_bytes(self) -> int:
        """Free space in the send buffer."""
        if self.state not in (ESTABLISHED, CLOSE_WAIT) or self._fin_queued:
            return 0
        return self.send_buffer.free

    def app_close(self) -> None:
        """Close the sending direction (queue a FIN after pending data)."""
        if self._fin_queued or self.state in (CLOSED, TIME_WAIT, LAST_ACK):
            return
        self._fin_queued = True
        if self.state == ESTABLISHED:
            self.state = FIN_WAIT_1
        elif self.state == CLOSE_WAIT:
            self.state = LAST_ACK
        elif self.state in (SYN_SENT,):
            self._teardown(None)
            return
        self._try_send()

    def abort(self) -> None:
        """Send RST and drop all state."""
        if self.state not in (CLOSED, TIME_WAIT):
            self._send(RST | ACK, self.snd_nxt)
        self._teardown("connection aborted")

    # ------------------------------------------------------------------
    # segment input
    # ------------------------------------------------------------------
    def on_segment(self, seg: TCPSegment) -> None:
        """Main receive entry, called by the endpoint demux."""
        self.stats.segments_received += 1
        flags = seg.flags  # tested up to five times below: read the slot once
        if flags & RST:
            if self.state != CLOSED:
                self._teardown("connection reset by peer")
            return

        if self.state == SYN_SENT:
            self._on_segment_syn_sent(seg)
            return
        if self.state == SYN_RCVD:
            if flags & ACK and seg.ack == self.snd_nxt:
                self.state = ESTABLISHED
                self.snd_una = seg.ack
                self._rtx_timer.cancel()
                self.on_established()
                # fall through: the ACK may carry data
            elif flags & SYN:
                # duplicate SYN: re-send SYN|ACK
                self._send(SYN | ACK, self.iss)
                return
        if self.state == CLOSED:
            return
        if flags & SYN and self.state == ESTABLISHED:
            # duplicate SYN|ACK: our handshake ACK was lost — re-ACK it
            self._send_ack_now()
            return

        if flags & ACK:
            ack = seg.ack
            prev_wnd = self.snd_wnd
            self.snd_wnd = window = seg.window
            if self._persist_timer.deadline is not None and window > 0:
                self._cancel_persist()
            if seg.sack_blocks:
                una = self.snd_una
                for start, end in seg.sack_blocks:
                    # a malformed block (start >= end) or one wholly below
                    # snd_una carries no news: ignored, and not counted
                    if start < end and end > una:
                        self.stats.sacked_ranges += 1
                        self._sacked.add(max(start, una), end)
            if ack > self.snd_nxt:
                pass  # acks data we never sent: ignored
            elif ack > self.snd_una:
                self._on_new_ack(ack)
            elif (
                ack == self.snd_una
                and self.snd_nxt > self.snd_una  # flight size > 0
                and seg.data_len == 0
                # the classic BSD test: window updates are not dupacks (the
                # no-shrink right-edge rule keeps real dupack windows equal)
                and window == prev_wnd
                and not flags & (SYN | FIN)
            ):
                self._on_dupack()
            if self._san is not None:
                self._san.on_ack_processed(self)
        if seg.data_len > 0:
            self._process_data(seg)
            if self._san is not None:
                self._san.on_delivery(self)
        if flags & FIN:
            self._process_fin(seg)
        # output, when any is waiting: data past snd_nxt or an unsent FIN
        if self.send_buffer._tail_seq > self.snd_nxt or (
            self._fin_queued and self._fin_seq is None
        ):
            self._try_send()

    def _on_segment_syn_sent(self, seg: TCPSegment) -> None:
        if seg.has(SYN) and seg.has(ACK) and seg.ack == self.snd_nxt:
            self.snd_una = seg.ack
            self._init_receiver(seg)
            self.state = ESTABLISHED
            self._rtx_timer.cancel()
            self._syn_retries = 0
            self._send_ack_now()
            self.on_established()
            self.on_writable()
        # (simultaneous open not modelled: LAM's init is strictly ordered)

    def _init_receiver(self, seg: TCPSegment) -> None:
        self.irs = seg.seq
        self.reassembly = ReassemblyBuffer(self.irs + 1)
        self.snd_wnd = seg.window

    # -- ACK processing -------------------------------------------------
    def _on_new_ack(self, ack: int) -> None:
        acked = ack - self.snd_una
        self.snd_una = ack
        freed = self.send_buffer.release_below(ack)
        sacked = self._sacked
        if sacked.starts:  # the scoreboard holds ranges only after a loss
            sacked.discard_below(ack)
        self._dupacks = 0

        # RTT sample (Karn: only if the timed range was never retransmitted)
        if self._rtt_seq is not None and ack >= self._rtt_seq:
            self.rto.observe(self.kernel._now - self._rtt_sent_at)
            self._rtt_seq = None
        if self.rto.backoff_exponent:
            self.rto.reset_backoff()

        if self.cc.in_recovery:
            if ack > self.cc.recover:
                self.cc.exit_recovery()
            else:
                self.cc.on_partial_ack(acked)
                self._retransmit_hole(self.snd_una)
        else:
            self.cc.on_new_ack(acked)
        if self._cwnd_hist is not None:
            self._cwnd_hist.observe(self.cc.cwnd)

        # FIN acknowledgement / state advance
        if self._fin_seq is not None and ack >= self._fin_seq + 1:
            self._on_fin_acked()

        if self.snd_nxt > self.snd_una:  # _flight_size() > 0, inline
            self._rtx_timer.restart(self.rto.rto_ns)  # == _arm_rtx(restart=True)
        else:
            self._rtx_timer.cancel()

        # writable_bytes() > 0, inline: bytes just freed leave room, so the
        # state and a queued FIN are all that can say otherwise
        if freed > 0 and self.state in (ESTABLISHED, CLOSE_WAIT) and not self._fin_queued:
            self.on_writable()

    def _on_dupack(self) -> None:
        self._dupacks += 1
        self.stats.dupacks_received += 1
        if self.cc.in_recovery:
            self.cc.on_dupack_in_recovery()
            return
        if self._dupacks == DUPACK_THRESHOLD:
            self.cc.enter_fast_recovery(self._flight_size(), self.snd_nxt)
            self.stats.fast_retransmits += 1
            self._retransmit_hole(self.snd_una)

    def _retransmit_hole(self, from_seq: int) -> None:
        """Retransmit the first unsacked segment at/above ``from_seq``."""
        holes = self._sacked.missing(from_seq, self.snd_nxt)
        if not holes:
            return
        seq, hole_end = holes[0]
        if self._fin_seq is not None and seq == self._fin_seq:
            self._send_fin_segment()
            return
        end = min(seq + MSS, self.send_buffer.tail_seq, hole_end)
        if end <= seq:
            return
        self._emit_data(seq, end - seq, retransmit=True)
        self._arm_rtx(restart=True)

    # -- data reception ---------------------------------------------------
    def _process_data(self, seg: TCPSegment) -> None:
        reassembly = self.reassembly
        if reassembly is None:
            return
        before_nxt = reassembly.rcv_nxt
        # parked bytes are the gaps' data: none parked, no gaps
        had_gaps = reassembly.out_of_order_bytes > 0
        delivered = reassembly.offer(seg.seq, seg.data)
        if delivered.nbytes:
            self._ready.extend(delivered)
        in_order = reassembly.rcv_nxt > before_nxt

        if not in_order or (had_gaps and reassembly.out_of_order_bytes > 0):
            # out-of-order or still-gapped: immediate (duplicate) ACK w/ SACK
            self._send_ack_now()
        elif had_gaps:
            self._send_ack_now()  # gap just filled: ack immediately
        else:
            self._segs_since_ack += 1
            if self._segs_since_ack >= 2:
                self._send_ack_now()
            elif self._delack_timer.deadline is None:
                self._delack_timer.restart(DELAYED_ACK_NS)
        if delivered.nbytes:
            self.on_readable()

    def _process_fin(self, seg: TCPSegment) -> None:
        if self.reassembly is None:
            return  # receive direction never initialised; nothing to close
        if self._eof:
            # retransmitted FIN (our ACK was lost or crossed it): re-ACK so
            # the peer stops retransmitting, but never re-count the FIN —
            # rcv_nxt already covers it, and advancing again would ack a
            # sequence number the peer never sent.
            self._send_ack_now()
            return
        if seg.end_seq - 1 != self.reassembly.rcv_nxt:
            # FIN not yet in order (data missing before it): ignore; peer
            # will retransmit.
            return
        self.reassembly.rcv_nxt += 1
        self._eof = True
        if self._san is not None:
            self._san.on_fin_accepted(self)
        self._send_ack_now()
        if self.state == ESTABLISHED:
            self.state = CLOSE_WAIT
        elif self.state == FIN_WAIT_1:
            self.state = CLOSING
        elif self.state == FIN_WAIT_2:
            self._enter_time_wait()
        self.on_readable()  # wake readers so they observe EOF

    def _on_fin_acked(self) -> None:
        if self.state == FIN_WAIT_1:
            self.state = FIN_WAIT_2
        elif self.state == CLOSING:
            self._enter_time_wait()
        elif self.state == LAST_ACK:
            self._teardown(None)

    def _enter_time_wait(self) -> None:
        self.state = TIME_WAIT
        self._rtx_timer.cancel()
        self.kernel.call_after(TIME_WAIT_NS, self._teardown, None)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def _flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    def _try_send(self) -> None:
        if self.state not in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1, LAST_ACK, CLOSING):
            return
        send_buffer = self.send_buffer
        rtx = self._rtx_timer
        while True:
            avail = send_buffer._tail_seq - self.snd_nxt  # == bytes_after()
            if avail <= 0:
                break
            # usable window: min(cwnd, peer window) - flight size
            cwnd, wnd = self.cc.cwnd, self.snd_wnd
            usable = (cwnd if cwnd < wnd else wnd) - (self.snd_nxt - self.snd_una)
            if usable <= 0:
                if wnd == 0 and self.snd_nxt == self.snd_una:
                    self._arm_persist()
                break
            # min(mss, avail, usable)
            seg_len = MSS if MSS < avail else avail
            if usable < seg_len:
                seg_len = usable
            self._emit_data(self.snd_nxt, seg_len, retransmit=False)
            self.snd_nxt += seg_len
            if rtx.deadline is None:  # == _arm_rtx(), sans the call
                rtx.restart(self.rto.rto_ns)
        # FIN goes out once all buffered data has been sent
        if (
            self._fin_queued
            and self._fin_seq is None
            and self.send_buffer.bytes_after(self.snd_nxt) == 0
        ):
            self._fin_seq = self.snd_nxt
            self._send_fin_segment()
            self.snd_nxt += 1
            self._arm_rtx()

    def _emit_data(self, seq: int, length: int, retransmit: bool) -> None:
        data = self.send_buffer.read_range(seq, length)
        if retransmit:
            self.stats.retransmitted_segments += 1
            # Karn: a retransmitted range must not produce an RTT sample
            if self._rtt_seq is not None and seq < self._rtt_seq:
                self._rtt_seq = None
        else:
            self.stats.bytes_sent += length
            if self._rtt_seq is None:
                self._rtt_seq = seq + length
                self._rtt_sent_at = self.kernel._now
        self._send(ACK, seq, data)
        # the segment carries the current ack: cancel any delayed ACK
        if self._delack_timer.deadline is not None:
            self._delack_timer.cancel()
        self._segs_since_ack = 0

    def _send_fin_segment(self) -> None:
        self._send(FIN | ACK, self._fin_seq)
        if self._delack_timer.deadline is not None:
            self._delack_timer.cancel()
        self._segs_since_ack = 0

    def _send_ack_now(self) -> None:
        if self._delack_timer.deadline is not None:
            self._delack_timer.cancel()
        self._segs_since_ack = 0
        self._last_advertised_wnd = self._send(ACK, self.snd_nxt).window

    def _recv_window(self) -> int:
        """Advertised window, honouring RFC 793's no-shrink rule.

        The right edge (rcv_nxt + window) may never move left, so
        out-of-order arrivals do not change the window carried by the
        duplicate ACKs they trigger — which is what lets the classic BSD
        "window unchanged" duplicate-ACK test work during loss recovery.
        """
        reassembly = self.reassembly
        if reassembly is None:
            return self.config.rcvbuf
        window = self.config.rcvbuf - self._ready.nbytes - reassembly.out_of_order_bytes
        if window < 0:
            window = 0
        right_edge = reassembly.rcv_nxt + window
        if right_edge < self._rcv_adv:
            window = self._rcv_adv - reassembly.rcv_nxt
        else:
            self._rcv_adv = right_edge
        return window

    def _send(self, flags: int, seq: int, data: Optional[ChunkList] = None) -> TCPSegment:
        """Build a segment from this end, count it and hand it to the host.
        It acknowledges the receive in-order point (0 before the peer's
        SYN arrived) and carries the current window."""
        ack = 0
        sack = ()
        reassembly = self.reassembly
        if reassembly is not None:
            ack = reassembly.rcv_nxt
            # SACK blocks exist only while data is parked (``recent`` non-empty)
            if reassembly.recent:
                sack = reassembly.sack_blocks(MAX_SACK_BLOCKS)
        seg = TCPSegment(
            self.local_port, self.remote_port, seq, ack, flags,
            self._recv_window(), data, sack,
        )
        self.stats.segments_sent += 1
        if self._san is not None:
            self._san.on_segment_sized(seg)
        self.host.send(
            Packet(self.local_addr, self.remote_addr, "tcp", seg, seg.wire_len)
        )
        return seg

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def _arm_rtx(self, restart: bool = False) -> None:
        timer = self._rtx_timer
        if restart or timer.deadline is None:
            timer.restart(self.rto.rto_ns)

    def _on_rtx_timeout(self) -> None:
        if self.state == SYN_SENT:
            self._syn_retries += 1
            if self._syn_retries > MAX_SYN_RETRIES:
                self._teardown("connection timed out")
                return
            self.rto.back_off()
            self.stats.rto_events += 1
            self._send(SYN, self.iss)
            self._arm_rtx()
            return
        if self.state == SYN_RCVD:
            self.rto.back_off()
            self.stats.rto_events += 1
            self._send(SYN | ACK, self.iss)
            self._arm_rtx()
            return
        if self._flight_size() <= 0:
            return
        # data (or FIN) retransmission timeout
        self.stats.rto_events += 1
        self.cc.on_timeout(self._flight_size())
        if self._cwnd_hist is not None:
            self._cwnd_hist.observe(self.cc.cwnd)
        self.rto.back_off()
        self._dupacks = 0
        self._rtt_seq = None  # Karn
        if self._fin_seq is not None and self.snd_una == self._fin_seq:
            self._send_fin_segment()
        else:
            end = min(self.snd_una + MSS, self.send_buffer.tail_seq)
            if end > self.snd_una:
                self._emit_data(self.snd_una, end - self.snd_una, retransmit=True)
            elif self._fin_seq is not None:
                self._send_fin_segment()
        self._arm_rtx()

    def _on_delack(self) -> None:
        if self.state != CLOSED:
            self._send_ack_now()

    def _arm_persist(self) -> None:
        timer = self._persist_timer
        if timer.deadline is None:
            timer.restart(self.rto.rto_ns << min(self._persist_backoff, 4))

    def _cancel_persist(self) -> None:
        self._persist_timer.cancel()
        self._persist_backoff = 0
        self._try_send()

    def _on_persist(self) -> None:
        if self.snd_wnd > 0 or self.state == CLOSED:
            return
        # window probe: one byte past the right window edge
        if self.send_buffer.bytes_after(self.snd_nxt) > 0:
            self.stats.persist_probes += 1
            self._emit_data(self.snd_nxt, 1, retransmit=False)
            self.snd_nxt += 1
            self._arm_rtx()
        self._persist_backoff += 1
        self._arm_persist()

    # ------------------------------------------------------------------
    def _teardown(self, error: Optional[str]) -> None:
        if self.state == CLOSED:
            return
        self.state = CLOSED
        self._rtx_timer.cancel()
        self._delack_timer.cancel()
        self._persist_timer.cancel()
        self.endpoint.forget(self)
        self.on_closed(error)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TCPConnection {self.local_addr}:{self.local_port} -> "
            f"{self.remote_addr}:{self.remote_port} {self.state}>"
        )


def _noop() -> None:
    return None


def _noop1(_arg) -> None:
    return None
