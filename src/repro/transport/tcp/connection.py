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
from ...simkernel import MILLISECOND
from ...util.blobs import Blob, ChunkList
from ...util.ranges import RangeSet
from ..base import BSD_TCP_TIMERS, RTOEstimator, TimerPersonality
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


@dataclass(frozen=True)
class TCPConfig:
    """Tunables; defaults match the paper's experimental settings (§4)."""

    mss: int = 1448
    sndbuf: int = 220 * 1024  # paper sets both buffers to 220 KiB
    rcvbuf: int = 220 * 1024
    nagle: bool = False  # LAM-TCP disables Nagle by default
    sack_enabled: bool = True  # enabled on all nodes per the paper
    max_sack_blocks: int = 3  # IP option space limits reporting (§4.1.1)
    dupack_threshold: int = 3
    delayed_ack_ns: int = 100 * MILLISECOND
    timers: TimerPersonality = BSD_TCP_TIMERS
    max_syn_retries: int = 5
    time_wait_ns: int = 1_000 * MILLISECOND  # shortened 2MSL for simulation


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
CWND_SAMPLE_EDGES = tuple(1448 * 2**k for k in range(1, 9))


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
        self.cc = NewRenoState(self.config.mss)
        self.rto = RTOEstimator(self.config.timers)
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
        self._send_control(SYN, seq=self.iss)
        self.snd_nxt = self.iss + 1
        self._arm_rtx()

    def open_passive(self, syn: TCPSegment) -> None:
        """Respond to a received SYN (server side, via the endpoint)."""
        self.state = SYN_RCVD
        self._init_receiver(syn)
        self._send_control(SYN | ACK, seq=self.iss, ack=self.reassembly.rcv_nxt)
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

    def app_readable_bytes(self) -> int:
        """Bytes ready for the application to read."""
        return self._ready.nbytes

    @property
    def eof_pending(self) -> bool:
        """True when the peer's FIN has been consumed up to the stream end."""
        return self._eof and self._ready.nbytes == 0

    def app_read(self, nbytes: int) -> ChunkList:
        """Consume up to ``nbytes`` of in-order data (empty at EOF)."""
        take = min(nbytes, self._ready.nbytes)
        data = self._ready.take(take)
        if take:
            self.stats.bytes_received += take
            self._maybe_send_window_update()
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
            self._send_control(RST | ACK, seq=self.snd_nxt, ack=self._rcv_nxt())
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
                self._send_control(
                    SYN | ACK, seq=self.iss, ack=self.reassembly.rcv_nxt
                )
                return
        if self.state == CLOSED:
            return
        if flags & SYN and self.state == ESTABLISHED:
            # duplicate SYN|ACK: our handshake ACK was lost — re-ACK it
            self._send_ack_now()
            return

        if flags & ACK:
            self._process_ack(seg)
            if self._san is not None:
                self._san.on_ack_processed(self)
        if seg.data_len > 0:
            self._process_data(seg)
            if self._san is not None:
                self._san.on_delivery(self)
        if flags & FIN:
            self._process_fin(seg)
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
    def _process_ack(self, seg: TCPSegment) -> None:
        ack = seg.ack
        prev_wnd = self.snd_wnd
        self.snd_wnd = seg.window
        if self._persist_timer.deadline is not None and self.snd_wnd > 0:
            self._cancel_persist()

        if seg.sack_blocks and self.config.sack_enabled:
            una = self.snd_una
            for start, end in seg.sack_blocks:
                # a malformed block (start >= end) or one wholly below
                # snd_una carries no news: ignored, and not counted
                if start < end and end > una:
                    self.stats.sacked_ranges += 1
                    self._sacked.add(max(start, una), end)

        if ack > self.snd_nxt:
            return  # acks data we never sent; ignore
        if ack > self.snd_una:
            self._on_new_ack(seg, ack)
        elif (
            ack == self.snd_una
            and self.snd_nxt > self.snd_una  # flight size > 0
            and seg.data_len == 0
            # the classic BSD test: window updates are not dupacks (the
            # no-shrink right-edge rule keeps real dupack windows equal)
            and seg.window == prev_wnd
            and not seg.flags & (SYN | FIN)
        ):
            self._on_dupack()

    def _on_new_ack(self, seg: TCPSegment, ack: int) -> None:
        acked = ack - self.snd_una
        self.snd_una = ack
        send_buffer = self.send_buffer
        freed = send_buffer.release_below(min(ack, send_buffer._tail_seq))
        self._sacked.discard_below(ack)
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
        if self._dupacks == self.config.dupack_threshold:
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
        end = min(seq + self.config.mss, self.send_buffer.tail_seq, hole_end)
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
        # has_gaps, sans the property call: parked bytes are the gaps' data
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
            else:
                self._arm_delack()
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
        self.kernel.call_after(self.config.time_wait_ns, self._teardown, None)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def _flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    def _usable_window(self) -> int:
        return min(self.cc.cwnd, self.snd_wnd) - self._flight_size()

    def _try_send(self) -> None:
        if self.state not in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1, LAST_ACK, CLOSING):
            return
        send_buffer = self.send_buffer
        rtx = self._rtx_timer
        while True:
            avail = send_buffer._tail_seq - self.snd_nxt  # == bytes_after()
            if avail <= 0:
                break
            # usable window, _usable_window()/_flight_size() inlined
            usable = min(self.cc.cwnd, self.snd_wnd) - (self.snd_nxt - self.snd_una)
            if usable <= 0:
                if self.snd_wnd == 0 and self.snd_nxt == self.snd_una:
                    self._arm_persist()
                break
            seg_len = min(self.config.mss, avail, usable)
            if (
                self.config.nagle
                and seg_len < self.config.mss
                and self._flight_size() > 0
            ):
                break  # Nagle: hold sub-MSS data until everything is acked
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
        seg = self._make_segment(ACK, seq=seq, data=data)
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
        self._transmit(seg)
        self._ack_sent()

    def _send_fin_segment(self) -> None:
        seg = self._make_segment(FIN | ACK, seq=self._fin_seq)
        self._transmit(seg)
        self._ack_sent()

    def _send_control(self, flags: int, seq: int, ack: int = 0) -> None:
        seg = self._make_segment(flags, seq=seq, ack=ack)
        self._transmit(seg)

    def _send_ack_now(self) -> None:
        if self._delack_timer.deadline is not None:
            self._delack_timer.cancel()
        self._segs_since_ack = 0
        seg = self._make_segment(ACK, seq=self.snd_nxt)
        self._transmit(seg)
        self._last_advertised_wnd = seg.window

    def _ack_sent(self) -> None:
        # data segments carry the current ack: cancel any delayed ACK
        if self._delack_timer.deadline is not None:
            self._delack_timer.cancel()
        self._segs_since_ack = 0

    def _rcv_nxt(self) -> int:
        return self.reassembly.rcv_nxt if self.reassembly is not None else 0

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

    def _maybe_send_window_update(self) -> None:
        """After the app reads, re-open the window if it grew meaningfully."""
        wnd = self._recv_window()
        grew = wnd - self._last_advertised_wnd
        if grew >= 2 * self.config.mss or grew >= self.config.rcvbuf // 2:
            self._send_ack_now()

    def _make_segment(
        self,
        flags: int,
        seq: int,
        ack: Optional[int] = None,
        data: Optional[ChunkList] = None,
    ) -> TCPSegment:
        """A segment from this end; ``ack`` defaults to the current
        ``_rcv_nxt()``."""
        sack = ()
        reassembly = self.reassembly
        if ack is None:
            ack = reassembly.rcv_nxt if reassembly is not None else 0
        # SACK blocks exist only while data is parked (``recent`` non-empty)
        if reassembly is not None and reassembly.recent and self.config.sack_enabled:
            sack = reassembly.sack_blocks(self.config.max_sack_blocks)
        return TCPSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=self._recv_window(),
            data=data,
            sack_blocks=sack,
        )

    def _transmit(self, seg: TCPSegment) -> None:
        self.stats.segments_sent += 1
        if self._san is not None:
            self._san.on_segment_sized(seg)
        self.host.send(
            Packet(self.local_addr, self.remote_addr, "tcp", seg, seg.wire_len)
        )

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
            if self._syn_retries > self.config.max_syn_retries:
                self._teardown("connection timed out")
                return
            self.rto.back_off()
            self.stats.rto_events += 1
            self._send_control(SYN, seq=self.iss)
            self._arm_rtx()
            return
        if self.state == SYN_RCVD:
            self.rto.back_off()
            self.stats.rto_events += 1
            self._send_control(SYN | ACK, seq=self.iss, ack=self._rcv_nxt())
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
            end = min(self.snd_una + self.config.mss, self.send_buffer.tail_seq)
            if end > self.snd_una:
                self._emit_data(self.snd_una, end - self.snd_una, retransmit=True)
            elif self._fin_seq is not None:
                self._send_fin_segment()
        self._arm_rtx()

    def _arm_delack(self) -> None:
        timer = self._delack_timer
        if timer.deadline is None:
            timer.restart(self.config.delayed_ack_ns)

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
