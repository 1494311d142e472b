"""The SCTP association state machine.

One :class:`Association` is one end of an SCTP conversation: handshake
(client legs; the server side is constructed from a validated cookie by
the endpoint), TSN-based reliable transfer with SACK/gap-ack recovery,
per-path congestion control and T3 retransmission timers, multihomed
failover with heartbeats, graceful shutdown and abort.

Design choices that matter for the paper's results:

* **Unlimited gap-ack blocks** — the receiver reports every hole; the
  sender's fast retransmit therefore repairs multi-loss windows without
  waiting for timeouts (Table 1's loss results).
* **Retransmissions prefer an alternate active path** when one exists
  (§4.1.1, final bullet), falling back to the same path when single-homed.
* **Stream-independent delivery** — see :mod:`.streams`, which also
  hands out the SSN or MID a message gets at its first fragment.
* **Timeout personality** — KAME fine-grained timers (RTO.Min = 1 s), vs
  the BSD TCP 500 ms tick quantisation in :mod:`repro.transport.tcp`.

The data path has one of each: ``_try_send`` is the only loop that builds
and transmits new-data packets (to the active path); ``_retransmit_marked``
is the only place that picks a retransmission destination (a SACK repeats
it while cwnd has room); and ``_on_sack`` accounts for an acknowledged
chunk in one body, whether the cumulative point or a gap block covered
it.  The receiver's TSNs above the cumulative point are one
:class:`~repro.util.ranges.RangeSet`, whose ranges are the gap blocks.
Each SACK and each packet is one pass: budgets are read from the config
once, a new-data or SACK-only packet is sized by the code that built it,
and the per-path bookkeeping a SACK would repeat (error count, RTO
backoff, fast-recovery exit) is written only when it changes.  A fragment
of a multi-fragment message is a :class:`~repro.util.blobs.BlobView` of
that message, never a copy.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

from ...analyze.sanitize import sctp_sanitizer
from ...network.packet import IP_HEADER, Packet
from ...simkernel import RestartableTimer
from ...util.blobs import Blob, BlobView
from ...util.ranges import RangeSet
from ..base import SCTPConfig
from .chunks import (
    AbortChunk,
    Chunk,
    CookieAckChunk,
    CookieEchoChunk,
    COMMON_HEADER,
    DATA_CHUNK_HEADER,
    DataChunk,
    HeartbeatAckChunk,
    HeartbeatChunk,
    IDATA_CHUNK_HEADER,
    IDataChunk,
    InitAckChunk,
    InitChunk,
    SackChunk,
    SCTPPacket,
    ShutdownAckChunk,
    ShutdownChunk,
    ShutdownCompleteChunk,
    StateCookie,
)
from .paths import ACTIVE, PathState
from .sched import QueuedMessage, make_scheduler
from .streams import InboundStreams, OutboundStreams

# association states
CLOSED = "CLOSED"
COOKIE_WAIT = "COOKIE_WAIT"
COOKIE_ECHOED = "COOKIE_ECHOED"
ESTABLISHED = "ESTABLISHED"
SHUTDOWN_PENDING = "SHUTDOWN_PENDING"
SHUTDOWN_SENT = "SHUTDOWN_SENT"
SHUTDOWN_RECEIVED = "SHUTDOWN_RECEIVED"
SHUTDOWN_ACK_SENT = "SHUTDOWN_ACK_SENT"
# states in which send_message raises BrokenPipeError
SHUTDOWN_STATES = (
    SHUTDOWN_PENDING,
    SHUTDOWN_SENT,
    SHUTDOWN_RECEIVED,
    SHUTDOWN_ACK_SENT,
)


class MessageTooBig(ValueError):
    """Message exceeds the sctp_sendmsg limit (the send buffer size)."""


@dataclass(slots=True)
class TxRecord:
    """Book-keeping for one outstanding DATA chunk (slotted: one per
    in-flight chunk, rebuilt on every transmission)."""

    chunk: DataChunk
    path_addr: str
    sent_at_ns: int
    transmit_count: int = 1
    gap_acked: bool = False
    missing_reports: int = 0
    marked_for_rtx: bool = False


@dataclass
class AssocStats:
    """Counters for tests and benchmark diagnostics."""

    data_chunks_sent: int = 0
    data_chunks_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    retransmitted_chunks: int = 0
    fast_retransmits: int = 0
    rto_events: int = 0
    sacks_sent: int = 0
    sacks_received: int = 0
    duplicate_tsns: int = 0
    packets_sent: int = 0
    messages_delivered: int = 0
    failovers: int = 0
    gap_blocks_sent: int = 0  # holes we reported to the peer
    gap_blocks_received: int = 0  # holes the peer reported to us
    heartbeats_sent: int = 0
    heartbeat_acks_received: int = 0
    path_failures: int = 0  # paths declared INACTIVE (error limit hit)
    idata_chunks_sent: int = 0  # RFC 8260 I-DATA encodings chosen
    idata_chunks_received: int = 0
    scheduler_decisions: int = 0  # fragments dequeued by the scheduler
    messages_interleaved: int = 0  # mid-message preemptions (I-DATA only)


ASSOC_STAT_FIELDS = tuple(f.name for f in fields(AssocStats))

# cwnd histogram edges: powers of two of the chunk budget, like TCP's
# CWND_SAMPLE_EDGES but anchored at the SCTP initial cwnd (2 MTU)
CWND_SAMPLE_EDGES = tuple(1452 * 2**k for k in range(1, 9))


class Association:
    """One end of an SCTP association."""

    def __init__(
        self,
        endpoint,
        local_port: int,
        peer_addr: str,
        peer_port: int,
        config: Optional[SCTPConfig] = None,
        assoc_id: int = 0,
    ) -> None:
        self.endpoint = endpoint
        self.kernel = endpoint.kernel
        self.host = endpoint.host
        self.local_port = local_port
        self.peer_port = peer_port
        self.config = config = config or SCTPConfig()
        # budgets read once (the config is frozen; the data path asks per
        # chunk): chunk bytes per packet, headers included, and the user
        # bytes of one full DATA / I-DATA chunk
        self._packet_budget = config.pmtu - IP_HEADER - COMMON_HEADER
        self._data_budget = self._packet_budget - DATA_CHUNK_HEADER
        self._idata_budget = self._packet_budget - IDATA_CHUNK_HEADER
        self._autoclose_ns = max(0, config.autoclose_ns)  # 0 disables
        self.assoc_id = assoc_id
        self.state = CLOSED
        self.stats = AssocStats()

        rng = endpoint.tag_rng
        self.my_vtag = rng.randrange(1, 1 << 32)  # peer puts this in packets to us
        self.peer_vtag = 0  # learned from INIT/INIT-ACK
        self.my_initial_tsn = rng.randrange(1, 1 << 30)

        # paths: peer primary first; more learned during handshake.  Each
        # path owns a T3-rtx and a heartbeat timer (created with the path)
        self.paths: "OrderedDict[str, PathState]" = OrderedDict()
        self._t3_timers: Dict[str, RestartableTimer] = {}
        self._hb_timers: Dict[str, RestartableTimer] = {}
        self.primary_addr = peer_addr
        self._add_path(peer_addr)

        # sender: user messages queue *unfragmented* in the scheduler;
        # fragments (and their TSN/SSN/MID) are cut at dequeue time
        self.next_tsn = self.my_initial_tsn
        self.outbound = OutboundStreams(self.config.n_out_streams)
        self.scheduler = make_scheduler(
            self.config.scheduler,
            self.config.n_out_streams,
            self.config.stream_weights,
            self.config.stream_priorities,
        )
        self.interleaving_active = False  # negotiated at establishment
        self.queued_bytes = 0
        self.outstanding: "OrderedDict[int, TxRecord]" = OrderedDict()
        self.outstanding_bytes = 0
        self.peer_rwnd = self.config.rcvbuf  # replaced at handshake
        self.cum_tsn_acked = self.my_initial_tsn - 1
        self._rtt_probe: Dict[str, Tuple[int, int]] = {}  # addr -> (tsn, sent_at)
        self._source_cache: Dict[str, str] = {}  # dest addr -> local addr
        self._next_window_probe_ns = 0  # zero-window probes are RTO-paced
        # conservative "any chunk marked for retransmit" flag: lets the
        # per-SACK retransmit flush skip scanning outstanding in the
        # loss-free steady state (stale True just falls back to the scan)
        self._any_marked = False
        self._assoc_error_count = 0
        self._init_retries = 0
        self._t1_timer = self.kernel.timer(self._on_t1)

        # receiver
        self.peer_initial_tsn = 0
        self.rcv_cum_tsn = 0
        self._above_cum = RangeSet()  # TSNs received above rcv_cum_tsn
        self.inbound: Optional[InboundStreams] = None
        self._owner_buffered = 0  # delivered to socket, not yet read by app
        self._packets_since_sack = 0
        self._sack_timer = self.kernel.timer(self._on_sack_timer)
        self._dups_since_sack = 0
        # RFC 4960 §6.4: replies go to the source of the packet that
        # triggered them, so SACKs keep flowing after a path failure
        self._last_data_src: Optional[str] = None

        # other timers
        self._t2_timer = self.kernel.timer(self._on_t2)
        self._hb_pending: Dict[str, int] = {}  # addr -> nonce awaiting ack
        self._autoclose_timer = self.kernel.timer(self._on_autoclose)
        self._nonce = 0
        self._shutdown_requested = False
        self._cookie: Optional[StateCookie] = None

        # owner (socket) hooks
        self.on_established = _noop
        self.on_message = _noop1  # fn(AssembledMessage)
        self.on_writable = _noop
        self.on_shutting_down = _noop  # entered a SHUTDOWN state: sends now raise
        self.on_closed = _noop1  # fn(error | None)

        # protocol-invariant sanitizer; None unless REPRO_SANITIZE is on
        self._san = sctp_sanitizer()

        # metrics: per-assoc probes over the stats dataclass plus stream
        # delivery/HOL observability; cwnd histogram is shared per host
        metrics = self.kernel.metrics
        scope = metrics.scope(
            f"transport.sctp.{self.host.name}.assoc{assoc_id}"
        )
        for name in ASSOC_STAT_FIELDS:
            scope.probe(name, lambda n=name: getattr(self.stats, n))
        scope.probe("state", lambda: self.state)
        scope.probe("peer_rwnd", lambda: self.peer_rwnd)
        scope.probe(
            "active_paths",
            lambda: sum(1 for p in self.paths.values() if p.state == ACTIVE),
        )
        scope.probe(
            "hol_stall_ns",
            lambda: self.inbound.hol_stall_ns if self.inbound else 0,
        )
        scope.probe("interleaving_active", lambda: self.interleaving_active)
        scope.probe("scheduler", lambda: self.scheduler.name)
        scope.probe(
            "parked_messages_max",
            lambda: self.inbound.parked_messages_max if self.inbound else 0,
        )
        scope.probe(
            "inbound_buffered_bytes",
            lambda: self.inbound.buffered_bytes if self.inbound else 0,
        )
        for sid in range(self.config.n_in_streams):
            scope.probe(
                f"stream{sid}.delivered",
                lambda s=sid: (
                    self.inbound.delivered_per_stream[s]
                    if self.inbound and s < self.inbound.n_streams
                    else 0
                ),
            )
            scope.probe(
                f"stream{sid}.hol_stall_ns",
                lambda s=sid: (
                    self.inbound.hol_stall_ns_per_stream[s]
                    if self.inbound and s < self.inbound.n_streams
                    else 0
                ),
            )
        self._cwnd_hist = (
            metrics.histogram(
                f"transport.sctp.{self.host.name}.cwnd_bytes", CWND_SAMPLE_EDGES
            )
            if metrics.enabled
            else None
        )
        endpoint.track_assoc_stats(self.stats)

    # ------------------------------------------------------------------
    # establishment
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Client-side active open: send INIT, await the 4-way handshake."""
        if self.state != CLOSED:
            raise RuntimeError(f"connect() in state {self.state}")
        self.state = COOKIE_WAIT
        self._send_init()

    def _send_init(self) -> None:
        init = InitChunk(
            init_tag=self.my_vtag,
            a_rwnd=self.config.rcvbuf,
            n_out_streams=self.config.n_out_streams,
            n_in_streams=self.config.n_in_streams,
            initial_tsn=self.my_initial_tsn,
            addresses=tuple(self.host.addresses()),
            idata=self.config.interleaving,
        )
        # INIT goes with vtag 0: the peer has no tag for us yet
        self._transmit_chunks([init], self.primary_addr, vtag=0)
        self._arm_t1()

    def _establish_from_init_ack(self, chunk: InitAckChunk, src_addr: str) -> None:
        self.peer_vtag = chunk.init_tag
        self.peer_rwnd = chunk.a_rwnd
        self.peer_initial_tsn = chunk.initial_tsn
        self.rcv_cum_tsn = chunk.initial_tsn - 1
        n_out = min(self.config.n_out_streams, chunk.n_in_streams)
        n_in = min(self.config.n_in_streams, chunk.n_out_streams)
        self.outbound = OutboundStreams(max(1, n_out))
        self.inbound = self._make_inbound(n_in)
        # RFC 8260 negotiation: interleave only when both sides offered
        # I-DATA; otherwise fall back to legacy DATA/SSN.  The scheduler
        # itself is kept (it may already hold queued messages) — only its
        # granularity switches.
        self.interleaving_active = bool(self.config.interleaving and chunk.idata)
        self.scheduler.set_interleaving(self.interleaving_active)
        for addr in chunk.addresses:
            self._add_path(addr)
        self.endpoint.register_association(self, chunk.addresses)
        self.state = COOKIE_ECHOED
        self._t1_timer.cancel()
        self._cookie = chunk.cookie
        self._send_cookie_echo()

    def _send_cookie_echo(self) -> None:
        chunks: List[Chunk] = [CookieEchoChunk(self._cookie)]
        # user data may ride legs 3 and 4 of the handshake (§3.5.2)
        budget = self._packet_budget - chunks[0].wire_size()
        chunks.extend(self._dequeue_for_bundle(budget, self.primary_addr)[0])
        self._transmit_chunks(chunks, self.primary_addr)
        self._arm_t1()

    @classmethod
    def from_cookie(
        cls,
        endpoint,
        cookie: StateCookie,
        config: Optional[SCTPConfig] = None,
        assoc_id: int = 0,
    ) -> "Association":
        """Server-side TCB creation from a validated COOKIE-ECHO."""
        assoc = cls(
            endpoint,
            local_port=cookie.local_port,
            peer_addr=cookie.peer_addr,
            peer_port=cookie.peer_port,
            config=config,
            assoc_id=assoc_id,
        )
        assoc.my_vtag = cookie.my_init_tag
        assoc.peer_vtag = cookie.peer_init_tag
        assoc.my_initial_tsn = cookie.my_initial_tsn
        assoc.next_tsn = cookie.my_initial_tsn
        assoc.cum_tsn_acked = cookie.my_initial_tsn - 1
        assoc.peer_initial_tsn = cookie.peer_initial_tsn
        assoc.rcv_cum_tsn = cookie.peer_initial_tsn - 1
        assoc.peer_rwnd = cookie.peer_a_rwnd
        assoc.outbound = OutboundStreams(max(1, cookie.n_out_streams))
        assoc.inbound = assoc._make_inbound(cookie.n_in_streams)
        # the signed cookie carries the negotiated I-DATA result (the
        # endpoint computed it from both sides' offers at INIT time)
        assoc.interleaving_active = bool(cookie.idata)
        assoc.scheduler.set_interleaving(assoc.interleaving_active)
        for addr in cookie.peer_addresses:
            assoc._add_path(addr)
        assoc.state = ESTABLISHED
        assoc._start_heartbeats()
        return assoc

    def _make_inbound(self, n_streams: int) -> InboundStreams:
        """Inbound stream machinery wired to the virtual clock so it can
        measure head-of-line stall time."""
        return InboundStreams(max(1, n_streams), clock=lambda: self.kernel.now)

    def _add_path(self, addr: str) -> None:
        if addr in self.paths:
            return
        self.paths[addr] = PathState(
            addr,
            mtu_payload=self._data_budget,
            initial_peer_rwnd=self.config.rcvbuf,
            timers=self.config.timers,
            path_max_retrans=self.config.path_max_retrans,
        )
        self._t3_timers[addr] = self.kernel.timer(self._on_t3, addr)
        self._hb_timers[addr] = self.kernel.timer(self._on_heartbeat_timer, addr)

    # ------------------------------------------------------------------
    # application sending
    # ------------------------------------------------------------------
    def send_message(
        self, sid: int, payload: Blob, unordered: bool = False, ppid: int = 0
    ) -> bool:
        """Queue one user message; False when the send buffer is full.

        Raises :class:`MessageTooBig` for messages above the sctp_sendmsg
        limit (the send buffer size) — middleware must split those itself
        — and ``ValueError`` for a stream the association does not have.
        """
        if self.state in SHUTDOWN_STATES:
            raise BrokenPipeError(f"send in state {self.state}")
        # unordered messages too: the U bit lifts ordering, not the
        # stream, and the peer rejects a stream id it did not negotiate
        if not 0 <= sid < self.outbound.n_streams:
            raise ValueError(
                f"stream {sid} out of range (have {self.outbound.n_streams})"
            )
        if payload.nbytes > self.config.max_message_size:
            raise MessageTooBig(
                f"message of {payload.nbytes} bytes exceeds the sctp_sendmsg "
                f"limit of {self.config.max_message_size} (the send buffer)"
            )
        if self.queued_bytes + self.outstanding_bytes + payload.nbytes > self.config.sndbuf:
            return False
        # messages queue unfragmented; the scheduler decides which one
        # supplies the next fragment, and _dequeue_for_bundle cuts it
        # (assigning the TSN, and the SSN/MID on the first fragment)
        self.scheduler.push(QueuedMessage(sid, payload, unordered, ppid))
        self.queued_bytes += payload.nbytes
        if self._autoclose_ns:
            self._autoclose_timer.restart(self._autoclose_ns)
        if self.state == ESTABLISHED:
            self._try_send()
        return True

    def sndbuf_free(self) -> int:
        """Free send-buffer space in bytes."""
        return max(0, self.config.sndbuf - self.queued_bytes - self.outstanding_bytes)

    def credit_receive_buffer(self, nbytes: int) -> None:
        """The socket read ``nbytes`` of delivered data; re-open the rwnd."""
        before = self._a_rwnd()
        self._owner_buffered -= nbytes
        if self._owner_buffered < 0:
            raise RuntimeError("receive-buffer credit underflow")
        # window-update SACK: if the window was essentially closed and has
        # now meaningfully re-opened, tell the peer (it may be stalled)
        budget = self._data_budget
        if (
            self.state == ESTABLISHED
            and before < budget
            and self._a_rwnd() >= 2 * budget
        ):
            self._send_sack()

    # ------------------------------------------------------------------
    # transmission machinery
    # ------------------------------------------------------------------
    def _active_path(self) -> Optional[PathState]:
        primary = self.paths.get(self.primary_addr)
        if primary is not None and primary.state == ACTIVE:
            return primary
        for path in self.paths.values():
            if path.state == ACTIVE:
                return path
        return primary  # nothing active: keep trying the primary

    def _alternate_path(self, avoid_addr: str) -> Optional[PathState]:
        for addr, path in self.paths.items():
            if addr != avoid_addr and path.state == ACTIVE:
                return path
        return None

    def _dequeue_for_bundle(
        self, budget: int, path_addr: str
    ) -> Tuple[List[DataChunk], int]:
        """Cut DATA/I-DATA fragments from scheduler-chosen messages that
        fit ``budget`` bytes, registering them as outstanding on
        ``path_addr``; returns them with the part of ``budget`` left.

        Fragmentation is lazy: the scheduler holds whole messages and
        this loop slices one fragment at a time, assigning the TSN here
        and the SSN/MID at a message's first fragment.  Because every
        scheduler serves one stream's messages FIFO, the sequence numbers
        equal eager assignment's — and under fcfs the entire schedule is
        bit-for-bit the old FIFO-of-chunks behaviour.
        """
        chunks: List[DataChunk] = []
        path = self.paths[path_addr]
        now = self.kernel._now
        sched = self.scheduler
        outstanding = self.outstanding
        stats = self.stats
        # the encoding is fixed per message at its first fragment; every
        # dequeue happens after INIT-ACK processing, so the negotiated
        # result is always known here
        idata = self.interleaving_active
        if idata:
            frag_budget = self._idata_budget
            header = IDATA_CHUNK_HEADER
        else:
            frag_budget = self._data_budget
            header = DATA_CHUNK_HEADER
        while True:
            head = sched.current  # mid-message: the head is already chosen
            if head is None:
                head = sched.peek()
                if head is None:
                    break
            remaining = head.nbytes - head.offset
            take = frag_budget if frag_budget < remaining else remaining
            wire = (header + take + 3) & ~3  # padded to 4 bytes
            if wire > budget:
                break
            if self.peer_rwnd < take:
                if self.outstanding_bytes > 0 or chunks:
                    break  # window closed: at most one probe chunk in flight
                if now < self._next_window_probe_ns:
                    # zero-window probes are paced by the RTO: retry later
                    self.kernel.call_at(
                        self._next_window_probe_ns, self._try_send
                    )
                    break
                self._next_window_probe_ns = now + path.rto.rto_ns
            begin = head.offset == 0
            end = take == remaining
            if begin:
                head.idata = idata
                head.seq = self.outbound.next_seq(head.sid, head.unordered, idata)
            if begin and end:
                # single-fragment fast path: the message is the payload
                fragment = head.payload
            else:
                fragment = BlobView(head.payload, head.offset, take)
            if head.idata:
                chunk = IDataChunk(
                    self.next_tsn, head.sid, 0, fragment, begin, end,
                    head.unordered, head.ppid, wire, mid=head.seq, fsn=head.fsn,
                )
                stats.idata_chunks_sent += 1
            else:
                chunk = DataChunk(
                    self.next_tsn, head.sid, head.seq, fragment, begin, end,
                    head.unordered, head.ppid, wire,
                )
            self.next_tsn += 1
            sched.consume(take)
            chunks.append(chunk)
            budget -= wire
            self.queued_bytes -= take
            outstanding[chunk.tsn] = TxRecord(chunk, path_addr, now)
            self.outstanding_bytes += take
            path.outstanding_bytes += take
            rwnd = self.peer_rwnd - take
            self.peer_rwnd = rwnd if rwnd > 0 else 0
            stats.data_chunks_sent += 1
            stats.bytes_sent += take
            if path.outstanding_bytes >= path.cwnd:
                break
        if chunks:
            if path_addr not in self._rtt_probe:
                self._rtt_probe[path_addr] = (chunks[-1].tsn, now)
            # scheduler observability: counters live on the scheduler,
            # the stats dataclass mirrors them for probes/summing
            stats.scheduler_decisions = sched.decisions
            stats.messages_interleaved = sched.interleave_switches
        return chunks, budget

    def _try_send(self) -> None:
        if self.state not in (ESTABLISHED, SHUTDOWN_PENDING, SHUTDOWN_RECEIVED):
            return
        # new data goes to the active path, one packet at a time while
        # its congestion window has room (PathState.can_send's 1-byte
        # rule), until a packet carries nothing.  A packet that carries
        # data starts T3 when it is idle
        path = self._active_path()
        sched = self.scheduler
        t3 = self._t3_timers[path.addr]
        while (
            sched.n_pending
            and path.state == ACTIVE
            and path.outstanding_bytes < path.cwnd
        ):
            if self.peer_rwnd <= 0 and self.outstanding_bytes > 0:
                break  # peer window closed
            chunks: List[Chunk] = []
            budget = self._packet_budget
            if self._packets_since_sack > 0:  # a SACK is pending
                sack = self._build_sack()
                chunks.append(sack)
                budget -= sack.wire_size()
            data, budget = self._dequeue_for_bundle(budget, path.addr)
            if not chunks and not data:
                break
            # a pending SACK may have left no room for a full-size chunk:
            # it then goes alone and the next packet has the whole budget
            chunks.extend(data)
            # the packet is the PMTU less the budget its chunks left
            self._transmit_chunks(chunks, path.addr, size=self.config.pmtu - budget)
            if data and t3.deadline is None:
                t3.restart(path.rto.rto_ns)
        if self._shutdown_requested:
            self._maybe_send_shutdown()

    def _transmit_chunks(
        self, chunks: List[Chunk], dest_addr: str, vtag=None, size=None
    ) -> None:
        """Send one packet; ``size`` is its wire size when the caller has
        summed the chunks already (the sanitizer re-sums it)."""
        pkt = SCTPPacket(
            src_port=self.local_port,
            dst_port=self.peer_port,
            vtag=self.peer_vtag if vtag is None else vtag,
            chunks=tuple(chunks),
        )
        if size is None:
            size = pkt.wire_size()
        elif self._san is not None:
            self._san.on_packet_sized(pkt, size)
        src = self._source_cache.get(dest_addr) or self._source_for(dest_addr)
        self.stats.packets_sent += 1
        self.host.send(Packet(src, dest_addr, "sctp", pkt, size))

    def _source_for(self, dest_addr: str) -> str:
        """Pick (and cache) the local address on the destination's subnet.

        Host interfaces are fixed before any association exists, so each
        destination is looked up once; every packet reads the cache.
        """
        dest_net = dest_addr.rsplit(".", 1)[0]
        for src in self.host.addresses():
            if src.rsplit(".", 1)[0] == dest_net:
                break
        else:
            src = self.host.primary_address
        self._source_cache[dest_addr] = src
        return src

    # ------------------------------------------------------------------
    # packet input (called by the endpoint after vtag validation)
    # ------------------------------------------------------------------
    def on_packet(self, pkt: SCTPPacket, src_addr: str) -> None:
        """Process every chunk of one inbound packet."""
        if self._autoclose_ns:
            self._autoclose_timer.restart(self._autoclose_ns)
        has_data = False
        for chunk in pkt.chunks:
            if isinstance(chunk, DataChunk):
                self._on_data(chunk)
                self._last_data_src = src_addr
                has_data = True
            elif isinstance(chunk, SackChunk):
                self._on_sack(chunk, src_addr)
            elif isinstance(chunk, InitAckChunk):
                if self.state == COOKIE_WAIT:
                    self._establish_from_init_ack(chunk, src_addr)
            elif isinstance(chunk, CookieEchoChunk):
                if self.state == ESTABLISHED:
                    # retransmitted COOKIE-ECHO: our COOKIE-ACK was lost
                    self._transmit_chunks([CookieAckChunk()], src_addr)
            elif isinstance(chunk, CookieAckChunk):
                if self.state == COOKIE_ECHOED:
                    self.state = ESTABLISHED
                    self._t1_timer.cancel()
                    self._start_heartbeats()
                    self.on_established()
                    self._try_send()
            elif isinstance(chunk, HeartbeatChunk):
                self._transmit_chunks(
                    [HeartbeatAckChunk(chunk.dest_addr, chunk.sent_at_ns, chunk.nonce)],
                    src_addr,
                )
            elif isinstance(chunk, HeartbeatAckChunk):
                self._on_heartbeat_ack(chunk)
            elif isinstance(chunk, ShutdownChunk):
                self._on_shutdown(chunk, src_addr)
            elif isinstance(chunk, ShutdownAckChunk):
                self._on_shutdown_ack(src_addr)
            elif isinstance(chunk, ShutdownCompleteChunk):
                self._teardown(None)
            elif isinstance(chunk, AbortChunk):
                self._teardown(f"aborted by peer: {chunk.reason}")
                return
        if has_data:
            self._sack_policy()

    # -- receiver side ----------------------------------------------------
    def _on_data(self, chunk: DataChunk) -> None:
        if self.inbound is None:
            return
        tsn = chunk.tsn
        cum = self.rcv_cum_tsn
        above = self._above_cum
        if tsn == cum + 1 and not above.starts:
            self.rcv_cum_tsn = tsn  # in order with no gap: nothing to record
        elif tsn <= cum or tsn in above:
            self.stats.duplicate_tsns += 1
            self._dups_since_sack += 1
            return
        else:
            start, end = above.add(tsn, tsn + 1)
            if start == cum + 1:  # the hole above the cumulative point closed
                self.rcv_cum_tsn = end - 1
                above.discard_below(end)
        self.stats.data_chunks_received += 1
        self.stats.bytes_received += chunk.payload.nbytes
        if chunk.is_idata:
            self.stats.idata_chunks_received += 1
        if self._san is not None:
            self._san.on_data_received(self)
        for message in self.inbound.on_data(chunk):
            self._owner_buffered += message.nbytes
            self.stats.messages_delivered += 1
            self.on_message(message)

    def _sack_policy(self) -> None:
        self._packets_since_sack += 1
        if self._above_cum.starts or self._dups_since_sack:
            self._send_sack()  # report gaps/dups immediately (RFC 4960 §6.7)
        elif self._packets_since_sack >= self.config.sack_every_packets:
            self._send_sack()
        elif self._sack_timer.deadline is None:
            self._sack_timer.restart(self.config.sack_delay_ns)

    def _on_sack_timer(self) -> None:
        if self.state != CLOSED and self._packets_since_sack > 0:
            self._send_sack()

    def _a_rwnd(self) -> int:
        buffered = (self.inbound.buffered_bytes if self.inbound else 0)
        return max(0, self.config.rcvbuf - buffered - self._owner_buffered)

    def _build_sack(self) -> SackChunk:
        cum = self.rcv_cum_tsn
        above = self._above_cum
        # gap blocks as inclusive offsets from cum (RFC 4960 §3.3.4)
        gaps = tuple((s - cum, e - 1 - cum) for s, e in above) if above.starts else ()
        sack = SackChunk(
            cum_tsn=cum,
            a_rwnd=self._a_rwnd(),
            gaps=gaps,
            n_dup_tsns=self._dups_since_sack,
        )
        self.stats.gap_blocks_sent += len(gaps)
        self._packets_since_sack = 0
        self._dups_since_sack = 0
        self._sack_timer.cancel()
        self.stats.sacks_sent += 1
        return sack

    def _send_sack(self) -> None:
        dest = self._last_data_src
        if dest is None:
            path = self._active_path()
            dest = path.addr if path is not None else self.primary_addr
        sack = self._build_sack()
        self._transmit_chunks(
            [sack], dest, size=IP_HEADER + COMMON_HEADER + sack.wire_size()
        )

    # -- sender side: SACK processing -----------------------------------------
    def _on_sack(self, sack: SackChunk, src_addr: str) -> None:
        self.stats.sacks_received += 1
        self.stats.gap_blocks_received += len(sack.gaps)
        cum_advanced = sack.cum_tsn > self.cum_tsn_acked

        # what this SACK acknowledges: records at or below the cumulative
        # point leave `outstanding` (it is TSN-ordered, so they are at its
        # head); gap-acked ones stay until the cumulative point passes
        # them.  Gap blocks are merged first, so blocks that overlap or
        # repeat ack a TSN once, and walked only over TSNs ever sent.
        outstanding = self.outstanding
        cum_tsn = sack.cum_tsn
        acked: List[TxRecord] = []
        while outstanding:
            tsn = next(iter(outstanding))
            if tsn > cum_tsn:
                break
            acked.append(outstanding.pop(tsn))
        if sack.gaps:  # overwhelmingly a SACK carries none
            gap_acked = RangeSet()
            for start, end in sack.gaps:
                gap_acked.add(cum_tsn + max(start, 1), min(cum_tsn + end + 1, self.next_tsn))
            for lo, hi in gap_acked:
                for tsn in range(lo, hi):
                    record = outstanding.get(tsn)
                    if record is not None and not record.gap_acked:
                        acked.append(record)
        self.cum_tsn_acked = max(self.cum_tsn_acked, cum_tsn)

        # one accounting body for both kinds — per-TSN hot loop, no
        # helper calls (several chunks are acknowledged per SACK).  What
        # this SACK newly acknowledges on a path is summed on the path
        # itself (PathState.sack_acked) and taken back by the growth loop
        highest_newly_acked = None  # HTNA, RFC 4960 §7.2.4
        total_acked = 0
        paths = self.paths
        rtt_probe = self._rtt_probe
        for record in acked:
            tsn = record.chunk.tsn
            addr = record.path_addr
            if not record.gap_acked:  # else counted when it was gap-acked
                size = record.chunk.payload.nbytes
                self.outstanding_bytes -= size
                total_acked += size
                path = paths[addr]
                on_path = path.sack_acked
                if on_path is None:
                    # read before this SACK touches the path.  "cwnd fully
                    # utilized" = no room for another full chunk; an exact
                    # >= test never fires as bursts stop one sub-MTU short
                    path.sack_cwnd_was_full = (
                        path.outstanding_bytes + path.mtu_payload > path.cwnd
                    )
                    on_path = 0
                path.sack_acked = on_path + size
                left = path.outstanding_bytes - size
                path.outstanding_bytes = left if left > 0 else 0
                probe = rtt_probe.get(addr)
                if probe is not None and tsn == probe[0]:
                    del rtt_probe[addr]
                    if record.transmit_count == 1:  # Karn's rule
                        path.rto.observe(self.kernel._now - probe[1])
                if tsn > cum_tsn:
                    record.gap_acked = True
                    # a gap-acked chunk is no longer outstanding anywhere:
                    # never retransmit it, even if a timeout marked it already
                    record.marked_for_rtx = False
            if highest_newly_acked is None or tsn > highest_newly_acked:
                highest_newly_acked = tsn

        if cum_advanced:
            self._assoc_error_count = 0
        if total_acked > 0:
            # reachability and backoff are written only when there is
            # something to clear: loss-free, neither is ever set
            for path in paths.values():
                if path.sack_acked is None:
                    continue
                if path.error_count or path.state != ACTIVE:
                    path.note_success()
                if path.rto.backoff_exponent:
                    path.rto.reset_backoff()

        # flow control: a_rwnd minus what is still in flight
        self.peer_rwnd = max(0, sack.a_rwnd - self.outstanding_bytes)

        # missing reports -> fast retransmit.  RFC 4960 §7.2.4 (HTNA): a
        # chunk is struck only when this SACK *newly* acknowledged a TSN
        # above it, and never after it has already been retransmitted
        # (retransmission loss is the timer's job) — without these rules a
        # single hole is struck by every later SACK and retransmitted over
        # and over, each event halving cwnd.
        to_fast_rtx: List[TxRecord] = []
        if highest_newly_acked is not None:
            for tsn, record in self.outstanding.items():
                if tsn >= highest_newly_acked:
                    break  # outstanding is TSN-ordered
                if (
                    record.gap_acked
                    or record.marked_for_rtx
                    or record.transmit_count > 1
                ):
                    continue
                record.missing_reports += 1
                if record.missing_reports >= self.config.dupthresh:
                    record.marked_for_rtx = True
                    self._any_marked = True
                    to_fast_rtx.append(record)
        if to_fast_rtx:
            # dict.fromkeys, not a set: strike order must follow strike
            # (TSN) order, not PYTHONHASHSEED string-hash order
            struck_paths = dict.fromkeys(r.path_addr for r in to_fast_rtx)
            highest_out = max(self.outstanding) if self.outstanding else self.cum_tsn_acked
            for addr in struck_paths:
                self.paths[addr].on_fast_retransmit(highest_out)
            self.stats.fast_retransmits += 1
            self._retransmit_marked()

        # per-path congestion window growth, cum-advance bookkeeping and
        # T3 timer management in one pass (the three are independent
        # across paths; T3 restarts keep the paths' order)
        cwnd_hist = self._cwnd_hist
        t3_timers = self._t3_timers
        for addr, path in paths.items():
            acked_here = path.sack_acked
            if acked_here is not None:
                path.sack_acked = None
                path.on_bytes_acked(acked_here, path.sack_cwnd_was_full)
                if cwnd_hist is not None:
                    cwnd_hist.observe(path.cwnd)
            if path.fast_recovery_exit_tsn is not None:
                path.on_cum_advance(self.cum_tsn_acked)
            if path.outstanding_bytes <= 0:
                t3_timers[addr].cancel()
            elif cum_advanced:
                t3_timers[addr].restart(path.rto.rto_ns)

        if self._shutdown_requested:
            self._maybe_send_shutdown()
        # RFC 4960 §6.3.3 rule E4: chunks still marked from a timeout go
        # out as soon as cwnd allows — without this a failed-over message
        # trickles one packet per backed-off T3 expiry.  One bundled packet
        # per call; a call that sends nothing (no room, or an oversized
        # chunk) leaves the rest to T3.  Loss-free, nothing is marked.
        if self._any_marked:
            while self._retransmit_marked(within_cwnd=True):
                pass
        self._try_send()
        if self._san is not None:
            self._san.on_sack_processed(self)
        if (
            total_acked > 0
            and self.config.sndbuf > self.queued_bytes + self.outstanding_bytes
        ):
            self.on_writable()

    # -- retransmission -------------------------------------------------------
    def _retransmit_marked(self, within_cwnd: bool = False) -> int:
        """Send marked chunks, one bundled packet, preferring an alternate
        active path (paper §4.1.1: retransmissions use alternates).
        Returns the number of chunks sent; ``within_cwnd`` sends only if
        the destination's congestion window has room."""
        marked = [
            r
            for r in self.outstanding.values()
            if r.marked_for_rtx and not r.gap_acked
        ]
        if not marked:
            self._any_marked = False
            return 0
        origin = marked[0].path_addr
        dest_path = None
        if self.config.retransmit_to_alternate:
            dest_path = self._alternate_path(origin)
        if dest_path is None:
            dest_path = self.paths.get(origin) or self._active_path()
        if dest_path is None or (within_cwnd and not dest_path.can_send()):
            return 0
        # no SACK bundling here: retransmissions must never be crowded out
        chunks: List[Chunk] = []
        sent_records: List[TxRecord] = []
        budget = self._packet_budget
        for record in marked:
            size = record.chunk.wire_size()
            if size > budget:
                break
            budget -= size
            chunks.append(record.chunk)
            sent_records.append(record)
            record.marked_for_rtx = False
            record.missing_reports = 0
            record.transmit_count += 1
            record.sent_at_ns = self.kernel.now
            # migrate outstanding accounting to the retransmission path
            old_path = self.paths.get(record.path_addr)
            if old_path is not None and old_path is not dest_path:
                old_path.outstanding_bytes = max(
                    0, old_path.outstanding_bytes - record.chunk.payload.nbytes
                )
                dest_path.outstanding_bytes += record.chunk.payload.nbytes
                if record.path_addr != dest_path.addr:
                    self.stats.failovers += 1
            record.path_addr = dest_path.addr
            # Karn: no RTT sample from anything retransmitted
            self._rtt_probe.pop(dest_path.addr, None)
            self.stats.retransmitted_chunks += 1
        if chunks:
            if self._san is not None:
                self._san.on_retransmit(sent_records, "marked")
            self._transmit_chunks(chunks, dest_path.addr)
            self._t3_timers[dest_path.addr].restart(dest_path.rto.rto_ns)
        return len(chunks)

    def _on_t3(self, addr: str) -> None:
        path = self.paths.get(addr)
        if path is None or self.state == CLOSED:
            return
        # RFC 4960 §6.3.3 rule E3 excludes gap-acked chunks: they are not
        # outstanding on the path anymore (their bytes were credited on
        # gap-ack), so retransmitting them would corrupt path accounting
        on_path = [
            r
            for r in self.outstanding.values()
            if r.path_addr == addr and not r.gap_acked
        ]
        if not on_path:
            return
        self.stats.rto_events += 1
        path.on_timeout()
        if self._cwnd_hist is not None:
            self._cwnd_hist.observe(path.cwnd)
        path.rto.back_off()
        self._note_path_error(path)
        self._assoc_error_count += 1
        if self._assoc_error_count > self.config.assoc_max_retrans:
            self.abort("association retransmission limit exceeded")
            return
        for record in on_path:
            record.marked_for_rtx = True
            record.missing_reports = 0
        if on_path:
            self._any_marked = True
        self._retransmit_marked()

    # -- heartbeats / path supervision ---------------------------------------
    def _start_heartbeats(self) -> None:
        if self.config.heartbeat_interval_ns <= 0:
            return
        for addr in self.paths:
            self._arm_heartbeat(addr)

    def _arm_heartbeat(self, addr: str) -> None:
        self._hb_timers[addr].restart(
            self.config.heartbeat_interval_ns + self.paths[addr].rto.rto_ns
        )

    def _on_heartbeat_timer(self, addr: str) -> None:
        if self.state != ESTABLISHED:
            return
        path = self.paths.get(addr)
        if path is None:
            return
        if addr in self._hb_pending:
            # previous heartbeat never answered
            self._note_path_error(path)
            path.rto.back_off()
            del self._hb_pending[addr]
        if path.outstanding_bytes == 0:  # only probe idle paths
            self._nonce += 1
            self._hb_pending[addr] = self._nonce
            self.stats.heartbeats_sent += 1
            self._transmit_chunks(
                [HeartbeatChunk(addr, self.kernel.now, self._nonce)], addr
            )
        self._arm_heartbeat(addr)

    def _note_path_error(self, path: PathState) -> None:
        """note_error plus stats bookkeeping of ACTIVE->INACTIVE flips."""
        before = path.failures
        path.note_error()
        self.stats.path_failures += path.failures - before

    def _on_heartbeat_ack(self, chunk: HeartbeatAckChunk) -> None:
        pending = self._hb_pending.get(chunk.dest_addr)
        if pending != chunk.nonce:
            return
        del self._hb_pending[chunk.dest_addr]
        path = self.paths.get(chunk.dest_addr)
        if path is not None:
            self.stats.heartbeat_acks_received += 1
            path.note_success()
            path.rto.observe(self.kernel.now - chunk.sent_at_ns)

    def set_primary(self, addr: str) -> None:
        """SCTP_PRIMARY_ADDR-style override."""
        if addr not in self.paths:
            raise ValueError(f"{addr} is not a peer address of this association")
        self.primary_addr = addr

    # -- T1 (handshake) timer ---------------------------------------------------
    def _arm_t1(self) -> None:
        self._t1_timer.restart(self.paths[self.primary_addr].rto.rto_ns)

    def _on_t1(self) -> None:
        self._init_retries += 1
        if self._init_retries > self.config.max_init_retrans:
            self._teardown("handshake timed out")
            return
        self.paths[self.primary_addr].rto.back_off()
        if self.state == COOKIE_WAIT:
            self._send_init()
        elif self.state == COOKIE_ECHOED:
            self._transmit_chunks([CookieEchoChunk(self._cookie)], self.primary_addr)
            self._arm_t1()

    # -- shutdown / teardown -----------------------------------------------------
    def close(self) -> None:
        """Graceful shutdown; completes once all data is delivered.

        Note SCTP has no half-closed state: after close() neither side may
        send new data (paper §3.5.2).
        """
        if self.state in (CLOSED, SHUTDOWN_SENT, SHUTDOWN_ACK_SENT):
            return
        self._shutdown_requested = True
        if self.state == ESTABLISHED:
            self.state = SHUTDOWN_PENDING
            self.on_shutting_down()
        self._maybe_send_shutdown()

    def _maybe_send_shutdown(self) -> None:
        if not self._shutdown_requested:
            return
        if self.scheduler.n_pending or self.outstanding:
            return
        if self.state == SHUTDOWN_PENDING:
            self.state = SHUTDOWN_SENT
            self._transmit_chunks([ShutdownChunk(self.rcv_cum_tsn)], self.primary_addr)
            self._arm_t2()
        elif self.state == SHUTDOWN_RECEIVED:
            self.state = SHUTDOWN_ACK_SENT
            self._transmit_chunks([ShutdownAckChunk()], self.primary_addr)
            self._arm_t2()

    def _on_shutdown(self, chunk: ShutdownChunk, src_addr: str) -> None:
        if self.state in (ESTABLISHED, SHUTDOWN_PENDING):
            self.state = SHUTDOWN_RECEIVED
            self._shutdown_requested = True
            self.on_shutting_down()
        self._maybe_send_shutdown()

    def _on_shutdown_ack(self, src_addr: str) -> None:
        self._transmit_chunks([ShutdownCompleteChunk()], src_addr)
        self._teardown(None)

    def _arm_t2(self) -> None:
        self._t2_timer.restart(self.paths[self.primary_addr].rto.rto_ns)

    def _on_t2(self) -> None:
        if self.state == SHUTDOWN_SENT:
            self._transmit_chunks([ShutdownChunk(self.rcv_cum_tsn)], self.primary_addr)
            self._arm_t2()
        elif self.state == SHUTDOWN_ACK_SENT:
            self._transmit_chunks([ShutdownAckChunk()], self.primary_addr)
            self._arm_t2()

    def abort(self, reason: str) -> None:
        """Send ABORT and tear down immediately."""
        if self.state != CLOSED:
            self._transmit_chunks([AbortChunk(reason)], self.primary_addr)
        self._teardown(reason)

    def _on_autoclose(self) -> None:
        if self.state == ESTABLISHED and not self.outstanding and not self.scheduler.n_pending:
            self.close()

    def _teardown(self, error: Optional[str]) -> None:
        if self.state == CLOSED:
            return
        self.state = CLOSED
        for timer in (
            self._t1_timer,
            self._t2_timer,
            self._sack_timer,
            self._autoclose_timer,
            *self._t3_timers.values(),
            *self._hb_timers.values(),
        ):
            timer.cancel()
        self.endpoint.forget(self)
        self.on_closed(error)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Association id={self.assoc_id} {self.local_port}->"
            f"{self.primary_addr}:{self.peer_port} {self.state}>"
        )


def _noop() -> None:
    return None


def _noop1(_arg) -> None:
    return None
