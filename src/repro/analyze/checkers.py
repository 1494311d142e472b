"""The protocol-invariant checkers behind :mod:`repro.analyze.sanitize`.

One class per instrumented layer: the kernel's event loop, a TCP
connection, an SCTP association, its inbound streams (SSN order and
reassembly tiling), its I-DATA path, an RPI's rendezvous machine and the
SCTP RPI's Option B multiplexing.  Instrumented code never imports this
module: it asks a factory in :mod:`repro.analyze.sanitize`, which loads
this module only once sanitizers are armed, so a run without
``REPRO_SANITIZE=1`` neither compiles nor imports any of it.

A checker raises :class:`~repro.analyze.sanitize.InvariantViolation` at
the first moment a violation is observable.  Checkers never schedule
events, never draw randomness and never mutate what they watch.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from .sanitize import InvariantViolation


def _fail(layer: str, invariant: str, detail: str) -> None:
    raise InvariantViolation(layer, invariant, detail)


def _check_ranges(layer: str, invariant: str, ranges: Any, lowest: int) -> None:
    """Selective-ack ``(start, end)`` ranges are non-empty and each starts
    at ``lowest`` or past the end of the one before: sorted, disjoint and
    not touching, so every range is one maximal block."""
    for start, end in ranges:
        if start >= end or start < lowest:
            detail = f"[{start}, {end}) is empty or starts below {lowest}"
            _fail(layer, invariant, f"range {detail}: {list(ranges)}")
        lowest = end + 1


# ---------------------------------------------------------------------------
# kernel: virtual-time monotonicity + timer-heap integrity
# ---------------------------------------------------------------------------


class KernelSanitizer:
    """Checks the event loop itself.

    * virtual time is monotone: no event fires at ``when < now``;
    * the heap satisfies the heap property over ``(when, seq)`` keys;
    * the O(1) ``pending_events`` counter agrees with an actual scan of
      the heap.

    The full heap audit is O(n), so it runs every ``AUDIT_EVERY`` fired
    events rather than per event; the monotonicity check is per event.
    """

    AUDIT_EVERY = 4096

    __slots__ = ("kernel", "_fires")

    def __init__(self, kernel: Any) -> None:
        self.kernel = kernel
        self._fires = 0

    def on_fire(self, when: int) -> None:
        """Called by the run loops with each event's timestamp, pre-advance."""
        kernel = self.kernel
        if when < kernel._now:
            _fail(
                "kernel",
                "virtual-time monotonicity",
                f"event scheduled at t={when}ns fired while now={kernel._now}ns",
            )
        self._fires += 1
        if self._fires % self.AUDIT_EVERY == 0:
            self.audit()

    def audit(self) -> None:
        """Full O(n) heap scan: structure and counter agreement."""
        kernel = self.kernel
        heap = kernel._heap  # repro: allow[AN105] — read-only audit scan
        for i in range(1, len(heap)):
            parent = (i - 1) >> 1
            if heap[parent][:2] > heap[i][:2]:
                _fail(
                    "kernel",
                    "timer-heap integrity",
                    f"heap property violated at index {i}: parent key "
                    f"{heap[parent][:2]} > child key {heap[i][:2]}",
                )
        live = 0
        for entry in heap:
            obj = entry[2]
            # a fire-and-forget entry is always live; a handle's entry only
            # while the handle is armed and the entry is the one it tracks
            # (keys are unique, so that is one entry per armed handle)
            if entry[3] is not None or (
                obj.deadline is not None and entry[1] == obj._entry_key
            ):
                live += 1
        if live != kernel._live_events:
            _fail(
                "kernel",
                "pending-events accounting",
                f"counter says {kernel._live_events} live events but the heap "
                f"holds {live}",
            )


# ---------------------------------------------------------------------------
# TCP: cumulative-ACK monotone, cwnd/ssthresh bounds, send-window accounting
# ---------------------------------------------------------------------------


class TCPConnectionSanitizer:
    """Checks one :class:`repro.transport.tcp.connection.TCPConnection`.

    * ``snd_una`` (cumulative ACK point) never retreats (RFC 793 §3.9:
      segments with ``SEG.ACK < SND.UNA`` are stale and ignored);
    * ``snd_una <= snd_nxt`` and nothing past the send buffer's tail is
      ever acknowledged (acking unsent data means sequence corruption);
    * the SACK scoreboard holds sorted, non-empty, disjoint, non-touching
      ranges, none below ``snd_una``;
    * NewReno bounds: ``cwnd >= 1 MSS`` always, ``ssthresh >= 2 MSS``
      once a loss has set it (RFC 5681 equations (4) and §3.1);
    * the receiver's ``rcv_nxt`` never retreats, and at most one FIN is
      counted into it (a retransmitted FIN must not re-advance it);
    * the receiver's ``out_of_order_bytes`` counter equals what its parked
      segments hold, and a segment's stored ``wire_len`` equals a fresh
      :meth:`~repro.transport.tcp.segment.TCPSegment.wire_size` sum.
    """

    __slots__ = ("_max_una", "_max_rcv_nxt", "_fin_counted")

    def __init__(self) -> None:
        self._max_una = -1
        self._max_rcv_nxt = -1
        self._fin_counted = False

    def on_ack_processed(self, conn: Any) -> None:
        """End of the sender-side ACK path: windows and cc state are settled."""
        una = conn.snd_una
        if una < self._max_una:
            _fail(
                "tcp",
                "cumulative-ACK monotone",
                f"snd_una retreated from {self._max_una} to {una} on "
                f"{conn.local_addr}:{conn.local_port}->"
                f"{conn.remote_addr}:{conn.remote_port}",
            )
        self._max_una = una
        if una > conn.snd_nxt:
            _fail(
                "tcp",
                "send-window accounting",
                f"snd_una={una} passed snd_nxt={conn.snd_nxt}: peer acked "
                "data never sent",
            )
        _check_ranges("tcp", "SACK scoreboard", conn._sacked, una)
        buf = conn.send_buffer
        if buf is not None:
            # +1: the FIN occupies one sequence number past the last byte
            limit = buf.tail_seq + (1 if conn._fin_seq is not None else 0)
            if conn.snd_nxt > limit:
                _fail(
                    "tcp",
                    "send-window accounting",
                    f"snd_nxt={conn.snd_nxt} passed buffered data end {limit}",
                )
        cc = conn.cc
        if cc.cwnd < cc.mss:
            _fail(
                "tcp",
                "cwnd lower bound",
                f"cwnd={cc.cwnd} fell below one MSS ({cc.mss})",
            )
        if (cc.fast_retransmits or cc.timeouts) and cc.ssthresh < 2 * cc.mss:
            _fail(
                "tcp",
                "ssthresh lower bound",
                f"ssthresh={cc.ssthresh} below 2*MSS after a loss event "
                "(RFC 5681 eq. 4)",
            )

    def on_delivery(self, conn: Any) -> None:
        """Receive path: in-order point only ever advances, and the parked
        byte count is what the parked segments hold."""
        reassembly = conn.reassembly
        if reassembly is None:
            return
        parked = sum(end - start for start, end, _ in reassembly._segments)
        if reassembly.out_of_order_bytes != parked:
            _fail(
                "tcp",
                "out-of-order byte count",
                f"out_of_order_bytes={reassembly.out_of_order_bytes} but the "
                f"parked segments hold {parked} bytes",
            )
        rcv_nxt = reassembly.rcv_nxt
        if rcv_nxt < self._max_rcv_nxt:
            _fail(
                "tcp",
                "rcv_nxt monotone",
                f"receive in-order point retreated from {self._max_rcv_nxt} "
                f"to {rcv_nxt}",
            )
        self._max_rcv_nxt = rcv_nxt

    def on_segment_sized(self, seg: Any) -> None:
        """A segment goes out with the wire size it computed when built:
        that size must equal a fresh sum of its headers, options and data."""
        fresh = seg.wire_size()
        if seg.wire_len != fresh:
            _fail(
                "tcp",
                "segment wire size",
                f"segment seq={seg.seq} sent as {seg.wire_len} bytes but its "
                f"headers, options and data make {fresh}",
            )

    def on_fin_accepted(self, conn: Any) -> None:
        """A FIN was consumed into rcv_nxt; doing so twice corrupts ACKs."""
        if self._fin_counted:
            _fail(
                "tcp",
                "single-FIN accounting",
                f"FIN consumed into rcv_nxt twice on "
                f"{conn.local_addr}:{conn.local_port}<-"
                f"{conn.remote_addr}:{conn.remote_port} "
                "(a retransmitted FIN must be re-ACKed, not re-counted)",
            )
        self._fin_counted = True


# ---------------------------------------------------------------------------
# SCTP: TSN monotone, outstanding accounting, E3/E4 retransmission guard
# ---------------------------------------------------------------------------


class AssociationSanitizer:
    """Checks one :class:`repro.transport.sctp.association.Association`.

    * ``cum_tsn_acked`` and the receiver's ``rcv_cum_tsn`` are monotone
      (RFC 4960 §6.3.3: an old SACK "MUST be discarded");
    * the receiver's TSNs above ``rcv_cum_tsn`` are sorted, non-empty,
      disjoint, non-touching ranges, the first starting past
      ``rcv_cum_tsn + 1`` (else the cumulative point should have moved);
    * ``outstanding`` holds exactly the TSNs ``cum_tsn_acked + 1`` ..
      ``next_tsn - 1`` in TSN order (insertion order == TSN order is what
      the T3 and fast-retransmit scans rely on, and the SACK path retires
      the cumulatively acked records by count);
    * ``outstanding_bytes`` — total and per path — equals a real sum over
      the in-flight records (the fast paths maintain these incrementally);
    * rules E3/E4: a chunk the peer reported as gap-acked is never handed
      back to the wire by fast retransmit or T3 bundling;
    * a packet whose wire size the sender passed in (the transmit loop's
      bundling budget) is exactly its header plus its chunks.
    """

    __slots__ = ("_max_cum_acked", "_max_rcv_cum")

    def __init__(self) -> None:
        self._max_cum_acked = -1
        self._max_rcv_cum = -1

    def on_sack_processed(self, assoc: Any) -> None:
        """End of the SACK path: full outstanding-map audit."""
        cum = assoc.cum_tsn_acked
        if cum < self._max_cum_acked:
            _fail(
                "sctp",
                "cumulative-TSN monotone",
                f"cum_tsn_acked retreated from {self._max_cum_acked} to {cum}",
            )
        self._max_cum_acked = cum
        total = 0
        by_path: Dict[str, int] = {}
        prev_tsn = cum
        for tsn, record in assoc.outstanding.items():
            if tsn <= prev_tsn:
                _fail(
                    "sctp",
                    "outstanding TSN order",
                    f"TSN {tsn} out of order (follows {prev_tsn}, "
                    f"cum={cum}): retransmission scans would misfire",
                )
            prev_tsn = tsn
            if not record.gap_acked:
                size = record.chunk.payload.nbytes
                total += size
                by_path[record.path_addr] = by_path.get(record.path_addr, 0) + size
        # ascending, so exactly cum+1 .. next_tsn-1 when it ends at
        # next_tsn-1 and holds that many TSNs
        held = len(assoc.outstanding)
        if prev_tsn != assoc.next_tsn - 1 or held != prev_tsn - cum:
            _fail(
                "sctp",
                "outstanding TSN range",
                f"{held} TSNs in flight, the last {prev_tsn}, but cum={cum} and "
                f"next_tsn={assoc.next_tsn}: a cumulative ack would retire "
                "the wrong records",
            )
        if total != assoc.outstanding_bytes:
            _fail(
                "sctp",
                "outstanding-bytes accounting",
                f"counter says {assoc.outstanding_bytes} bytes in flight but "
                f"records sum to {total}",
            )
        for addr, path in assoc.paths.items():
            expected = by_path.get(addr, 0)
            if path.outstanding_bytes != expected:
                _fail(
                    "sctp",
                    "per-path outstanding accounting",
                    f"path {addr} counter says {path.outstanding_bytes} but "
                    f"records sum to {expected}",
                )
            if path.cwnd < path.mtu_payload:
                _fail(
                    "sctp",
                    "cwnd lower bound",
                    f"path {addr} cwnd={path.cwnd} below one PMTU "
                    f"({path.mtu_payload}) (RFC 4960 §7.2.3 floor)",
                )

    def on_data_received(self, assoc: Any) -> None:
        """Receive path: cumulative point monotone, gap set consistent."""
        cum = assoc.rcv_cum_tsn
        if cum < self._max_rcv_cum:
            _fail(
                "sctp",
                "receiver cum-TSN monotone",
                f"rcv_cum_tsn retreated from {self._max_rcv_cum} to {cum}",
            )
        self._max_rcv_cum = cum
        # a range starting at cum + 1 should have become the cumulative point
        _check_ranges("sctp", "gap-set consistency", assoc._above_cum, cum + 2)

    def on_packet_sized(self, pkt: Any, size: int) -> None:
        """A packet sent with a caller-supplied wire size: the transmit
        loop sized it from its bundling budget instead of summing chunks,
        and its DATA chunks carry the size the bundler handed them."""
        for chunk in pkt.data_chunks():
            derived = (chunk.header + chunk.payload.nbytes + 3) // 4 * 4
            if chunk.wire_size() != derived:
                _fail(
                    "sctp",
                    "DATA chunk wire size",
                    f"TSN {chunk.tsn} claims {chunk.wire_size()} bytes but its "
                    f"header and payload pad to {derived}",
                )
        expected = pkt.wire_size()  # IP + common header + every chunk's size
        if size != expected:
            _fail(
                "sctp",
                "packet wire size",
                f"packet sent as {size} bytes but its chunks make {expected}",
            )

    def on_retransmit(self, records: Any, reason: str) -> None:
        """RFC 4960 §6.3.3 rules E3/E4: gap-acked chunks stay off the wire."""
        for record in records:
            if record.gap_acked:
                _fail(
                    "sctp",
                    "E3/E4 gap-ack guard",
                    f"TSN {record.chunk.tsn} was gap-acked by the peer but "
                    f"queued for {reason} retransmission",
                )


class StreamOrderSanitizer:
    """Per-stream SSN in-order delivery (RFC 4960 §6.5) and reassembly
    tiling.

    Watches the messages :class:`InboundStreams` releases to the
    application: within one stream, ordered messages must surface with
    consecutive SSNs (mod 2**16) starting at 0.  Unordered messages are
    exempt.  Before a completed multi-fragment run hands over its
    message, its fragment views must tile that message exactly.
    """

    __slots__ = ("_next_ssn",)

    def __init__(self) -> None:
        self._next_ssn: Dict[int, int] = {}

    def seed(self, sid: int, ssn: int) -> None:
        """``InboundStreams.seed`` moved the stream's starting point."""
        self._next_ssn[sid] = ssn

    def on_reassembled(self, frags: Any, first: int, last: int) -> None:
        """``frags[first..last]`` completed a message: their views must
        run contiguously from offset 0 to the end of the message (each
        fragment may carry its own copy of it, so sizes are compared, not
        identities)."""
        pos = 0
        for index in range(first, last + 1):
            view = frags[index].payload
            if view.offset != pos:
                _fail(
                    "sctp",
                    "reassembly tiling",
                    f"fragment {index} starts at byte {view.offset} of its "
                    f"message, expected {pos}",
                )
            pos += view.nbytes
        size = frags[last].payload.source.nbytes
        if pos != size:
            _fail(
                "sctp",
                "reassembly tiling",
                f"fragments {first}..{last} cover {pos} bytes of a "
                f"{size}-byte message",
            )

    def on_deliver(self, messages: Any) -> None:
        for message in messages:
            if message.unordered:
                continue
            if getattr(message, "mid", None) is not None:
                continue  # I-DATA: ordered by MID, audited by IDataSanitizer
            expected = self._next_ssn.get(message.sid, 0)
            if message.ssn != expected:
                _fail(
                    "sctp",
                    "per-stream SSN order",
                    f"stream {message.sid} delivered SSN {message.ssn}, "
                    f"expected {expected}",
                )
            self._next_ssn[message.sid] = (expected + 1) & 0xFFFF


class IDataSanitizer:
    """RFC 8260 I-DATA legality on one association's inbound path.

    Complements :class:`OptionBSanitizer` (which forbids *RPI-level*
    message interleaving under legacy DATA) with the transport-level
    rules the I-DATA extension introduces:

    * **DATA/I-DATA exclusivity** — after negotiation an association uses
      one encoding; the first data chunk received fixes the mode and any
      later chunk of the other kind trips the check (RFC 8260 §2.2.2);
    * **FSN contiguity** — a reassembled message's fragments carry FSNs
      0..E with the B bit on FSN 0 and the E bit on the last;
    * **per-stream MID order** — ordered messages of one stream surface
      with consecutive MIDs (mod 2**32).  Unordered messages are exempt.
    """

    __slots__ = ("_mode", "_expected_mid")

    def __init__(self) -> None:
        self._mode: Optional[str] = None
        self._expected_mid: Dict[int, int] = {}

    def on_chunk(self, chunk: Any) -> None:
        """Every inbound data chunk (legacy or I-DATA) passes through."""
        mode = "I-DATA" if chunk.is_idata else "DATA"
        if self._mode is None:
            self._mode = mode
        elif self._mode != mode:
            _fail(
                "sctp",
                "DATA/I-DATA exclusivity",
                f"received a {mode} chunk (tsn={chunk.tsn}) on an "
                f"association already using {self._mode}: the negotiated "
                "encoding must not change mid-association",
            )

    def on_assembled(self, sid: int, mid: int, frags: Any, e_fsn: int) -> None:
        """A message completed reassembly; audit its fragment numbering."""
        fsns = sorted(frags)
        if fsns != list(range(e_fsn + 1)):
            _fail(
                "sctp",
                "I-DATA FSN contiguity",
                f"stream {sid} mid {mid} assembled from FSNs {fsns}, "
                f"expected 0..{e_fsn}",
            )
        if not frags[0].begin:
            _fail(
                "sctp",
                "I-DATA FSN contiguity",
                f"stream {sid} mid {mid}: fragment with FSN 0 lacks the B bit",
            )
        if not frags[e_fsn].end:
            _fail(
                "sctp",
                "I-DATA FSN contiguity",
                f"stream {sid} mid {mid}: fragment with FSN {e_fsn} lacks "
                "the E bit",
            )

    def on_deliver(self, messages: Any) -> None:
        """Ordered I-DATA messages must surface in MID succession."""
        for message in messages:
            if message.unordered:
                continue
            expected = self._expected_mid.get(message.sid)
            if expected is not None and message.mid != expected:
                _fail(
                    "sctp",
                    "per-stream MID order",
                    f"stream {message.sid} delivered MID {message.mid}, "
                    f"expected {expected}",
                )
            self._expected_mid[message.sid] = (message.mid + 1) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# RPI: rendezvous state-machine legality + Option B non-interleaving
# ---------------------------------------------------------------------------


class RPISanitizer:
    """Checks the MPI progression engine's rendezvous state machine.

    Control units only make sense against a request in the matching
    protocol state (paper §3.1 / LAM's RPI contract): a long-protocol ACK
    must find its send in ``S_RNDV_WAIT_ACK``, a synchronous-send ACK in
    ``S_SSEND_WAIT_ACK``, and body bytes must land on a receive that
    posted (``S_RECV_BODY``).

    For the TCP RPI it also checks the selector's ready set: the pump
    reads only listed sockets, so a readable socket outside the list
    would have its data left unread (``sock.readable => sock in ready``).
    For both RPIs it checks the stall records: the pump passes over a
    stalled peer, so one whose send room has grown enough would have its
    output left unsent.  And a blocked rank resumes only through the wake
    that found what it waits for done: anything else resolving its
    future would hand the MPI call back unfinished.
    """

    __slots__ = ()

    def expect_state(self, req: Any, expected: str, event: str) -> None:
        if req.state != expected:
            _fail(
                "rpi",
                "rendezvous state legality",
                f"{event} arrived for request {req!r} in state {req.state}, "
                f"expected {expected}",
            )

    def expect_resumed_done(self, resumed: Any, where: str) -> None:
        """A blocked ``progress_until`` resumed: its predicate held (its
        future was resolved by the wake whose steps saw ``done()`` true)."""
        if resumed is not True:
            _fail(
                "rpi",
                "a blocked rank resumes only when done",
                f"{where}: progress_until resumed with {resumed!r} before "
                "its predicate held",
            )

    def expect_listed(self, sockets: Any, listed: Any, where: str) -> None:
        """Every readable one of ``sockets`` is in ``listed`` (pass an
        empty ``listed`` where nothing may be readable: a blocking step)."""
        for sock in sockets:
            if sock.readable and sock not in listed:
                _fail(
                    "rpi",
                    "TCP ready set covers every readable socket",
                    f"{where}: {sock!r} is readable but not listed",
                )

    def expect_refused(
        self, stalled: Dict[Any, int], room: Callable[[Any], int], where: str
    ) -> None:
        """Each stalled peer's send room still cannot take the smallest
        piece it refused (SCTP: ``send_room < need``)."""
        for peer, need in stalled.items():
            free = room(peer)
            if free >= need:
                _fail(
                    "rpi",
                    "a stalled peer's send room is below its next piece",
                    f"{where}: peer {peer} has room {free} for a {need}-byte piece",
                )

    def expect_full(self, stalled: Any, where: str) -> None:
        """Each stalled socket's ``send`` would still accept nothing
        (TCP: ``sock in stalled => sock.send_blocked``)."""
        for sock in stalled:
            if not sock.send_blocked:
                _fail(
                    "rpi",
                    "a stalled TCP socket's send buffer is full",
                    f"{where}: {sock!r} can take bytes but is stalled",
                )

    def expect_write_idle(
        self, queues: Dict[Any, Any], sock_of: Dict[Any, Any], stalled: Any,
        write_set: Any, where: str,
    ) -> None:
        """A skipped TCP walk would have sent nothing: each non-empty
        queue's peer is unbound or its socket stalled, and the write set
        the last walk built lists exactly the bound ones, in queue order."""
        expected = []
        for peer, queue in queues.items():
            sock = sock_of.get(peer)
            if not queue or sock is None:
                continue
            if sock not in stalled:
                _fail(
                    "rpi",
                    "a skipped TCP walk has no socket that can take bytes",
                    f"{where}: the queue to peer {peer} holds {len(queue)} "
                    f"unit(s) and {sock!r} is not stalled",
                )
            expected.append(sock)
        if list(write_set) != expected:
            _fail(
                "rpi",
                "the TCP write set is the bound sockets with output",
                f"{where}: write set {list(write_set)!r}, expected {expected!r}",
            )


class OptionBSanitizer:
    """Paper §3.4.2 Option B: one message at a time per (association, stream).

    The SCTP RPI multiplexes messages over streams but must not start
    message B on a stream while message A's pieces are still going out —
    interleaving would corrupt framing at the receiver.  The sender's
    transmit loop reports every piece here; starting a different unit
    while one is unfinished trips the check.
    """

    __slots__ = ("_in_progress",)

    def __init__(self) -> None:
        self._in_progress: Dict[Tuple[int, int], Any] = {}

    def on_piece_sent(self, key: Tuple[int, int], unit: Any, done: bool) -> None:
        current = self._in_progress.get(key)
        if current is not None and current is not unit:
            _fail(
                "rpi",
                "Option B non-interleaving",
                f"stream key {key} started a new message while another is "
                "mid-flight (paper §3.4.2 forbids interleaving)",
            )
        if done:
            self._in_progress.pop(key, None)
        else:
            self._in_progress[key] = unit

    def on_admitted_piece_refused(self, key: Tuple[int, int], size: int) -> None:
        """``sendmsg`` refused a piece the RPI's send-room test had admitted:
        the test and ``Association.send_message``'s buffer check diverged."""
        _fail(
            "rpi",
            "send admission agrees with sendmsg",
            f"stream key {key}: a {size}-byte piece passed the send-room "
            "test but sendmsg answered EAGAIN",
        )
