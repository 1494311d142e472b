"""Selective acknowledgement: one RangeSet, two report policies.  The oracles
are the stacks' algorithms from before the RangeSet, kept verbatim."""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.analyze.sanitize import sanitized
from repro.simkernel import MICROSECOND, SECOND
from repro.transport.sctp.association import ESTABLISHED
from repro.transport.sctp.chunks import DataChunk, SackChunk, SCTPPacket
from repro.transport.tcp.buffers import ReassemblyBuffer
from repro.transport.tcp.connection import DUPACK_THRESHOLD, MSS
from repro.transport.tcp.segment import ACK, TCPSegment
from repro.util.blobs import ChunkList, RealBlob, SyntheticBlob

from ..conftest import make_cluster, sctp_pair, tcp_pair


def test_tcp_malformed_sack_blocks_are_ignored():
    """An inverted block and one wholly below snd_una are not counted, not
    held, and do not cut the fast retransmission short."""
    kernel, cluster = make_cluster()
    conn = tcp_pair(kernel, cluster)[0].conn
    sent = []
    conn.app_write(SyntheticBlob(8 * MSS))
    # capture what the host sends from here on; the wire stays idle
    conn.host.send = lambda packet: sent.append(packet.payload)
    una = conn.snd_una
    blocks = ((una + 500, una + 100), (una - 300, una))
    for _ in range(DUPACK_THRESHOLD):
        conn.on_segment(TCPSegment(conn.remote_port, conn.local_port, 0, una, ACK,
                                   conn.snd_wnd, sack_blocks=blocks))
    assert (conn.stats.fast_retransmits, conn.stats.sacked_ranges) == (1, 0)
    assert list(conn._sacked) == []
    assert [s.data_len for s in sent if s.seq == una] == [MSS]


def test_sctp_sack_of_a_tsn_never_sent_is_dropped():
    """A SACK whose cumulative TSN acks data never sent, injected while
    messages are in flight, retires no record and moves neither the
    cumulative point nor the peer's window: the transfer completes."""
    bodies = [bytes([i]) * 20_000 for i in range(1, 6)]
    with sanitized():
        kernel, cluster = make_cluster()
        s0, s1, aid = sctp_pair(kernel, cluster)
        for body in bodies:
            assert s0.sendmsg(aid, 0, RealBlob(body))
        assoc = s0.association(aid)
        kernel.run(until=kernel.now + 200 * MICROSECOND)
        assert assoc.outstanding and assoc.cum_tsn_acked >= assoc.my_initial_tsn
        before = (list(assoc.outstanding), assoc.cum_tsn_acked, assoc.peer_rwnd)
        forged = SackChunk(assoc.next_tsn + 1_000, 1 << 20)
        assoc.on_packet(
            SCTPPacket(assoc.peer_port, assoc.local_port, assoc.my_vtag, (forged,)),
            assoc.primary_addr,
        )
        assert (list(assoc.outstanding), assoc.cum_tsn_acked, assoc.peer_rwnd) == before
        kernel.run(until=kernel.now + SECOND)
    received = []
    while (msg := s1.recvmsg()) is not None:
        received.append(msg.data.to_bytes())
    assert received == bodies
    assert assoc.state == ESTABLISHED
    assert assoc.cum_tsn_acked < assoc.next_tsn


def test_sctp_gap_blocks_ack_each_tsn_once():
    """Overlapping, repeated, inverted or 0-based blocks ack a TSN once; a
    block far past the last TSN sent is walked only up to it."""
    with sanitized():  # audits outstanding_bytes against the records
        kernel, cluster = make_cluster()
        s0, _s1, aid = sctp_pair(kernel, cluster)
        for _ in range(10):  # ten 100-byte chunks in flight, never delivered
            assert s0.sendmsg(aid, 0, SyntheticBlob(100))
        assoc = s0.association(aid)
        cum = next(iter(assoc.outstanding)) - 1
        overlapping = ((2, 4), (3, 5), (2, 4), (7, 6), (0, 1))
        for gaps, acked in ((overlapping, 5), (overlapping, 5), (((1, 1 << 62),), 10)):
            assoc._on_sack(SackChunk(cum, 1 << 20, gaps), assoc.primary_addr)
            gap_acked = [t - cum for t, r in assoc.outstanding.items() if r.gap_acked]
            assert gap_acked == list(range(1, acked + 1))
            assert assoc.outstanding_bytes == (10 - acked) * 100


# -- TCP: the most-recently-updated block list, verbatim --------------------
def _note_block(self, seq: int, end: int, arrived_in_order: bool) -> None:
    if arrived_in_order:
        # in-order data invalidates blocks below rcv_nxt
        self._recent_blocks = [
            (s, e) for s, e in self._recent_blocks if e > self.rcv_nxt
        ]
        return
    merged = (seq, end)
    blocks = []
    for s, e in self._recent_blocks:
        if e < merged[0] or s > merged[1]:
            blocks.append((s, e))
        else:
            merged = (min(s, merged[0]), max(e, merged[1]))
    self._recent_blocks = [merged] + blocks


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 120), st.integers(1, 24)), min_size=1, max_size=24))
def test_tcp_sack_option_matches_the_old_block_list(segments):
    """Any arrival order, overlaps and repeats: bytes and SACK options agree."""
    raw = bytes(range(150))
    rb, old = ReassemblyBuffer(0), SimpleNamespace(rcv_nxt=0, _recent_blocks=[])
    received, delivered = set(), b""
    for seq, length in segments:
        end = seq + length
        delivered += rb.offer(seq, ChunkList([RealBlob(raw[seq:end])])).to_bytes()
        received.update(range(seq, end))
        before = old.rcv_nxt
        if end > before:  # wholly old data notes nothing
            while old.rcv_nxt in received:
                old.rcv_nxt += 1
            _note_block(old, max(seq, before), end, arrived_in_order=seq <= before)
        assert rb.rcv_nxt == old.rcv_nxt and delivered == raw[: rb.rcv_nxt]
        assert rb.out_of_order_bytes == len(received) - rb.rcv_nxt
        assert (rb.out_of_order_bytes > 0) == (len(received) > rb.rcv_nxt)
        live = [(s, e) for s, e in old._recent_blocks if e > old.rcv_nxt]
        for cap in (1, 3, 64):
            assert rb.sack_blocks(cap) == tuple(live[:cap])


# -- SCTP: the set above the cumulative TSN and its run builder, verbatim ----
def _on_data(self, tsn):
    if tsn <= self.rcv_cum_tsn or tsn in self._received_above_cum:
        self.duplicate_tsns += 1
        return
    if tsn == self.rcv_cum_tsn + 1 and not self._received_above_cum:
        self.rcv_cum_tsn = tsn  # in-order, no gap: skip the set churn
    else:
        self._received_above_cum.add(tsn)
        while (self.rcv_cum_tsn + 1) in self._received_above_cum:
            self.rcv_cum_tsn += 1
            self._received_above_cum.discard(self.rcv_cum_tsn)


def _gap_blocks(self):
    if not self._received_above_cum:
        return ()
    blocks = []
    start = prev = None
    for tsn in sorted(self._received_above_cum):
        if start is None:
            start = prev = tsn
        elif tsn == prev + 1:
            prev = tsn
        else:
            blocks.append((start - self.rcv_cum_tsn, prev - self.rcv_cum_tsn))
            start = prev = tsn
    blocks.append((start - self.rcv_cum_tsn, prev - self.rcv_cum_tsn))
    return tuple(blocks)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=40))
def test_sctp_gap_blocks_match_the_old_run_builder(offsets):
    """Any arrival order with duplicates: cum point, dups and gaps agree."""
    with sanitized():
        kernel, cluster = make_cluster()
        s0, _s1, aid = sctp_pair(kernel, cluster)
        assoc = s0.association(aid)
        base, dups = assoc.rcv_cum_tsn, assoc.stats.duplicate_tsns
        old = SimpleNamespace(rcv_cum_tsn=base, _received_above_cum=set(), duplicate_tsns=0)
        for offset in offsets:
            assoc._on_data(DataChunk(base + offset, 0, 0, RealBlob(b"x"), unordered=True))
            _on_data(old, base + offset)
            assert assoc.rcv_cum_tsn == old.rcv_cum_tsn
            assert assoc.stats.duplicate_tsns - dups == old.duplicate_tsns
            assert assoc._build_sack().gaps == _gap_blocks(old)
