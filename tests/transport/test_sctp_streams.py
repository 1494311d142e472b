"""Stream reassembly + per-stream ordering (the HOL-blocking cure)."""

from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyze.sanitize import sanitized
from repro.transport.sctp.chunks import DataChunk, IDataChunk
from repro.transport.sctp.streams import InboundStreams, OutboundStreams
from repro.util.blobs import as_blob

from ..conftest import fragments


def chunk(tsn, sid, ssn, data=b"x", begin=True, end=True, unordered=False):
    """One DATA chunk; ``data`` is bytes for a whole message, or one of
    the message's :func:`fragments`."""
    return DataChunk(
        tsn=tsn, sid=sid, ssn=ssn, payload=as_blob(data),
        begin=begin, end=end, unordered=unordered,
    )


def test_outbound_ssn_per_stream():
    out = OutboundStreams(3)
    assert [out.next_seq(0), out.next_seq(0), out.next_seq(1)] == [0, 1, 0]
    with pytest.raises(ValueError):
        out.next_seq(3)


def test_single_chunk_message_delivers_immediately():
    inb = InboundStreams(4)
    msgs = inb.on_data(chunk(100, sid=2, ssn=0, data=b"hello"))
    assert len(msgs) == 1
    assert msgs[0].data.to_bytes() == b"hello"
    assert msgs[0].sid == 2
    assert inb.buffered_bytes == 0


def test_fragmented_message_reassembles():
    inb = InboundStreams(1)
    aa, bb, cc = fragments(b"aabbcc", 2, 2, 2)
    assert inb.on_data(chunk(1, 0, 0, aa, begin=True, end=False)) == []
    assert inb.on_data(chunk(3, 0, 0, cc, begin=False, end=True)) == []
    msgs = inb.on_data(chunk(2, 0, 0, bb, begin=False, end=False))
    assert len(msgs) == 1
    assert msgs[0].data.to_bytes() == b"aabbcc"
    assert msgs[0].first_tsn == 1 and msgs[0].last_tsn == 3


def test_ssn_ordering_within_stream():
    inb = InboundStreams(1)
    assert inb.on_data(chunk(2, 0, ssn=1, data=b"second")) == []
    assert inb.buffered_bytes == 6  # complete but blocked by SSN order
    msgs = inb.on_data(chunk(1, 0, ssn=0, data=b"first"))
    assert [m.data.to_bytes() for m in msgs] == [b"first", b"second"]
    assert inb.buffered_bytes == 0


def test_streams_deliver_independently():
    """The paper's core mechanism: a hole in stream 0 does not block
    stream 1's messages."""
    inb = InboundStreams(2)
    # stream 0, ssn 0 never arrives; stream 1 flows freely
    assert inb.on_data(chunk(10, sid=0, ssn=1, data=b"blocked")) == []
    out = inb.on_data(chunk(11, sid=1, ssn=0, data=b"flows"))
    assert [m.data.to_bytes() for m in out] == [b"flows"]
    assert inb._spaces or inb._parked_at  # stream 0's ssn 1 still parked


def test_unordered_bypasses_ssn():
    inb = InboundStreams(1)
    out = inb.on_data(chunk(5, 0, ssn=99, data=b"now", unordered=True))
    assert [m.data.to_bytes() for m in out] == [b"now"]


def _two_unordered_messages():
    """Two unordered 3-fragment messages on one stream, TSNs 10-12 and
    13-15.  Unordered DATA carries no usable SSN (here both say 0), so
    only TSN contiguity between B and E tells the two apart."""
    views = fragments(bytes(range(10, 13)), 1, 1, 1)
    views += fragments(bytes(range(13, 16)), 1, 1, 1)
    return {
        tsn: chunk(
            tsn, 0, 0, view, begin=tsn in (10, 13), end=tsn in (12, 15),
            unordered=True,
        )
        for tsn, view in zip(range(10, 16), views)
    }


def test_unordered_fragmented_messages_do_not_merge():
    frags = _two_unordered_messages()
    inb = InboundStreams(1)
    got = [m for tsn in (10, 13, 11, 12, 14, 15) for m in inb.on_data(frags[tsn])]
    assert [m.data.to_bytes() for m in got] == [b"\x0a\x0b\x0c", b"\x0d\x0e\x0f"]
    assert inb.buffered_bytes == 0
    assert not (inb._spaces or inb._parked_at)


def test_unordered_fragmented_messages_any_arrival_order():
    frags = _two_unordered_messages()
    for order in permutations(frags):
        inb = InboundStreams(1)
        got = [m.data.to_bytes() for tsn in order for m in inb.on_data(frags[tsn])]
        assert sorted(got) == [b"\x0a\x0b\x0c", b"\x0d\x0e\x0f"], order
        assert inb.buffered_bytes == 0 and not (inb._spaces or inb._parked_at), order


def test_stream_id_out_of_range_rejected():
    inb = InboundStreams(2)
    with pytest.raises(ValueError):
        inb.on_data(chunk(1, sid=5, ssn=0))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_any_arrival_order_delivers_each_stream_in_ssn_order(data):
    """Property: random multi-stream fragmented traffic, arbitrary arrival
    order -> per-stream SSN order, every message exactly once."""
    n_streams = data.draw(st.integers(1, 3))
    out = OutboundStreams(n_streams)
    tsn = 0
    chunks = []
    expected = {s: [] for s in range(n_streams)}
    for _ in range(data.draw(st.integers(1, 8))):
        sid = data.draw(st.integers(0, n_streams - 1))
        ssn = out.next_seq(sid)
        body = data.draw(st.binary(min_size=1, max_size=12))
        expected[sid].append(body)
        frag_at = data.draw(st.integers(0, len(body)))
        sizes = [n for n in (frag_at, len(body) - frag_at) if n]
        pieces = fragments(body, *sizes)
        for i, piece in enumerate(pieces):
            tsn += 1
            chunks.append(
                chunk(
                    tsn, sid, ssn, piece,
                    begin=(i == 0), end=(i == len(pieces) - 1),
                )
            )
    order = data.draw(st.permutations(chunks))
    inb = InboundStreams(n_streams)
    got = {s: [] for s in range(n_streams)}
    for c in order:
        for msg in inb.on_data(c):
            got[msg.sid].append(msg.data.to_bytes())
    assert got == expected
    assert inb.buffered_bytes == 0


N_STREAMS = 3


def _feed(chunks, order, owner, ordered):
    """Run one InboundStreams over ``chunks`` in ``order``; returns what
    it delivered.  ``owner[i]`` is the message chunk ``i`` belongs to."""
    inb = InboundStreams(N_STREAMS)
    missing = Counter(owner)  # fragments yet to arrive, per message
    held = peak = 0  # complete ordered messages not yet delivered
    got = []
    for i in order:
        missing[owner[i]] -= 1
        if not missing[owner[i]] and ordered[owner[i]]:
            held += 1
            peak = max(peak, held)
        msgs = inb.on_data(chunks[i])
        held -= sum(not m.unordered for m in msgs)
        assert inb.parked_messages_max <= peak
        got.extend(msgs)
    assert inb.buffered_bytes == 0
    assert not (inb._spaces or inb._parked_at)
    return [(m.sid, m.unordered, m.data.to_bytes()) for m in got]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_one_engine_under_both_encodings(data):
    """Property: the same messages, cut once as DATA and once as I-DATA,
    fed in an arbitrary arrival order -> every message exactly once with
    its bytes, ordered messages of a stream in send order, nothing left
    behind, and the same deliveries from both encodings.  Sanitizers on:
    FSN contiguity, mode exclusivity and SSN/MID order are audited too."""
    specs = data.draw(
        st.lists(
            st.tuples(st.integers(0, N_STREAMS - 1), st.integers(1, 6), st.booleans()),
            min_size=1, max_size=8,
        )
    )
    wire = {False: [], True: []}  # idata -> chunks
    out = {False: OutboundStreams(N_STREAMS), True: OutboundStreams(N_STREAMS)}
    owner, sent = [], []
    for n, (sid, n_frags, unordered) in enumerate(specs):
        seq = {idata: out[idata].next_seq(sid, unordered, idata) for idata in out}
        body = bytes(b for f in range(n_frags) for b in (n, f))
        views = fragments(body, *[2] * n_frags)
        for fsn, view in enumerate(views):
            # TSNs run on through each message: DATA fragments are contiguous
            common = dict(
                tsn=len(owner), sid=sid, payload=view,
                begin=fsn == 0, end=fsn == n_frags - 1, unordered=unordered,
            )
            wire[False].append(DataChunk(ssn=seq[False], **common))
            wire[True].append(IDataChunk(ssn=0, mid=seq[True], fsn=fsn, **common))
            owner.append(n)
        sent.append((sid, unordered, body))
    order = data.draw(st.permutations(range(len(owner))))
    ordered = [not unordered for _, _, unordered in specs]
    with sanitized():
        got = {idata: _feed(wire[idata], order, owner, ordered) for idata in wire}
    for delivered in got.values():
        assert sorted(delivered) == sorted(sent)  # bodies are unique: exactly once
        for sid in range(N_STREAMS):
            in_order = [m for m in sent if m[0] == sid and not m[1]]
            assert [m for m in delivered if m[0] == sid and not m[1]] == in_order
    assert sorted(got[False]) == sorted(got[True])
