"""TCP send buffer and reassembly buffer, incl. property tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.transport.tcp.buffers import ReassemblyBuffer, SendBuffer
from repro.util.blobs import ChunkList, RealBlob


# ---------------------------------------------------------------------------
# SendBuffer
# ---------------------------------------------------------------------------
def test_sendbuffer_write_and_read_range():
    sb = SendBuffer(start_seq=1000, capacity=100)
    assert sb.write(RealBlob(b"hello")) == 5
    assert sb.write(RealBlob(b"world")) == 5
    assert sb.read_range(1000, 10).to_bytes() == b"helloworld"
    assert sb.read_range(1003, 4).to_bytes() == b"lowo"


def test_sendbuffer_capacity_clips_writes():
    sb = SendBuffer(0, capacity=8)
    assert sb.write(RealBlob(b"0123456789")) == 8
    assert sb.free == 0
    assert sb.write(RealBlob(b"x")) == 0


def test_sendbuffer_release_frees_space():
    sb = SendBuffer(0, capacity=10)
    sb.write(RealBlob(b"abcdefghij"))
    assert sb.release_below(4) == 4
    assert sb.free == 4
    assert sb.read_range(4, 6).to_bytes() == b"efghij"
    # released range is gone
    with pytest.raises(ValueError):
        sb.read_range(0, 4)


def test_sendbuffer_partial_release_inside_blob():
    sb = SendBuffer(0, capacity=20)
    sb.write(RealBlob(b"abcdefgh"))
    sb.release_below(3)
    assert sb.read_range(3, 5).to_bytes() == b"defgh"


def test_sendbuffer_bytes_after():
    sb = SendBuffer(100, capacity=50)
    sb.write(RealBlob(b"x" * 30))
    assert sb.bytes_after(100) == 30
    assert sb.bytes_after(120) == 10
    assert sb.bytes_after(200) == 0


def test_sendbuffer_resend_below_the_last_read():
    """A read starts at the piece the last one ended in; a resend below
    it, and a read after the acked pieces are released, start over."""
    sb = SendBuffer(0, capacity=100)
    for piece in (b"abc", b"defg", b"hi", b"jklmn"):
        sb.write(RealBlob(piece))
    assert sb.read_range(5, 4).to_bytes() == b"fghi"
    assert sb.read_range(9, 5).to_bytes() == b"jklmn"
    assert sb.read_range(1, 3).to_bytes() == b"bcd"  # a resend
    assert sb.read_range(8, 2).to_bytes() == b"ij"
    sb.release_below(8)
    assert sb.read_range(8, 6).to_bytes() == b"ijklmn"
    assert sb.read_range(12, 2).to_bytes() == b"mn"


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sendbuffer_reads_match_the_written_stream(data):
    """Any mix of writes, reads anywhere in the buffered range and
    releases reads exactly the bytes written there."""
    sb = SendBuffer(7, capacity=64)
    stream = b""  # every byte written, from sequence 7
    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(st.sampled_from(("write", "read", "release")))
        head, tail = sb.tail_seq - sb.used, sb.tail_seq
        if op == "write":
            piece = data.draw(st.binary(min_size=1, max_size=12))
            stream += piece[: sb.write(RealBlob(piece))]
        elif op == "read" and tail > head:
            seq = data.draw(st.integers(head, tail - 1))
            nbytes = data.draw(st.integers(1, tail - seq))
            assert sb.read_range(seq, nbytes).to_bytes() == stream[seq - 7 : seq - 7 + nbytes]
        elif op == "release":
            sb.release_below(data.draw(st.integers(head, tail)))


# ---------------------------------------------------------------------------
# ReassemblyBuffer
# ---------------------------------------------------------------------------
def cl(data: bytes) -> ChunkList:
    return ChunkList([RealBlob(data)])


def test_in_order_delivery():
    rb = ReassemblyBuffer(0)
    assert rb.offer(0, cl(b"abc")).to_bytes() == b"abc"
    assert rb.offer(3, cl(b"def")).to_bytes() == b"def"
    assert rb.rcv_nxt == 6


def test_out_of_order_held_then_released():
    rb = ReassemblyBuffer(0)
    assert rb.offer(3, cl(b"def")).to_bytes() == b""
    assert rb.out_of_order_bytes == 3
    assert rb.offer(0, cl(b"abc")).to_bytes() == b"abcdef"
    assert not rb.out_of_order_bytes > 0


def test_duplicate_discarded():
    rb = ReassemblyBuffer(0)
    rb.offer(0, cl(b"abcdef"))
    assert rb.offer(0, cl(b"abc")).to_bytes() == b""
    assert rb.offer(2, cl(b"cdef")).to_bytes() == b""
    assert rb.rcv_nxt == 6


def test_overlap_trimmed():
    rb = ReassemblyBuffer(0)
    rb.offer(0, cl(b"abcd"))
    # overlaps delivered data and brings 2 new bytes
    assert rb.offer(2, cl(b"cdef")).to_bytes() == b"ef"


def test_sack_blocks_reflect_gaps():
    rb = ReassemblyBuffer(0)
    rb.offer(10, cl(b"x" * 5))
    rb.offer(20, cl(b"y" * 5))
    blocks = rb.sack_blocks(4)
    assert set(blocks) == {(10, 15), (20, 25)}
    # most-recently-updated block reported first
    assert blocks[0] == (20, 25)
    # cap respected
    assert len(rb.sack_blocks(1)) == 1


def test_sack_blocks_cleared_when_gap_fills():
    rb = ReassemblyBuffer(0)
    rb.offer(5, cl(b"fghij"))
    assert rb.sack_blocks(4) == ((5, 10),)
    rb.offer(0, cl(b"abcde"))
    assert rb.sack_blocks(4) == ()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_arbitrary_arrival_order_reconstructs_stream(data):
    """Segments of a random byte stream delivered in any order, with
    duplicates, always reassemble to exactly the original stream."""
    raw = data.draw(st.binary(min_size=1, max_size=120))
    # cut into segments
    cuts = sorted(
        data.draw(
            st.lists(st.integers(0, len(raw)), min_size=0, max_size=6)
        )
    )
    bounds = [0] + cuts + [len(raw)]
    segments = [
        (bounds[i], raw[bounds[i] : bounds[i + 1]])
        for i in range(len(bounds) - 1)
        if bounds[i + 1] > bounds[i]
    ]
    order = data.draw(st.permutations(segments))
    dup = data.draw(st.booleans())
    feed = list(order) + (list(order[:2]) if dup else [])

    rb = ReassemblyBuffer(0)
    got = b""
    for seq, chunk in feed:
        got += rb.offer(seq, cl(chunk)).to_bytes()
    assert got == raw
    assert rb.rcv_nxt == len(raw)
    assert not rb.out_of_order_bytes > 0
