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
