"""Blob/ChunkList payload containers, with property-based slicing checks."""

import pytest
from hypothesis import given, strategies as st

from repro.util.blobs import BlobView, ChunkList, RealBlob, SyntheticBlob, as_blob


def test_real_blob_basics():
    b = RealBlob(b"hello")
    assert len(b) == 5 and b.is_real and b.to_bytes() == b"hello"
    assert b.slice(1, 4).to_bytes() == b"ell"


def test_synthetic_blob_basics():
    b = SyntheticBlob(100, "x")
    assert len(b) == 100 and not b.is_real
    assert b.slice(10, 30).nbytes == 20
    assert b.to_bytes() == b"\x00" * 100


def test_synthetic_negative_size_rejected():
    with pytest.raises(ValueError):
        SyntheticBlob(-1)


def test_bad_slices_rejected():
    b = RealBlob(b"abc")
    for lo, hi in ((-1, 2), (2, 1), (0, 4)):
        with pytest.raises(ValueError):
            b.slice(lo, hi)


def test_as_blob_coercions():
    assert as_blob(b"x").to_bytes() == b"x"
    assert as_blob(bytearray(b"y")).to_bytes() == b"y"
    blob = SyntheticBlob(3)
    assert as_blob(blob) is blob
    with pytest.raises(TypeError):
        as_blob(123)


def test_chunklist_append_and_total():
    cl = ChunkList([RealBlob(b"ab")])
    cl.append(SyntheticBlob(3))
    cl.append(RealBlob(b""))  # empty pieces are dropped
    assert cl.nbytes == 5 and len(cl.pieces) == 2
    assert not cl.is_real


def test_chunklist_slice_across_pieces():
    cl = ChunkList([RealBlob(b"abcd"), RealBlob(b"efgh"), RealBlob(b"ijkl")])
    assert cl.slice(2, 10).to_bytes() == b"cdefghij"


def test_chunklist_split():
    cl = ChunkList([RealBlob(b"hello"), RealBlob(b"world")])
    left, right = cl.split(7)
    assert left.to_bytes() == b"hellowo" and right.to_bytes() == b"rld"


def test_chunklist_take_leaves_the_remainder():
    env, body = RealBlob(b"envelope"), RealBlob(b"body")
    cl = ChunkList([env, body])
    head = cl.take(8)  # exactly the first piece: moved, not sliced
    assert head.pieces == [env] and cl.pieces == [body] and cl.nbytes == 4
    assert cl.take(2).to_bytes() == b"bo" and cl.to_bytes() == b"dy"
    rest = cl.take(2)  # everything: handed over, the run is left empty
    assert rest.to_bytes() == b"dy" and cl.pieces == [] and cl.nbytes == 0


def test_chunklist_extend():
    a = ChunkList([RealBlob(b"12")])
    b = ChunkList([RealBlob(b"34")])
    a.extend(b)
    assert a.to_bytes() == b"1234"


@st.composite
def chunked_bytes(draw):
    data = draw(st.binary(min_size=0, max_size=200))
    pieces = []
    i = 0
    while i < len(data):
        n = draw(st.integers(min_value=1, max_value=40))
        pieces.append(RealBlob(data[i : i + n]))
        i += n
    return data, ChunkList(pieces)


@given(chunked_bytes(), st.data())
def test_chunklist_slice_matches_bytes_slice(pair, data):
    raw, cl = pair
    assert cl.to_bytes() == raw
    lo = data.draw(st.integers(min_value=0, max_value=len(raw)))
    hi = data.draw(st.integers(min_value=lo, max_value=len(raw)))
    assert cl.slice(lo, hi).to_bytes() == raw[lo:hi]


@given(chunked_bytes(), st.data())
def test_chunklist_split_partitions(pair, data):
    raw, cl = pair
    at = data.draw(st.integers(min_value=0, max_value=len(raw)))
    left, right = cl.split(at)
    assert left.to_bytes() + right.to_bytes() == raw
    assert left.nbytes == at


@given(st.binary(min_size=1, max_size=64), st.data())
def test_blob_view_materialises_its_own_range(message, data):
    """An SCTP fragment is a view of its message: its bytes are exactly
    that range of the message, whether the message is one blob or a run
    of them, and a view of a view is a narrower range of the same one."""
    start = data.draw(st.integers(0, len(message)))
    end = data.draw(st.integers(start, len(message)))
    cut = data.draw(st.integers(0, len(message)))
    sources = [
        RealBlob(message),
        ChunkList([RealBlob(message[:cut]), RealBlob(message[cut:])]),
    ]
    for source in sources:
        view = BlobView(source, start, end - start)
        assert view.nbytes == end - start and view.is_real
        assert view.to_bytes() == message[start:end]
        inner = view.slice(0, view.nbytes // 2)
        assert inner.source is source
        assert inner.to_bytes() == message[start:start + view.nbytes // 2]
    assert not BlobView(SyntheticBlob(len(message)), start, end - start).is_real
