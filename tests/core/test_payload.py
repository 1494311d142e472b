"""Payload encoding: pickled objects, raw bytes, blobs."""

import numpy as np
from hypothesis import given, strategies as st

from repro.core.constants import FLAG_PICKLED, FLAG_SHORT
from repro.core.envelope import Envelope
from repro.core.payload import encode_payload
from repro.core.request import RecvRequest
from repro.util.blobs import ChunkList, RealBlob, SyntheticBlob


class _StubRPI:
    rank = 0
    completions = 0
    request_ids = 0


def decode_payload(body, flags):
    """What a matched receive hands the application (``RecvRequest.deliver``)."""
    req = RecvRequest(_StubRPI(), source=1, tag=0, context=0)
    req.deliver(Envelope(body.nbytes, 0, 0, 1, FLAG_SHORT | flags, 1), body)
    return req.data


def test_bytes_pass_through_unpickled():
    body, flags = encode_payload(b"raw data")
    assert flags == 0
    assert body.to_bytes() == b"raw data"
    assert decode_payload(body, flags).to_bytes() == b"raw data"


def test_blob_passes_through():
    blob = SyntheticBlob(1000, "bench")
    body, flags = encode_payload(blob)
    assert flags == 0 and body.nbytes == 1000
    assert not body.is_real  # no materialisation happened


def test_chunklist_passes_through():
    cl = ChunkList([RealBlob(b"ab"), SyntheticBlob(3)])
    body, flags = encode_payload(cl)
    assert body is cl and flags == 0


def test_object_pickled_roundtrip():
    value = {"rank": 3, "data": [1, 2, (4, 5)], "f": 2.5}
    body, flags = encode_payload(value)
    assert flags & FLAG_PICKLED
    assert decode_payload(body, flags) == value


def test_numpy_roundtrip():
    arr = np.arange(1000, dtype=np.float64).reshape(10, 100)
    body, flags = encode_payload(arr)
    out = decode_payload(body, flags)
    assert np.array_equal(out, arr)
    assert body.nbytes > 8000  # true serialized size is accounted


@given(
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=5), children, max_size=4),
        max_leaves=10,
    )
)
def test_arbitrary_python_object_roundtrip(value):
    body, flags = encode_payload(value)
    assert decode_payload(body, flags) == value
