"""Envelope pack/unpack and wire framing rules."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.core.constants import (
    FLAG_LONG_ACK,
    FLAG_LONG_BODY,
    FLAG_LONG_RNDV,
    FLAG_PICKLED,
    FLAG_SHORT,
    FLAG_SSEND,
    FLAG_SSEND_ACK,
    KIND_MASK,
    collective_context,
    pt2pt_context,
)
from repro.core.envelope import (
    ENVELOPE_SIZE,
    INLINE_BODY_KINDS,
    Envelope,
    envelope_of,
    unpack_fields,
)


def unpack(raw):
    return envelope_of(unpack_fields(raw))


def test_envelope_size_is_28_bytes():
    assert ENVELOPE_SIZE == 28
    env = Envelope(100, 1, 2, 3, FLAG_SHORT, 7)
    assert env.pack().nbytes == ENVELOPE_SIZE


def test_roundtrip():
    env = Envelope(123456, 42, 3, 5, FLAG_LONG_RNDV | FLAG_PICKLED, 99)
    parsed = unpack(env.pack().to_bytes())
    assert parsed == env and type(parsed) is Envelope and parsed.seqnum == 99


def test_unpack_wrong_length_rejected():
    with pytest.raises(struct.error):
        unpack(b"short")


def test_kind_extracts_single_bit():
    env = Envelope(0, 0, 0, 0, FLAG_SSEND | FLAG_PICKLED, 1)
    assert env.flags & KIND_MASK == FLAG_SSEND


def test_wire_body_length_by_kind():
    # body-carrying kinds: the body follows the envelope on the wire
    assert INLINE_BODY_KINDS == {FLAG_SHORT, FLAG_SSEND, FLAG_LONG_BODY}
    # control kinds: length describes the future body, nothing follows
    assert not INLINE_BODY_KINDS & {FLAG_LONG_RNDV, FLAG_LONG_ACK, FLAG_SSEND_ACK}


def test_context_spaces_disjoint():
    # pt2pt and collective contexts of any communicator never collide
    ids = set()
    for cid in range(20):
        ids.add(pt2pt_context(cid))
        ids.add(collective_context(cid))
    assert len(ids) == 40


@given(
    length=st.integers(min_value=0, max_value=2**40),
    tag=st.integers(min_value=-1, max_value=2**31 - 1),
    context=st.integers(min_value=0, max_value=2**31 - 1),
    rank=st.integers(min_value=-1, max_value=2**31 - 1),
    flags=st.integers(min_value=0, max_value=0x7FF),
    seqnum=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_roundtrip_property(length, tag, context, rank, flags, seqnum):
    env = Envelope(length, tag, context, rank, flags, seqnum)
    assert unpack(env.pack().to_bytes()) == env
