"""SCTP PDU wire-size accounting and SACK helpers."""

from repro.transport.sctp import (
    CookieAckChunk,
    DataChunk,
    HeartbeatChunk,
    InitChunk,
    SackChunk,
    SCTPPacket,
    ShutdownChunk,
)
from repro.util.blobs import SyntheticBlob


def test_data_chunk_size_padded():
    c = DataChunk(tsn=1, sid=0, ssn=0, payload=SyntheticBlob(1))
    assert c.wire_size() == 20  # 16 header + 1 payload, padded to 4
    c2 = DataChunk(tsn=1, sid=0, ssn=0, payload=SyntheticBlob(1452))
    assert c2.wire_size() == 16 + 1452


def test_sack_size_grows_with_gap_blocks():
    s0 = SackChunk(cum_tsn=10, a_rwnd=1000)
    s3 = SackChunk(cum_tsn=10, a_rwnd=1000, gaps=((2, 3), (5, 5), (8, 9)))
    assert s3.wire_size() == s0.wire_size() + 12


def test_sack_unlimited_gap_blocks():
    # unlike TCP's 3-block option-space cap, SCTP reports every hole
    gaps = tuple((i * 2, i * 2) for i in range(1, 101))
    s = SackChunk(cum_tsn=0, a_rwnd=1, gaps=gaps)
    assert len(s.gaps) == 100
    assert s.wire_size() == 16 + 400


def test_packet_wire_size_sums_chunks():
    data = DataChunk(tsn=1, sid=0, ssn=0, payload=SyntheticBlob(100))
    sack = SackChunk(cum_tsn=5, a_rwnd=10)
    pkt = SCTPPacket(src_port=1, dst_port=2, vtag=3, chunks=(sack, data))
    assert pkt.wire_size() == 20 + 12 + sack.wire_size() + data.wire_size()
    assert pkt.data_chunks() == (data,)


def test_control_chunk_sizes_positive():
    for chunk in (
        InitChunk(1, 2, 3, 4, 5, ("a", "b")),
        CookieAckChunk(),
        HeartbeatChunk("a", 0, 1),
        ShutdownChunk(9),
    ):
        assert chunk.wire_size() > 0
        assert chunk.wire_size() % 4 == 0


def test_fragment_flags_repr():
    whole = DataChunk(tsn=1, sid=2, ssn=3, payload=SyntheticBlob(4))
    middle = DataChunk(tsn=2, sid=2, ssn=3, payload=SyntheticBlob(4), begin=False, end=False)
    assert "BE" in repr(whole)
    assert "M" in repr(middle)
