"""RFC 8260 message interleaving: MID reassembly, negotiation, fallback."""

import pytest

from repro.simkernel import SECOND
from repro.transport.sctp import (
    OneToManySocket,
    SCTPConfig,
    SCTPEndpoint,
)
from repro.transport.sctp.chunks import DataChunk, IDataChunk
from repro.transport.sctp.streams import (
    MID_MASK,
    SSN_MASK,
    InboundStreams,
    OutboundStreams,
)
from repro.util.blobs import RealBlob, as_blob

from ..conftest import fragments, make_cluster


def idchunk(tsn, sid, mid, fsn=0, data=b"x", begin=True, end=True, unordered=False):
    """One I-DATA chunk; ``data`` is bytes for a whole message, or one of
    the message's :func:`fragments`."""
    return IDataChunk(
        tsn=tsn, sid=sid, ssn=0, payload=as_blob(data),
        begin=begin, end=end, unordered=unordered, mid=mid, fsn=fsn,
    )


def seqchunk(idata, tsn, seq, data):
    """One whole ordered message on stream 0 whose SSN (DATA) or MID
    (I-DATA) is ``seq``."""
    if idata:
        return idchunk(tsn, 0, mid=seq, data=data)
    return DataChunk(tsn=tsn, sid=0, ssn=seq, payload=RealBlob(data))


# the sequence space wraps at the width its encoding gives it: one
# masked path for the 16-bit SSN and the 32-bit MID
WRAPS = [
    pytest.param(False, SSN_MASK, id="data"),
    pytest.param(True, MID_MASK, id="idata"),
]


# ---------------------------------------------------------------------------
# outbound MID allocation
# ---------------------------------------------------------------------------
def test_outbound_mid_spaces_are_separate():
    out = OutboundStreams(2)
    assert [out.next_seq(0, False, True), out.next_seq(0, False, True)] == [0, 1]
    # unordered draws from its own space (the U bit is part of identity)
    assert out.next_seq(0, True, True) == 0
    assert out.next_seq(1, False, True) == 0
    with pytest.raises(ValueError):
        out.next_seq(2, False, True)


@pytest.mark.parametrize("idata, mask", WRAPS)
def test_outbound_mid_wraps_at_32_bits(idata, mask):
    out = OutboundStreams(1)
    out.seed(0, mask)
    assert out.next_seq(0, False, idata) == mask
    assert out.next_seq(0, False, idata) == 0


# ---------------------------------------------------------------------------
# reassembly
# ---------------------------------------------------------------------------
def test_single_idata_chunk_delivers():
    inb = InboundStreams(4)
    msgs = inb.on_data(idchunk(100, sid=2, mid=0, data=b"hello"))
    assert len(msgs) == 1
    assert msgs[0].data.to_bytes() == b"hello"
    assert msgs[0].mid == 0 and msgs[0].ssn == 0
    assert inb.buffered_bytes == 0


def test_interleaved_fragments_out_of_order():
    """Fragments of two messages on one stream arrive interleaved and
    out of FSN order — impossible with legacy DATA (contiguous TSNs),
    the normal case with I-DATA."""
    inb = InboundStreams(1)
    # message mid=0 = "aabbcc", mid=1 = "xxyy"; wire order mixes them
    aa, bb, cc = fragments(b"aabbcc", 2, 2, 2)
    xx, yy = fragments(b"xxyy", 2, 2)
    assert inb.on_data(idchunk(1, 0, mid=0, fsn=0, data=aa, end=False)) == []
    assert inb.on_data(idchunk(2, 0, mid=1, fsn=0, data=xx, end=False)) == []
    # mid=1's E fragment arrives before its own middle... nothing yet
    assert inb.on_data(
        idchunk(3, 0, mid=0, fsn=2, data=cc, begin=False, end=True)
    ) == []
    assert inb.on_data(
        idchunk(4, 0, mid=1, fsn=1, data=yy, begin=False, end=True)
    ) == []
    # completing mid=0 releases both, in MID order
    msgs = inb.on_data(
        idchunk(5, 0, mid=0, fsn=1, data=bb, begin=False, end=False)
    )
    assert [m.data.to_bytes() for m in msgs] == [b"aabbcc", b"xxyy"]
    assert [m.mid for m in msgs] == [0, 1]
    assert inb.buffered_bytes == 0
    assert not inb.has_undelivered


def test_mid_ordering_parks_later_messages():
    inb = InboundStreams(1)
    assert inb.on_data(idchunk(2, 0, mid=1, data=b"second")) == []
    assert inb.has_undelivered
    msgs = inb.on_data(idchunk(1, 0, mid=0, data=b"first"))
    assert [m.data.to_bytes() for m in msgs] == [b"first", b"second"]


def test_streams_deliver_independently_under_idata():
    inb = InboundStreams(2)
    assert inb.on_data(idchunk(10, sid=0, mid=1, data=b"blocked")) == []
    out = inb.on_data(idchunk(11, sid=1, mid=0, data=b"flows"))
    assert [m.data.to_bytes() for m in out] == [b"flows"]


def test_unordered_idata_delivers_on_completion():
    inb = InboundStreams(1)
    # ordered mid=0 is missing; an unordered message is not held back
    assert inb.on_data(idchunk(1, 0, mid=5, data=b"held")) == []
    out = inb.on_data(idchunk(2, 0, mid=0, data=b"now", unordered=True))
    assert [m.data.to_bytes() for m in out] == [b"now"]
    assert out[0].unordered


@pytest.mark.parametrize("idata, mask", WRAPS)
def test_receiver_mid_wraparound(idata, mask):
    inb = InboundStreams(1)
    inb.seed(0, mask)
    # deliver the last number then 0: succession wraps, both flow
    msgs = inb.on_data(seqchunk(idata, 1, mask, b"last"))
    assert [m.data.to_bytes() for m in msgs] == [b"last"]
    msgs = inb.on_data(seqchunk(idata, 2, 0, b"wrapped"))
    assert [m.data.to_bytes() for m in msgs] == [b"wrapped"]


@pytest.mark.parametrize("idata, mask", WRAPS)
def test_wrapped_mid_parks_across_boundary(idata, mask):
    inb = InboundStreams(1)
    inb.seed(0, mask)
    # 0 (post-wrap) arrives before the last number: parked, then both
    assert inb.on_data(seqchunk(idata, 1, 0, b"after")) == []
    msgs = inb.on_data(seqchunk(idata, 2, mask, b"before"))
    assert [m.data.to_bytes() for m in msgs] == [b"before", b"after"]
    assert not inb.has_undelivered


# ---------------------------------------------------------------------------
# negotiation + end-to-end transfer
# ---------------------------------------------------------------------------
def _pair(kernel, cluster, client_cfg, server_cfg, port=6000):
    e0 = SCTPEndpoint(cluster.hosts[0], client_cfg)
    e1 = SCTPEndpoint(cluster.hosts[1], server_cfg)
    s0 = OneToManySocket(e0, port, client_cfg)
    s1 = OneToManySocket(e1, port, server_cfg)
    fut = s0.connect(cluster.host_address(1), port)
    assoc_id = kernel.run_until(fut, limit=60_000_000_000)
    return s0, s1, assoc_id


def test_fallback_when_server_lacks_interleaving():
    """Client offers I-DATA, server does not: both fall back to legacy
    DATA and traffic flows."""
    kernel, cluster = make_cluster()
    s0, s1, aid = _pair(
        kernel, cluster,
        SCTPConfig(interleaving=True, scheduler="rr"),
        SCTPConfig(interleaving=False),
    )
    assoc = s0.association(aid)
    assert assoc.interleaving_active is False
    s0.sendmsg(aid, 1, RealBlob(b"plain old data"))
    kernel.run(until=kernel.now + 1 * SECOND)
    msg = s1.recvmsg()
    assert msg is not None and msg.data.to_bytes() == b"plain old data"
    assert assoc.stats.idata_chunks_sent == 0
    server_assoc = next(iter(s1._assocs.values()))
    assert server_assoc.interleaving_active is False


def test_negotiated_interleaving_uses_idata_both_ways():
    kernel, cluster = make_cluster()
    cfg = SCTPConfig(interleaving=True)
    s0, s1, aid = _pair(kernel, cluster, cfg, cfg)
    assoc = s0.association(aid)
    server_assoc = next(iter(s1._assocs.values()))
    assert assoc.interleaving_active is True
    assert server_assoc.interleaving_active is True

    big = bytes(range(256)) * 64  # 16 KiB: fragments under default PMTU
    s0.sendmsg(aid, 0, RealBlob(big))
    s0.sendmsg(aid, 1, RealBlob(b"small"))
    kernel.run(until=kernel.now + 1 * SECOND)
    got = {}
    while True:
        msg = s1.recvmsg()
        if msg is None:
            break
        got[msg.stream] = msg.data.to_bytes()
    assert got == {0: big, 1: b"small"}
    assert assoc.stats.idata_chunks_sent > 1
    assert server_assoc.stats.idata_chunks_received == assoc.stats.idata_chunks_sent

    # reply direction uses I-DATA too (cookie carries the negotiation)
    s1.sendmsg(server_assoc.assoc_id, 2, RealBlob(b"reply"))
    kernel.run(until=kernel.now + 1 * SECOND)
    msg = s0.recvmsg()
    assert msg is not None and msg.data.to_bytes() == b"reply"
    assert server_assoc.stats.idata_chunks_sent >= 1


def test_rr_scheduler_interleaves_small_past_bulk():
    """The subsystem's point: with I-DATA + round-robin, a small message
    queued *behind* a large one on another stream arrives first."""
    kernel, cluster = make_cluster()
    cfg = SCTPConfig(interleaving=True, scheduler="rr")
    s0, s1, aid = _pair(kernel, cluster, cfg, cfg)
    assoc = s0.association(aid)

    bulk = b"B" * 60_000
    s0.sendmsg(aid, 0, RealBlob(bulk))
    s0.sendmsg(aid, 1, RealBlob(b"urgent"))
    kernel.run(until=kernel.now + 1 * SECOND)
    arrivals = []
    while True:
        msg = s1.recvmsg()
        if msg is None:
            break
        arrivals.append((msg.stream, msg.nbytes))
    assert arrivals == [(1, 6), (0, 60_000)]
    assert assoc.stats.messages_interleaved > 0


def test_fcfs_keeps_send_order_even_with_idata():
    kernel, cluster = make_cluster()
    cfg = SCTPConfig(interleaving=True, scheduler="fcfs")
    s0, s1, aid = _pair(kernel, cluster, cfg, cfg)

    bulk = b"B" * 60_000
    s0.sendmsg(aid, 0, RealBlob(bulk))
    s0.sendmsg(aid, 1, RealBlob(b"urgent"))
    kernel.run(until=kernel.now + 1 * SECOND)
    arrivals = []
    while True:
        msg = s1.recvmsg()
        if msg is None:
            break
        arrivals.append(msg.stream)
    assert arrivals == [0, 1]
