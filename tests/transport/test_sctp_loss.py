"""SCTP loss recovery: SACK gaps, fast retransmit, T3, integrity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyze.sanitize import sanitized
from repro.faults.impairments import copy_packet
from repro.simkernel import SECOND
from repro.util.blobs import RealBlob

from ..conftest import make_cluster, sctp_pair
from .test_sctp_transfer import pump_messages


def test_integrity_under_loss_with_fast_retransmit():
    kernel, cluster = make_cluster(loss_rate=0.02, seed=4)
    s0, s1, aid = sctp_pair(kernel, cluster)
    bodies = [bytes([i % 251]) * (3_000 + 101 * i) for i in range(30)]
    sent = 0
    deadline = kernel.now + 300 * SECOND

    async def sender():
        nonlocal sent
        while sent < len(bodies):
            if s0.sendmsg(aid, sent % 10, RealBlob(bodies[sent])):
                sent += 1
            else:
                await kernel.sleep(1_000_000)

    kernel.spawn(sender())
    msgs = pump_messages(kernel, s1, len(bodies), limit_s=300)
    received = sorted(m.data.to_bytes() for m in msgs)
    assert received == sorted(bodies)
    stats = s0.association(aid).stats
    assert stats.retransmitted_chunks > 0
    assert stats.fast_retransmits > 0


def test_per_stream_order_holds_under_loss():
    kernel, cluster = make_cluster(loss_rate=0.03, seed=9)
    s0, s1, aid = sctp_pair(kernel, cluster)
    for i in range(24):
        assert s0.sendmsg(aid, i % 4, RealBlob(bytes([i]) * 2000))
    msgs = pump_messages(kernel, s1, 24, limit_s=300)
    per_stream = {}
    for m in msgs:
        per_stream.setdefault(m.stream, []).append(m.ssn)
    for sids in per_stream.values():
        assert sids == sorted(sids)  # SSN order per stream, no gaps skipped
    assert sum(len(v) for v in per_stream.values()) == 24


def _unordered_bulk(seed):
    kernel, cluster = make_cluster(loss_rate=0.05, seed=seed)
    s0, s1, aid = sctp_pair(kernel, cluster)
    for i in range(40):
        assert s0.sendmsg(aid, 0, RealBlob(bytes([i]) * 4000), unordered=True)
    msgs = pump_messages(kernel, s1, 40, limit_s=600)
    # retransmitted fragments land between those of later messages, and
    # every message of the stream is unordered: none may swallow another
    assert sorted(m.data.to_bytes() for m in msgs) == [
        bytes([i]) * 4000 for i in range(40)
    ]
    server_assoc = next(iter(s1._assocs.values()))
    assert server_assoc.inbound.buffered_bytes == 0


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_unordered_fragmented_messages_survive_loss(seed):
    _unordered_bulk(seed)


def test_unordered_fragmented_messages_survive_loss_sanitized():
    with sanitized():
        _unordered_bulk(1)


def test_duplicate_tsns_detected_not_delivered_twice():
    kernel, cluster = make_cluster(seed=2)
    s0, s1, aid = sctp_pair(kernel, cluster)
    # duplicate every data packet on the wire
    pipe = cluster.pipe_for(0)
    sink = pipe.sink

    def duplicator(pkt):
        # a duplicate is a distinct wire datagram
        dup = None
        if pkt.proto == "sctp" and pkt.payload.data_chunks():
            dup = copy_packet(pkt)
        sink(pkt)
        if dup is not None:
            sink(dup)

    pipe.sink = duplicator
    for i in range(5):
        s0.sendmsg(aid, 0, RealBlob(b"msg%d" % i))
    msgs = pump_messages(kernel, s1, 5)
    assert len(msgs) == 5
    kernel.run(until=kernel.now + 2 * SECOND)
    server_assoc = next(iter(s1._assocs.values()))
    assert server_assoc.stats.duplicate_tsns > 0
    assert server_assoc.stats.messages_delivered == 5


def test_tail_loss_repaired_by_t3():
    kernel, cluster = make_cluster(seed=1)
    s0, s1, aid = sctp_pair(kernel, cluster)
    # drop the very last data packet of the burst once
    pipe = cluster.pipe_for(0)
    sink = pipe.sink
    state = {"seen": 0}

    def drop_fourth(pkt):
        if pkt.proto == "sctp" and pkt.payload.data_chunks():
            state["seen"] += 1
            if state["seen"] == 4:
                return
        sink(pkt)

    pipe.sink = drop_fourth
    body = b"t" * 5_000  # 4 chunks; the last one is dropped
    s0.sendmsg(aid, 0, RealBlob(body))
    msgs = pump_messages(kernel, s1, 1, limit_s=60)
    assert msgs[0].data.to_bytes() == body
    assert s0.association(aid).stats.rto_events >= 1


def test_gap_ack_blocks_reported():
    kernel, cluster = make_cluster(loss_rate=0.05, seed=6)
    s0, s1, aid = sctp_pair(kernel, cluster)
    for _ in range(20):
        s0.sendmsg(aid, 0, RealBlob(b"x" * 4000))
    pump_messages(kernel, s1, 20, limit_s=300)
    assert s0.association(aid).stats.sacks_received > 0
    server_assoc = next(iter(s1._assocs.values()))
    assert server_assoc.stats.sacks_sent > 0


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_integrity_for_arbitrary_loss_patterns(seed):
    """Property: any seeded 4% loss pattern — every message arrives intact,
    exactly once, per-stream in order."""
    kernel, cluster = make_cluster(loss_rate=0.04, seed=seed)
    s0, s1, aid = sctp_pair(kernel, cluster)
    bodies = [bytes([(i * 13 + seed) % 256]) * (500 + 700 * i) for i in range(12)]
    for i, body in enumerate(bodies):
        assert s0.sendmsg(aid, i % 3, RealBlob(body))
    msgs = pump_messages(kernel, s1, len(bodies), limit_s=600)
    assert sorted(m.data.to_bytes() for m in msgs) == sorted(bodies)
    per_stream = {}
    for m in msgs:
        per_stream.setdefault(m.stream, []).append(m.ssn)
    assert all(v == sorted(v) for v in per_stream.values())
