"""TCP loss recovery: fast retransmit, SACK, RTO, integrity under loss."""

from hypothesis import given, settings, strategies as st

from repro.simkernel import SECOND

from ..conftest import make_cluster, tcp_pair
from .test_tcp_connection import transfer


def test_integrity_and_fast_retransmit_under_loss():
    kernel, cluster = make_cluster(loss_rate=0.01, seed=3)
    client, server, _ = tcp_pair(kernel, cluster)
    data = bytes(range(256)) * 4000  # 1 MB
    assert transfer(client, server, kernel, data) == data
    stats = client.conn.stats
    assert stats.retransmitted_segments > 0
    assert stats.fast_retransmits > 0  # mid-stream losses repaired quickly


def test_sack_scoreboard_avoids_spurious_retransmits():
    kernel, cluster = make_cluster(loss_rate=0.02, seed=5)
    client, server, _ = tcp_pair(kernel, cluster)
    data = b"q" * 500_000
    assert transfer(client, server, kernel, data) == data
    stats = client.conn.stats
    drops = sum(p.dropped_packets for p in cluster.pipes.values())
    # with SACK, retransmissions stay in the same ballpark as actual drops
    assert stats.retransmitted_segments < 3 * drops + 10
    assert stats.sacked_ranges > 0


def test_tail_loss_needs_rto():
    """Drop the final data segment: no dupacks can follow, so only the
    (coarse BSD) retransmission timer can repair it."""
    kernel, cluster = make_cluster(seed=1)
    client, server, _ = tcp_pair(kernel, cluster)

    dropped = {"armed": True}
    pipe = cluster.pipes["h0p0"]
    original_sink = pipe.sink

    def drop_last(packet):
        seg = packet.payload
        if (
            dropped["armed"]
            and packet.proto == "tcp"
            and getattr(seg, "data_len", 0) > 0
            and seg.data_len < 1448  # the short tail segment
        ):
            dropped["armed"] = False
            return
        original_sink(packet)

    pipe.sink = drop_last
    data = b"m" * 10_000  # 6 full segments + a tail
    start = kernel.now
    assert transfer(client, server, kernel, data) == data
    elapsed = kernel.now - start
    assert client.conn.stats.rto_events >= 1
    assert elapsed >= 1 * SECOND  # BSD minimum RTO dominated the transfer


def test_rto_collapses_cwnd():
    kernel, cluster = make_cluster(seed=1)
    client, server, _ = tcp_pair(kernel, cluster)
    transfer(client, server, kernel, b"x" * 300_000)
    grown = client.conn.cc.cwnd
    assert grown > 10 * 1448
    client.conn.cc.on_timeout(flight_size=grown)
    assert client.conn.cc.cwnd == 1448


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_integrity_for_arbitrary_loss_patterns(seed):
    """Property: whatever the (seeded) loss pattern at 3%, the byte stream
    is delivered exactly, in order."""
    kernel, cluster = make_cluster(loss_rate=0.03, seed=seed)
    client, server, _ = tcp_pair(kernel, cluster)
    data = bytes((i * 7 + seed) % 256 for i in range(200_000))
    assert transfer(client, server, kernel, data) == data
