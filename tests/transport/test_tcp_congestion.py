"""NewReno arithmetic unit tests + end-to-end cwnd behaviour."""

from repro.transport.tcp import NewRenoState

from ..conftest import make_cluster, tcp_pair
from .test_tcp_connection import transfer

MSS = 1448


def test_initial_window_three_segments():
    cc = NewRenoState(MSS)
    assert cc.cwnd == 3 * MSS
    assert cc.cwnd < cc.ssthresh  # in slow start


def test_slow_start_grows_per_ack():
    cc = NewRenoState(MSS)
    start = cc.cwnd
    cc.on_new_ack(MSS)
    assert cc.cwnd == start + MSS
    cc.on_new_ack(500)  # growth capped at bytes actually acked
    assert cc.cwnd == start + MSS + 500


def test_congestion_avoidance_linear():
    cc = NewRenoState(MSS)
    cc.ssthresh = 2 * MSS  # force CA
    grown = 0
    for _ in range(10):
        before = cc.cwnd
        cc.on_new_ack(MSS)
        grown += cc.cwnd - before
    # ~MSS^2/cwnd per ack: far less than slow start's MSS per ack
    assert 0 < grown < 10 * MSS // 2


def test_fast_recovery_cycle():
    cc = NewRenoState(MSS)
    cc.cwnd = 20 * MSS
    cc.ssthresh = 100 * MSS
    cc.enter_fast_recovery(flight_size=20 * MSS, highest_out=12345)
    assert cc.in_recovery and cc.recover == 12345
    assert cc.ssthresh == 10 * MSS
    assert cc.cwnd == 13 * MSS  # ssthresh + 3 dupacks
    cc.on_dupack_in_recovery()
    assert cc.cwnd == 14 * MSS
    cc.on_partial_ack(4 * MSS)
    assert cc.cwnd == 11 * MSS  # deflate by acked, re-inflate one MSS
    cc.exit_recovery()
    assert not cc.in_recovery and cc.cwnd == 10 * MSS


def test_timeout_resets_to_one_segment():
    cc = NewRenoState(MSS)
    cc.cwnd = 30 * MSS
    cc.on_timeout(flight_size=30 * MSS)
    assert cc.cwnd == MSS
    assert cc.ssthresh == 15 * MSS
    assert cc.timeouts == 1


def test_ssthresh_floor_two_segments():
    cc = NewRenoState(MSS)
    cc.on_timeout(flight_size=MSS)
    assert cc.ssthresh == 2 * MSS


def test_end_to_end_cwnd_opens_during_bulk_transfer():
    kernel, cluster = make_cluster()
    client, server, _ = tcp_pair(kernel, cluster)
    transfer(client, server, kernel, b"a" * 400_000)
    assert client.conn.cc.cwnd > 20 * MSS  # window opened well past initial


def test_end_to_end_loss_halves_window():
    kernel, cluster = make_cluster(loss_rate=0.01, seed=9)
    client, server, _ = tcp_pair(kernel, cluster)
    transfer(client, server, kernel, b"b" * 400_000)
    assert client.conn.cc.fast_retransmits + client.conn.cc.timeouts > 0
    # after loss events, ssthresh must have been pulled down from "infinite"
    assert client.conn.cc.ssthresh < (1 << 30)
