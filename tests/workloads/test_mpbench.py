"""MPBench ping-pong workload sanity."""

import pytest

from repro.workloads.mpbench import run_pingpong

LIMIT = 2_000_000_000_000
BOTH = pytest.mark.parametrize("rpi", ["tcp", "sctp"])


@BOTH
def test_pingpong_basic_metrics(rpi):
    r = run_pingpong(8192, iterations=10, limit_ns=LIMIT, rpi=rpi, seed=1)
    assert r.message_size == 8192
    assert r.elapsed_ns > 0
    assert r.throughput_bytes_per_s > 0
    assert r.round_trip_s > 0


@BOTH
def test_throughput_grows_with_message_size(rpi):
    small = run_pingpong(1024, iterations=10, limit_ns=LIMIT, rpi=rpi, seed=1)
    large = run_pingpong(65536, iterations=10, limit_ns=LIMIT, rpi=rpi, seed=1)
    assert large.throughput_bytes_per_s > 2 * small.throughput_bytes_per_s


@BOTH
def test_loss_reduces_throughput(rpi):
    clean = run_pingpong(30 * 1024, iterations=20, limit_ns=LIMIT, rpi=rpi, seed=2)
    lossy = run_pingpong(
        30 * 1024, iterations=20, limit_ns=LIMIT, rpi=rpi, loss_rate=0.02, seed=2
    )
    assert lossy.throughput_bytes_per_s < clean.throughput_bytes_per_s


def test_pingpong_ignores_extra_ranks():
    r = run_pingpong(4096, iterations=5, limit_ns=LIMIT, n_procs=4, rpi="sctp", seed=1)
    assert r.elapsed_ns > 0  # ranks 2,3 idle without deadlocking the run


def test_deterministic_given_seed():
    a = run_pingpong(16384, iterations=10, limit_ns=LIMIT, rpi="sctp", loss_rate=0.02, seed=5)
    b = run_pingpong(16384, iterations=10, limit_ns=LIMIT, rpi="sctp", loss_rate=0.02, seed=5)
    assert a.elapsed_ns == b.elapsed_ns
