"""Mixed small/large workload: the RFC 8260 latency claim, end to end."""

import pytest

from repro.transport.sctp import SCTPConfig
from repro.workloads.interleave_mix import run_interleave_mix

LIMIT = 2_000_000_000_000
BOTH = pytest.mark.parametrize("rpi", ["tcp", "sctp"])


@BOTH
def test_mix_basic_metrics(rpi):
    r = run_interleave_mix(rounds=3, limit_ns=LIMIT, rpi=rpi, seed=1)
    assert r.rounds == 3
    assert len(r.small_latency_ns) == 3
    assert r.small_latency_mean_ns > 0
    assert r.small_latency_max_ns >= r.small_latency_mean_ns
    assert r.bulk_throughput_mbps > 0
    assert r.elapsed_ns > 0


def test_interleaving_with_rr_cuts_small_latency():
    """The subsystem's acceptance claim: I-DATA + a non-FCFS scheduler
    improves small-message latency under concurrent bulk, at no bulk
    throughput cost worth mentioning."""
    base = run_interleave_mix(
        limit_ns=LIMIT, rpi="sctp", seed=1,
        sctp_config=SCTPConfig(interleaving=False, scheduler="fcfs"),
    )
    idata = run_interleave_mix(
        limit_ns=LIMIT, rpi="sctp", seed=1,
        sctp_config=SCTPConfig(interleaving=True, scheduler="rr"),
    )
    assert idata.small_latency_mean_ns < base.small_latency_mean_ns
    assert idata.small_latency_max_ns < base.small_latency_max_ns
    assert idata.bulk_throughput_mbps > 0.9 * base.bulk_throughput_mbps


def test_interleaving_off_matches_legacy_virtual_time():
    """interleaving=False + fcfs must be the legacy wire schedule — the
    same run with the flags at their defaults lands on the identical
    virtual-time result."""
    default = run_interleave_mix(rounds=3, limit_ns=LIMIT, rpi="sctp", seed=1)
    explicit = run_interleave_mix(
        rounds=3, limit_ns=LIMIT, rpi="sctp", seed=1,
        sctp_config=SCTPConfig(interleaving=False, scheduler="fcfs"),
    )
    assert default.elapsed_ns == explicit.elapsed_ns
    assert default.small_latency_ns == explicit.small_latency_ns


@BOTH
def test_bulk_above_the_sctp_message_limit_runs(rpi):
    """The raised eager limit stops at the SCTP RPI's sctp_sendmsg limit,
    so a 256 KiB bulk goes rendezvous in eager-limit pieces on both
    stacks instead of failing at world construction."""
    from repro.bench.harness import run_sweep_cell

    [row] = run_sweep_cell("interleave", {
        "protocol": rpi, "interleaving": "off", "scheduler": "fcfs",
        "bulk_kib": 256, "rounds": 1,
    })
    assert row.measured["small_us"] > 0 and row.measured["bulk_MBps"] > 0


def test_eager_limit_stops_at_the_worlds_sctp_config():
    """The cap is read from the world's own sctp_config: a 64 KiB send
    buffer caps the default 128 KiB bulk's eager limit below it."""
    r = run_interleave_mix(
        rounds=1, limit_ns=LIMIT, rpi="sctp", sctp_config=SCTPConfig(sndbuf=64 * 1024),
    )
    assert len(r.small_latency_ns) == 1 and r.bulk_throughput_mbps > 0
