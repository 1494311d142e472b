"""Acceptance: a multi-second mid-run primary-path blackhole, both stacks.

SCTP must fail over to the alternate path (path supervision declares
path 0 INACTIVE, retransmissions migrate) and resume delivery about one
min-RTO after the hole opens; TCP has no alternate path and must sit
through RTO exponential backoff until the hole closes.  Same-seed runs
must produce byte-identical metrics snapshots even with the fault armed.
"""

import json

import pytest

from repro.core.world import World, WorldConfig
from repro.faults import DeliveryWatch, primary_blackhole
from repro.metrics import MetricsCollector
from repro.simkernel import MILLISECOND, SECOND
from repro.transport.sctp import SCTPConfig
from repro.workloads.mpbench import make_pingpong

HOLE_START = 3 * MILLISECOND
# long enough for path supervision to accumulate path_max_retrans + 1
# timer errors (T3 backoff doubles: ~1 s, ~3 s after the hole opens)
HOLE_NS = 5 * SECOND
LIMIT_NS = 120 * SECOND


def run_blackhole(rpi, seed=1):
    config = WorldConfig(
        n_procs=2,
        rpi=rpi,
        seed=seed,
        n_paths=2,
        # tuned failure detection, as §3.5.1 recommends for MPI
        sctp_config=SCTPConfig(
            path_max_retrans=1, heartbeat_interval_ns=2 * SECOND
        ),
        scenario=primary_blackhole(HOLE_START, HOLE_NS),
    )
    world = World(config)
    watch = DeliveryWatch(rpi, fault_start_ns=HOLE_START)
    watch.attach(world.cluster.hosts)
    result = world.run(make_pingpong(30 * 1024, 20), limit_ns=LIMIT_NS)
    return world, watch, result


@pytest.fixture(scope="module")
def sctp_run():
    return run_blackhole("sctp")


@pytest.fixture(scope="module")
def tcp_run():
    return run_blackhole("tcp")


def test_sctp_fails_over(sctp_run):
    world, watch, result = sctp_run
    assert result.results[0] is not None, "run must complete despite the hole"
    totals = [ep.total_stats() for ep in world.endpoints]
    assert sum(t.failovers for t in totals) > 0, (
        "retransmissions must migrate to the alternate path"
    )
    assert sum(t.path_failures for t in totals) > 0, (
        "path supervision must declare the blackholed path INACTIVE"
    )
    assert sum(t.heartbeats_sent for t in totals) > 0, (
        "heartbeats must be probing the paths"
    )
    # failover needs one T3 expiry (min RTO 1 s) to notice the dead path
    assert watch.recovery_ns is not None
    assert 0 < watch.recovery_ns < 2 * SECOND


def test_tcp_stalls_through_backoff(tcp_run):
    world, watch, result = tcp_run
    assert result.results[0] is not None, "the hole closes; TCP must finish"
    totals = [ep.total_stats() for ep in world.endpoints]
    assert sum(t.rto_events for t in totals) > 0, (
        "single-homed TCP can only retransmit into the hole and back off"
    )
    # the application-visible outage covers the whole 2 s hole (plus the
    # last backed-off RTO overshooting the hole's end)
    assert watch.max_gap_ns >= HOLE_NS


def test_sctp_recovers_faster_than_tcp(sctp_run, tcp_run):
    _, sctp_watch, sctp_result = sctp_run
    _, tcp_watch, tcp_result = tcp_run
    assert sctp_watch.recovery_ns < tcp_watch.recovery_ns
    assert sctp_result.duration_ns < tcp_result.duration_ns


@pytest.mark.parametrize("rpi", ["sctp", "tcp"])
def test_same_seed_metrics_byte_identical(rpi):
    def snapshot():
        with MetricsCollector() as collector:
            world, _, _ = run_blackhole(rpi, seed=7)
        return json.dumps(collector.runs, sort_keys=True)

    first, second = snapshot(), snapshot()
    assert "faults.blackhole" in first, "scenario probes must be exported"
    assert first == second
