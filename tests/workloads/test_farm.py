"""Bulk Processor Farm: correctness across protocols, loss, fanout."""

import pytest

from repro.workloads.farm import FarmParams, run_farm

LIMIT = 30_000_000_000_000
BOTH = pytest.mark.parametrize("rpi", ["tcp", "sctp"])


def small(num_tasks=60, fanout=1, task_size=30 * 1024):
    return FarmParams(
        num_tasks=num_tasks,
        task_size=task_size,
        fanout=fanout,
        compute_seconds_per_task=0.002,
    )


@BOTH
def test_all_tasks_complete(rpi):
    r = run_farm(small(), limit_ns=LIMIT, rpi=rpi, seed=1)
    assert r.tasks_done == 60
    assert sum(r.per_worker_tasks.values()) == 60


@BOTH
def test_all_tasks_complete_under_loss(rpi):
    r = run_farm(small(), limit_ns=LIMIT, rpi=rpi, loss_rate=0.02, seed=2)
    assert r.tasks_done == 60


@BOTH
@pytest.mark.parametrize("fanout", [1, 3, 10])
def test_fanout_variants(rpi, fanout):
    r = run_farm(small(num_tasks=50, fanout=fanout), limit_ns=LIMIT, rpi=rpi, seed=3)
    assert r.tasks_done == 50


def test_fanout_under_loss_with_streams_and_without():
    params = small(num_tasks=40, fanout=10)
    for streams in (10, 1):
        r = run_farm(
            params, limit_ns=LIMIT, rpi="sctp", loss_rate=0.02, seed=4, num_streams=streams
        )
        assert r.tasks_done == 40


def test_long_tasks():
    r = run_farm(small(num_tasks=20, task_size=300 * 1024), limit_ns=LIMIT, rpi="sctp", seed=5)
    assert r.tasks_done == 20


def test_work_is_distributed_across_workers():
    r = run_farm(small(num_tasks=70), limit_ns=LIMIT, rpi="sctp", seed=6)
    busy_workers = [w for w, n in r.per_worker_tasks.items() if n > 0]
    assert len(busy_workers) == 7  # every worker got something


def test_tcp_degrades_more_than_sctp_under_loss():
    """The paper's headline at workload scale (Fig. 10's direction)."""
    params = small(num_tasks=150, fanout=1)
    tcp = run_farm(params, limit_ns=LIMIT, rpi="tcp", loss_rate=0.02, seed=1)
    sctp = run_farm(params, limit_ns=LIMIT, rpi="sctp", loss_rate=0.02, seed=1)
    assert tcp.elapsed_s > 1.5 * sctp.elapsed_s


def test_two_process_farm_edge_case():
    # one manager, one worker
    r = run_farm(small(num_tasks=25), limit_ns=LIMIT, rpi="sctp", n_procs=2, seed=7)
    assert r.tasks_done == 25
    assert r.per_worker_tasks == {1: 25}
