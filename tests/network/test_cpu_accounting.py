"""CPU accounting posts no kernel events (DESIGN §9.3).

``HostCPU.charge`` is FIFO arithmetic: the job's completion time is fixed
when it is submitted, and later jobs queue behind it.  It used to post a
no-op completion event as well.  Each world below runs twice -- as is,
and with a ``charge`` that posts that no-op again -- and must produce the
same rank results, RPI counters, per-connection and per-association
counters, host CPU time, end clock and schedule-insensitive metrics.
Only the event count may drop, by exactly the no-ops that fired.
"""

from dataclasses import asdict

import pytest

from repro.analyze.perturb import filter_schedule_sensitive
from repro.bench.harness import run_sweep_cell
from repro.core.world import World, WorldConfig
from repro.metrics import MetricsCollector
from repro.network.host import HostCPU
from repro.simkernel import Kernel
from repro.workloads.farm import FarmParams, make_farm
from repro.workloads.mpbench import make_pingpong

LIMIT = 10**15

_FARM = FarmParams(
    num_tasks=40, task_size=30 * 1024, max_work_tags=10,
    outstanding_requests=10, fanout=10,
)


def _world_run(app, **config):
    def run():
        return World(WorldConfig(**config)).run(app(), limit_ns=LIMIT).results
    return run


def _cell(name, params):
    def run():
        return [row.to_jsonable() for row in run_sweep_cell(name, params)]
    return run


RUNS = {
    "pingpong_16k_tcp": _world_run(
        lambda: make_pingpong(16 * 1024, 50), n_procs=2, rpi="tcp", seed=1,
    ),
    "pingpong_16k_sctp": _world_run(
        lambda: make_pingpong(16 * 1024, 50), n_procs=2, rpi="sctp", seed=1,
    ),
    "farm_lossy_tcp": _world_run(
        lambda: make_farm(_FARM), n_procs=4, rpi="tcp", seed=1, loss_rate=0.01,
        num_streams=10,
    ),
    "farm_lossy_sctp": _world_run(
        lambda: make_farm(_FARM), n_procs=4, rpi="sctp", seed=1, loss_rate=0.01,
        num_streams=10,
    ),
    "interleave_rr": _cell(
        "interleave", {"protocol": "sctp", "interleaving": "on", "scheduler": "rr"},
    ),
    "failover": _cell("failover", {}),
}


def _world_outputs(world):
    return {
        "rpi_stats": [asdict(proc.rpi.stats) for proc in world.processes],
        "transport_stats": [
            [
                asdict(s)
                for s in (
                    ep._all_conn_stats if world.config.rpi == "tcp" else ep._all_assoc_stats
                )
            ]
            for ep in world.endpoints
        ],
        "cpu_busy_ns": [host.cpu.total_busy_ns for host in world.cluster.hosts],
        "now": world.kernel.now,
        "metrics": filter_schedule_sensitive(world.metrics.snapshot()),
    }


def _run(name, patch):
    worlds = []
    init = World.__init__

    def init_recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        worlds.append(self)

    patch.setattr(World, "__init__", init_recorded)
    with MetricsCollector():
        results = RUNS[name]()
    outputs = {
        "results": repr(results),
        "worlds": [_world_outputs(world) for world in worlds],
    }
    return outputs, sum(world.kernel.events_processed for world in worlds)


def _post_noop_completions(patch):
    """Make ``charge`` post a no-op completion, as it once did, and count
    the ones that fire; ``execute`` kept its own arithmetic then, so it
    posts its callback alone."""
    fired = [0]
    arithmetic = HostCPU.charge

    def noop():
        fired[0] += 1

    def charge_posting_noop(cpu, cost_ns):
        done = arithmetic(cpu, cost_ns)
        if done != cpu.kernel._now:
            cpu.kernel.post_at(done, noop)
        return done

    def execute_without_noop(cpu, cost_ns, fn, *args):
        done = arithmetic(cpu, cost_ns)
        if done == cpu.kernel._now:
            fn(*args)
        else:
            cpu.kernel.post_at(done, fn, *args)
        return done

    patch.setattr(HostCPU, "charge", charge_posting_noop)
    patch.setattr(HostCPU, "execute", execute_without_noop)
    return fired


@pytest.mark.parametrize("name", sorted(RUNS))
def test_charge_events_move_nothing_but_the_event_count(name, monkeypatch):
    with monkeypatch.context() as patch:
        arithmetic, arithmetic_events = _run(name, patch)
    with monkeypatch.context() as patch:
        fired = _post_noop_completions(patch)
        posting, posting_events = _run(name, patch)
    assert arithmetic == posting
    assert fired[0] > 0
    assert posting_events - arithmetic_events == fired[0]


def test_charge_is_fifo_arithmetic():
    kernel = Kernel()
    cpu = HostCPU(kernel)
    assert cpu.charge(100) == 100
    assert cpu.charge(50) == 150  # queues behind the first job
    assert cpu.execute(0, lambda: None) == 150
    assert cpu.total_busy_ns == 150
    assert kernel.pending_events() == 1 and len(kernel._heap) == 1  # execute's only
    with pytest.raises(ValueError):
        cpu.charge(-1)
