"""Writable wake-ups of the SCTP RPI are an optimisation only (DESIGN §9.4).

A SACK that frees send-buffer room fires ``on_writable``.  The SCTP RPI
wakes its rank for it only while some ``(rank, stream)`` queue holds a
unit: with every queue empty the pump has nothing to send, and inbound
data wakes the rank through ``on_readable``.  Each world below runs twice
-- with that gate, and waking on every writable notification as the
previous commit did -- and must produce the same ranks' results, units,
kernel events and association counters; only progression steps may drop.
"""

from dataclasses import asdict

import pytest

from repro.core.rpi.sctp_rpi import SCTPRPI
from repro.core.world import World, WorldConfig
from repro.workloads.farm import FarmParams, make_farm
from repro.workloads.halo import make_halo
from repro.workloads.interleave_mix import make_interleave_mix
from repro.workloads.mpbench import make_pingpong

WORLDS = {
    "halo_8x2pods": (
        dict(n_procs=8, n_pods=2, seed=1),
        lambda: make_halo(128 * 1024, 3),
    ),
    "farm_4_lossy": (
        dict(n_procs=4, loss_rate=0.01, seed=1),
        lambda: make_farm(FarmParams(num_tasks=40, fanout=10)),
    ),
    "interleave_rr": (
        dict(n_procs=2, seed=1, eager_limit=192 * 1024, interleaving=True, scheduler="rr"),
        lambda: make_interleave_mix(128 * 1024, 1024, rounds=4, bulks_per_round=2),
    ),
    "pingpong_16k": (
        dict(n_procs=2, seed=1),
        lambda: make_pingpong(16 * 1024, 50),
    ),
}


def _run(name):
    config, app = WORLDS[name]
    world = World(WorldConfig(rpi="sctp", **config))
    result = world.run(app())
    stats = [proc.rpi.stats for proc in world.processes]
    outputs = {
        "results": result.results,
        "units_sent": [s.units_sent for s in stats],
        "events": world.kernel.events_processed,
        "assoc_stats": [asdict(ep.total_stats()) for ep in world.sctp_endpoints],
    }
    return outputs, [s.advance_calls for s in stats]


def _always_woken(monkeypatch):
    # the gate reads the RPI's queued-unit count and nothing else does:
    # a count that always reads 1 wakes the rank on every notification
    monkeypatch.setattr(
        SCTPRPI, "_queued_units", property(lambda self: 1, lambda self, _v: None),
        raising=False,
    )


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_gate_moves_nothing_but_progression_steps(name, monkeypatch):
    gated, gated_steps = _run(name)
    with monkeypatch.context() as patch:
        _always_woken(patch)
        woken, woken_steps = _run(name)
    assert gated == woken
    assert all(g <= w for g, w in zip(gated_steps, woken_steps))
    if name == "halo_8x2pods":
        assert sum(gated_steps) < sum(woken_steps)
