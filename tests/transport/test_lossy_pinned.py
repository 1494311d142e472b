"""Lossy worlds pinned to the numbers of the commit before timer fusion.

The restartable protocol timers and the one-event link hop are pure
simulator speed-ups: under 1 % Dummynet loss, where retransmission,
delayed-ACK/SACK and T3 timers all run and same-instant ties between
connections decide which packet a shared loss pipe eats, every rank must
still return exactly what it returned with ``cancel(); call_after()``
timers and two-event links.  Values below were produced by that commit.
"""

import pytest

from repro.core.world import World, WorldConfig
from repro.workloads.farm import FarmParams, make_farm
from repro.workloads.mpbench import make_pingpong

# (rpi, seed) -> per-rank elapsed ns of a 30 KiB x 40 ping-pong
PINGPONG = {
    ("tcp", 1): [1051848822, 1051732575],
    ("tcp", 2): [7056798461, 7056824181],
    ("tcp", 3): [4057273363, 4057115094],
    ("sctp", 1): [1245407132, 1245398970],
    ("sctp", 2): [6249584224, 7249632894],
    ("sctp", 3): [2047520866, 2047484704],
}

# (rpi, seed) -> manager's elapsed ns and tasks per worker: 4 ranks,
# 40 tasks x 30 KiB, fanout 10 (three connections per host, so RTO and
# delayed-ACK timers of different connections expire at the same instant)
FARM = {
    ("tcp", 1): (3000038347, {1: 40, 2: 0, 3: 0}),
    ("tcp", 2): (184537540, {1: 40, 2: 0, 3: 0}),
    ("tcp", 3): (183677399, {1: 40, 2: 0, 3: 0}),
    ("sctp", 1): (97550546, {1: 20, 2: 10, 3: 10}),
    ("sctp", 2): (98262841, {1: 20, 2: 10, 3: 10}),
    ("sctp", 3): (140426852, {1: 30, 2: 10, 3: 0}),
}


@pytest.mark.parametrize("rpi,seed", sorted(PINGPONG))
def test_lossy_pingpong_rank_results_pinned(rpi, seed):
    world = World(WorldConfig(n_procs=2, rpi=rpi, loss_rate=0.01, seed=seed))
    result = world.run(make_pingpong(30 * 1024, 40))
    assert result.results == PINGPONG[(rpi, seed)]


@pytest.mark.parametrize("rpi,seed", sorted(FARM))
def test_lossy_farm_results_pinned(rpi, seed):
    world = World(WorldConfig(n_procs=4, rpi=rpi, loss_rate=0.01, seed=seed))
    result = world.run(make_farm(FarmParams(num_tasks=40, fanout=10)))
    manager = result.results[0]
    assert (manager.elapsed_ns, manager.per_worker_tasks) == FARM[(rpi, seed)]
