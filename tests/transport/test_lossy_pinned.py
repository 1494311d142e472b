"""Lossy worlds pinned to the numbers of the commit before timer fusion.

The restartable protocol timers and the one-event link hop are pure
simulator speed-ups: under 1 % Dummynet loss, where retransmission,
delayed-ACK/SACK and T3 timers all run and same-instant ties between
connections decide which packet a shared loss pipe eats, every rank must
still return exactly what it returned with ``cancel(); call_after()``
timers and two-event links.  Values below were produced by that commit.
"""

import pytest

from repro.analyze.sanitize import sanitized
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


# The ledger's farm_lossy world (8 ranks, 200 tasks x 30 KiB, fanout 10,
# ten streams, 1 % loss): the manager's send queues block on the send
# buffer throughout.  Pinned from the commit before the RPIs stopped
# attempting sends that cannot fit and rescanning request lists every
# step: (rpi, seed) -> manager elapsed ns, tasks per worker, and per
# rank units_sent / advance_calls -- a progression step that moved, or a
# send accepted at another instant, shows in every one of them.  The
# SCTP managers' advance_calls are lower than that commit's by exactly
# the steps whose pump could neither send nor read: the SCTP RPI is not
# woken by freed send room while all its queues are empty, nor (write
# readiness) while the room still cannot take the smallest head it
# refused.  Manager old -> new: seed 1 2,721 -> 460, seed 7 2,848 -> 461,
# seed 23 3,284 -> 461.  Every other value is that commit's.
BLOCKED_FARM = {
    ("tcp", 1): (
        3000121837,
        {1: 100, 2: 0, 3: 0, 4: 70, 5: 30, 6: 0, 7: 0},
        [300, 127, 17, 15, 93, 46, 13, 11],
        [2606, 1942, 25, 25, 1116, 510, 28, 40],
    ),
    ("tcp", 7): (
        3000668605,
        {1: 0, 2: 100, 3: 0, 4: 100, 5: 0, 6: 0, 7: 0},
        [300, 17, 127, 15, 126, 13, 13, 11],
        [2522, 23, 1682, 8, 1435, 32, 36, 39],
    ),
    ("tcp", 23): (
        3660836066,
        {1: 0, 2: 70, 3: 100, 4: 30, 5: 0, 6: 0, 7: 0},
        [300, 17, 94, 125, 49, 13, 13, 11],
        [2403, 23, 1332, 1530, 472, 32, 36, 28],
    ),
    ("sctp", 1): (
        282465127,
        {1: 60, 2: 50, 3: 40, 4: 20, 5: 20, 6: 10, 7: 0},
        [307, 84, 73, 60, 39, 36, 25, 12],
        [460, 71, 64, 54, 35, 17, 28, 26],
    ),
    ("sctp", 7): (
        1000704737,
        {1: 70, 2: 40, 3: 40, 4: 30, 5: 20, 6: 0, 7: 0},
        [307, 95, 62, 60, 50, 36, 14, 12],
        [461, 58, 53, 50, 47, 36, 26, 26],
    ),
    ("sctp", 23): (
        1276200315,
        {1: 60, 2: 50, 3: 40, 4: 30, 5: 20, 6: 0, 7: 0},
        [307, 84, 73, 60, 50, 36, 14, 12],
        [461, 69, 60, 51, 46, 36, 26, 26],
    ),
}


def _blocked_farm(rpi, seed):
    world = World(WorldConfig(
        n_procs=8, rpi=rpi, loss_rate=0.01, seed=seed, num_streams=10
    ))
    result = world.run(make_farm(FarmParams(num_tasks=200, fanout=10)))
    manager = result.results[0]
    stats = [proc.rpi.stats for proc in world.processes]
    return (
        manager.elapsed_ns,
        manager.per_worker_tasks,
        [s.units_sent for s in stats],
        [s.advance_calls for s in stats],
    )


@pytest.mark.parametrize("rpi,seed", sorted(BLOCKED_FARM))
def test_lossy_blocked_farm_pinned(rpi, seed):
    assert _blocked_farm(rpi, seed) == BLOCKED_FARM[(rpi, seed)]


def test_lossy_blocked_farm_sanitized():
    """Same bytes with every sanitizer armed, including the one that
    fails when sendmsg refuses a piece the RPI's send-room test admitted."""
    with sanitized():
        assert _blocked_farm("sctp", 1) == BLOCKED_FARM[("sctp", 1)]
