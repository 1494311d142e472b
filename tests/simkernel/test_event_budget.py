"""Packet-path event budget (DESIGN §9.3): counts only, no wall clock.

One packet costs four kernel events end to end — send CPU, uplink,
downlink, receive CPU — and nothing else: the middleware's per-call CPU
(``HostCPU.charge``) is FIFO arithmetic that posts no event.  Protocol
timers live in a heap a few dozen deep because restarts do not leave
dead entries behind.  Before the link hop was one event and timers
restartable these read 7.46 (TCP) and 6.11 (SCTP) events/packet and a
mean heap depth of 434-442; while ``charge`` still posted a no-op
completion they read 5.47 and 4.11.
"""

import pytest

from repro.core.world import World, WorldConfig
from repro.simkernel import kernel as kernel_mod
from repro.workloads.mpbench import make_pingpong

# measured 3.9955 / 3.9958; any event per packet beyond the four hops
# (an un-fused hop, a timer that re-posts per packet, a CPU charge that
# posts a completion) breaks the bound on either stack
EVENTS_PER_PACKET_MAX = {"tcp": 4.0, "sctp": 4.0}
BOTH_STACKS_MAX = 4.0  # measured 3.9956
HEAP_DEPTH_MEAN_MAX = 64  # measured 17-19


def _pingpong_counts(rpi):
    handles = []

    class CountedHandle(kernel_mod.RestartableTimer):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            handles.append(self)

    patch = pytest.MonkeyPatch()
    patch.setattr(kernel_mod, "RestartableTimer", CountedHandle)
    try:
        world = World(WorldConfig(n_procs=2, rpi=rpi, seed=1, metrics_enabled=True))
        world.run(make_pingpong(16 * 1024, 50))
    finally:
        patch.undo()
    snap = world.metrics.snapshot()
    kernel = world.kernel
    # what is queued and will never fire, against the handles that can own it
    dead_entries = len(kernel._heap) - kernel.pending_events()
    packets = sum(
        value
        for key, value in snap.items()
        if key.startswith("host.") and key.endswith(".tx_packets")
    )
    depth = snap["kernel.timer_heap_depth/sum"] / snap["kernel.timer_heap_depth/count"]
    return snap["kernel.events_processed"], packets, depth, dead_entries, len(handles)


@pytest.fixture(scope="module")
def counts():
    return {rpi: _pingpong_counts(rpi) for rpi in ("tcp", "sctp")}


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_events_per_packet_within_budget(counts, rpi):
    events, packets = counts[rpi][:2]
    assert packets > 1500
    assert events / packets <= EVENTS_PER_PACKET_MAX[rpi]


def test_events_per_packet_both_stacks(counts):
    events = sum(c[0] for c in counts.values())
    packets = sum(c[1] for c in counts.values())
    assert events / packets <= BOTH_STACKS_MAX


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_timer_heap_stays_shallow(counts, rpi):
    _events, _packets, depth, dead_entries, handles = counts[rpi]
    assert depth <= HEAP_DEPTH_MEAN_MAX
    # dead entries are bounded by the handles created (measured 6 for
    # tcp, 12 for sctp), not by the restarts made
    assert 0 < handles < 40
    assert dead_entries <= handles
