"""Packet-path event budget (DESIGN §9.3): counts only, no wall clock.

One packet costs four kernel events end to end — send CPU, uplink,
downlink, receive CPU — plus whatever the stack adds per call
(``HostCPU.charge`` completions, which TCP's per-syscall costs make
1.5/packet and SCTP's 0.1).  Protocol timers live in a heap a few dozen
deep because restarts do not leave dead entries behind.  Before the
link hop was one event and timers restartable these read 7.46 (TCP) and
6.11 (SCTP) events/packet and a mean heap depth of 434-442.
"""

import pytest

from repro.core.world import World, WorldConfig
from repro.simkernel import kernel as kernel_mod
from repro.workloads.mpbench import make_pingpong

# measured 5.47 / 4.11; one more event per packet on either stack
# (an un-fused hop, a timer that re-posts per packet) breaks its bound
EVENTS_PER_PACKET_MAX = {"tcp": 5.6, "sctp": 4.25}
BOTH_STACKS_MAX = 5.0  # measured 4.81, the ledger's pingpong_16k figure
HEAP_DEPTH_MEAN_MAX = 64  # measured 21-23


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
