"""Per-message host budget (DESIGN §9.4): counts only, no wall clock.

The budget table's ``message_*`` scenario (2-rank 64 B ping-pong, 500
round trips, no warm-up): a blocked MPI call awaits one future, which
``wake`` resolves once the call is done, and a request holds none (TCP
1.010 ``Future``s per message, SCTP 1.009; 4.017 and 3.015 while every
request carried a completion future); SCTP reassembly hands the RPI flat
runs of blobs; and the kernel fires the events the table pins.
``Future``s are counted by name (``budget.measure`` keys a function the
same on CPython 3.10 to 3.12), so every check holds on every interpreter.
"""

import pytest

from repro.core.world import World, WorldConfig
from repro.transport.sctp import OneToManySocket
from repro.util.blobs import ChunkList
from repro.workloads.mpbench import make_pingpong

from . import budget

MESSAGES = 2 * 500
FUTURES_PER_MESSAGE_MAX = 1.02  # one future per blocking call, either stack


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_futures_per_message(rpi):
    assert budget.measure(f"message_{rpi}")["row"]["futures"] / MESSAGES <= FUTURES_PER_MESSAGE_MAX


def test_delivered_sctp_messages_are_flat():
    tally = {"nested": 0, "delivered": 0}
    recvmsg = OneToManySocket.recvmsg

    def inspecting_recvmsg(self):
        msg = recvmsg(self)
        tally["delivered"] += 1
        tally["nested"] += sum(isinstance(p, ChunkList) for p in msg.data.pieces)
        return msg

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(OneToManySocket, "recvmsg", inspecting_recvmsg)
        World(WorldConfig(n_procs=2, rpi="sctp", seed=1)).run(make_pingpong(64, 50, warmup=0))
    assert tally["delivered"] >= 100
    assert tally["nested"] == 0


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_kernel_events_unchanged(rpi):
    name = f"message_{rpi}"
    assert budget.measure(name)["row"]["events"] == budget.pinned(name)["events"]
