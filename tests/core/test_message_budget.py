"""Per-message host budget (DESIGN §9.4): counts only, no wall clock.

A 64-byte MPI message must pay only for itself.  On a 2-rank ping-pong
of 500 round trips (1,000 messages, no warm-up, seed 1):

* a blocked progression step awaits one future that ``wake`` resolves,
  and a request holds none: TCP builds 2.013 ``Future``s per message and
  SCTP 1.011 (before, every request carried a completion future nothing
  awaited and every blocked step went through an ``AsyncEvent``: 4.017
  and 3.015),
* SCTP reassembly hands the RPI flat runs of blobs (before, every
  delivered message was a chunk list wrapping the sender's chunk list:
  1.005 nested pieces per message),
* and none of this moves virtual time: the kernel fires exactly the
  events it fired before.
"""

import pytest

from repro.core.world import World, WorldConfig
from repro.simkernel import futures
from repro.transport.sctp import OneToManySocket
from repro.util.blobs import ChunkList
from repro.workloads.mpbench import make_pingpong

ROUND_TRIPS = 500
MESSAGES = 2 * ROUND_TRIPS
# measured 2.013 / 1.011: one blocked-step future per message on SCTP,
# two on TCP (the envelope and the body arrive in separate segments)
FUTURES_PER_MESSAGE_MAX = {"tcp": 2.02, "sctp": 1.02}
EVENTS = {"tcp": 12_039, "sctp": 4_044}


def _pingpong_counts(rpi):
    tally = {"futures": 0, "nested": 0, "delivered": 0}
    future_init = futures.Future.__init__
    recvmsg = OneToManySocket.recvmsg

    def counting_init(self, *args, **kwargs):
        tally["futures"] += 1
        future_init(self, *args, **kwargs)

    def inspecting_recvmsg(self):
        msg = recvmsg(self)
        if msg is not None:
            tally["delivered"] += 1
            tally["nested"] += sum(isinstance(p, ChunkList) for p in msg.data.pieces)
        return msg

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(futures.Future, "__init__", counting_init)
        patch.setattr(OneToManySocket, "recvmsg", inspecting_recvmsg)
        world = World(WorldConfig(n_procs=2, rpi=rpi, seed=1))
        world.run(make_pingpong(64, ROUND_TRIPS, warmup=0))
    tally["events"] = world.kernel.events_processed
    return tally


@pytest.fixture(scope="module")
def counts():
    return {rpi: _pingpong_counts(rpi) for rpi in ("tcp", "sctp")}


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_futures_per_message(counts, rpi):
    assert counts[rpi]["futures"] / MESSAGES <= FUTURES_PER_MESSAGE_MAX[rpi]


def test_delivered_sctp_messages_are_flat(counts):
    tally = counts["sctp"]
    assert tally["delivered"] >= MESSAGES
    assert tally["nested"] == 0


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_kernel_events_unchanged(counts, rpi):
    assert counts[rpi]["events"] == EVENTS[rpi]
