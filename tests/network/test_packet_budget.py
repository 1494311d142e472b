"""Per-packet host budget (DESIGN §9.3): counts only, no wall clock.

A packet must pay only for itself.  On a 2-rank ping-pong of 128 KiB
messages (10 round trips, no warm-up, seed 1, sanitizers off), each
message above the eager limit crosses as PMTU-sized fragments:

* a host reads its per-packet CPU charge from a table derived once from
  its cost model: no ``CostModel.packet_send_cost`` / ``packet_recv_cost``
  call while the world runs (before: one per packet each way, 2,849 /
  2,847 on TCP and 2,848 / 2,846 on SCTP),
* an RTO is recomputed when its inputs change, not read through
  ``TimerPersonality.clamp`` at every timer arm: at most one clamp per
  estimator, RTT sample and backoff (before: 977 clamps for 74 samples on
  TCP, 951 for 72 on SCTP),
* an SCTP fragment is a view of its message and reassembly hands the
  message over whole: no blob is sliced while fragments are cut or
  reassembled (before: 3,680 slices for 1,885 DATA chunks),
* DATA and SACK packets are sized by the code that builds them: no
  ``SCTPPacket.wire_size`` sum on them (before: 922; the handshake and
  shutdown packets still sum their chunks),
* and none of this moves virtual time: the kernel fires exactly the
  events it fired before.
"""

from collections import Counter

import pytest

from repro.analyze.sanitize import sanitized
from repro.core.world import World, WorldConfig
from repro.network.costmodel import CostModel
from repro.transport.base import RTOEstimator, TimerPersonality
from repro.transport.sctp.association import Association
from repro.transport.sctp.chunks import DataChunk, SackChunk, SCTPPacket
from repro.transport.sctp.streams import InboundStreams
from repro.util import blobs
from repro.workloads.mpbench import make_pingpong

MESSAGE = 128 * 1024
ROUND_TRIPS = 10
EVENTS = {"tcp": 11_387, "sctp": 11_384}
SLICERS = (blobs.RealBlob, blobs.SyntheticBlob, blobs.BlobView, blobs.ChunkList)


def _pingpong_counts(rpi):
    tally = Counter()
    in_fragment_path = [0]

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def fragment_path(fn):
        def wrapper(*args, **kwargs):
            in_fragment_path[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                in_fragment_path[0] -= 1

        return wrapper

    def slicing(fn):
        def wrapper(*args, **kwargs):
            if in_fragment_path[0]:
                tally["fragment_slices"] += 1
            return fn(*args, **kwargs)

        return wrapper

    wire_size = SCTPPacket.wire_size

    def summed_wire_size(pkt):
        if any(isinstance(c, (DataChunk, SackChunk)) for c in pkt.chunks):
            tally["data_or_sack_sums"] += 1
        return wire_size(pkt)

    with sanitized(False):
        world = World(WorldConfig(n_procs=2, rpi=rpi, seed=1))
        with pytest.MonkeyPatch.context() as patch:
            for name in ("packet_send_cost", "packet_recv_cost"):
                patch.setattr(CostModel, name, counting(name, getattr(CostModel, name)))
            patch.setattr(TimerPersonality, "clamp", counting("clamp", TimerPersonality.clamp))
            for name in ("__init__", "observe", "back_off"):
                patch.setattr(RTOEstimator, name, counting(name, getattr(RTOEstimator, name)))
            for cls in SLICERS:
                patch.setattr(cls, "slice", slicing(cls.slice))
            for cls, name in ((Association, "_dequeue_for_bundle"), (InboundStreams, "on_data")):
                patch.setattr(cls, name, fragment_path(getattr(cls, name)))
            patch.setattr(SCTPPacket, "wire_size", summed_wire_size)
            world.run(make_pingpong(MESSAGE, ROUND_TRIPS, warmup=0))
    tally["events"] = world.kernel.events_processed
    if rpi == "sctp":
        tally["data_chunks"] = sum(e.total_stats().data_chunks_sent for e in world.endpoints)
    return tally


@pytest.fixture(scope="module")
def counts():
    return {rpi: _pingpong_counts(rpi) for rpi in ("tcp", "sctp")}


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_no_cost_model_call_per_packet(counts, rpi):
    assert counts[rpi]["packet_send_cost"] == 0
    assert counts[rpi]["packet_recv_cost"] == 0


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_rto_clamped_only_when_it_changes(counts, rpi):
    tally = counts[rpi]
    assert tally["observe"] > 0  # the budget is not vacuous
    assert tally["clamp"] <= tally["__init__"] + tally["observe"] + tally["back_off"]


def test_sctp_fragments_are_not_sliced(counts):
    tally = counts["sctp"]
    # 128 KiB messages: the run is mostly multi-fragment messages
    assert tally["data_chunks"] > 40 * 2 * ROUND_TRIPS
    assert tally["fragment_slices"] == 0


def test_sctp_data_and_sack_packets_are_not_resummed(counts):
    assert counts["sctp"]["data_or_sack_sums"] == 0


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_kernel_events_unchanged(counts, rpi):
    assert counts[rpi]["events"] == EVENTS[rpi]
