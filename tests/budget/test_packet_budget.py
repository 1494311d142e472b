"""Per-packet host budget (DESIGN §9.3): counts only, no wall clock.

A packet must pay only for itself.  On the budget table's ``packet_*``
world (2-rank 128 KiB ping-pong, 10 round trips), each message above the
eager limit crosses as PMTU-sized fragments:

* a host reads its per-packet CPU charge from a table derived once from
  its cost model: no ``CostModel.packet_send_cost`` / ``packet_recv_cost``
  call while the world runs (before: one per packet each way),
* an RTO is recomputed when its inputs change, not read through
  ``TimerPersonality.clamp`` at every timer arm: at most one clamp per
  estimator, RTT sample and backoff (before: 977 clamps for 74 samples on
  TCP, 951 for 72 on SCTP),
* an SCTP fragment is a view of its message and reassembly hands the
  message over whole: no blob is sliced while fragments are cut or
  reassembled (before: 3,680 slices for 1,885 DATA chunks),
* DATA and SACK packets are sized by the code that builds them: no
  ``SCTPPacket.wire_size`` sum on them (before: 922),
* and the kernel fires exactly the events the table pins.

Named functions only (``budget.measure`` keys them the same on CPython
3.10 to 3.12), so these checks hold on every interpreter.
"""

from collections import Counter

import pytest

from repro.analyze.sanitize import sanitized
from repro.core.world import World, WorldConfig
from repro.transport.sctp.association import Association
from repro.transport.sctp.chunks import DataChunk, SackChunk, SCTPPacket
from repro.transport.sctp.streams import InboundStreams
from repro.util import blobs
from repro.workloads.mpbench import make_pingpong

from . import budget

BOTH = pytest.mark.parametrize("rpi", ["tcp", "sctp"])
SLICERS = (blobs.RealBlob, blobs.SyntheticBlob, blobs.BlobView, blobs.ChunkList)


def _calls(rpi, name):
    return budget.measure(f"packet_{rpi}")["extra"]["functions"].get(name, 0)


@pytest.fixture(scope="module")
def sctp_tally():
    """Slices made while SCTP fragments are cut or reassembled, and
    ``SCTPPacket.wire_size`` sums over DATA or SACK packets."""
    tally = Counter()
    in_fragment_path = [0]

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
            tally["fragment_slices"] += bool(in_fragment_path[0])
            return fn(*args, **kwargs)

        return wrapper

    wire_size = SCTPPacket.wire_size

    def summed_wire_size(pkt):
        tally["data_or_sack_sums"] += any(isinstance(c, (DataChunk, SackChunk)) for c in pkt.chunks)
        return wire_size(pkt)

    with sanitized(False), pytest.MonkeyPatch.context() as patch:
        world = World(WorldConfig(n_procs=2, rpi="sctp", seed=1))
        for cls in SLICERS:
            patch.setattr(cls, "slice", slicing(cls.slice))
        for cls, name in ((Association, "_dequeue_for_bundle"), (InboundStreams, "on_data")):
            patch.setattr(cls, name, fragment_path(getattr(cls, name)))
        patch.setattr(SCTPPacket, "wire_size", summed_wire_size)
        world.run(make_pingpong(128 * 1024, 10, warmup=0))
    tally["data_chunks"] = sum(e.total_stats().data_chunks_sent for e in world.endpoints)
    return tally


@BOTH
def test_no_cost_model_call_per_packet(rpi):
    assert _calls(rpi, "network/costmodel.py:CostModel.packet_send_cost") == 0
    assert _calls(rpi, "network/costmodel.py:CostModel.packet_recv_cost") == 0


@BOTH
def test_rto_clamped_only_when_it_changes(rpi):
    estimator = "transport/base.py:RTOEstimator."
    observe = _calls(rpi, estimator + "observe")
    assert observe > 0  # the budget is not vacuous
    changes = sum(_calls(rpi, estimator + name) for name in ("__init__", "back_off")) + observe
    assert _calls(rpi, "transport/base.py:TimerPersonality.clamp") <= changes


def test_sctp_fragments_are_not_sliced(sctp_tally):
    # 128 KiB messages: the run is mostly multi-fragment messages
    assert sctp_tally["data_chunks"] > 40 * 2 * 10
    assert sctp_tally["fragment_slices"] == 0


def test_sctp_data_and_sack_packets_are_not_resummed(sctp_tally):
    assert sctp_tally["data_or_sack_sums"] == 0


@BOTH
def test_kernel_events_unchanged(rpi):
    name = f"packet_{rpi}"
    assert budget.measure(name)["row"]["events"] == budget.pinned(name)["events"]
