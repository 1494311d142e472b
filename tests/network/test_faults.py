"""DummynetPipe impairment chain: arm/disarm, corrupt/dup/reorder flow."""

from repro.faults import BernoulliLoss, Corrupt, Duplicate, Reorder
from repro.network import DummynetPipe, Packet
from repro.simkernel import Kernel


def pkt(i=0):
    return Packet(src="a", dst="b", proto="t", payload=i, wire_size=100)


def make_pipe(seed=1, **kwargs):
    k = Kernel(seed=seed)
    got = []
    pipe = DummynetPipe(k, "p", sink=got.append, **kwargs)
    return k, pipe, got


def test_arm_auto_binds_unbound_impairment():
    k, pipe, got = make_pipe()
    imp = Corrupt(rate=1.0)
    assert not imp.bound
    pipe.arm(imp)
    assert imp.bound and imp.stream == "dummynet:p:corrupt0"
    pipe(pkt())
    assert got[0].corrupted and pipe.corrupted_packets == 1


def test_disarm_restores_clean_path():
    k, pipe, got = make_pipe()
    imp = pipe.arm(Corrupt(rate=1.0))
    pipe(pkt(0))
    pipe.disarm(imp)
    assert not pipe.armed_impairments
    pipe(pkt(1))
    assert got[0].corrupted and not got[1].corrupted


def test_duplicate_through_pipe():
    k, pipe, got = make_pipe()
    pipe.arm(Duplicate(rate=1.0))
    pipe(pkt(0))
    assert len(got) == 2 and pipe.duplicated_packets == 1
    assert got[0].payload is got[1].payload
    assert got[0].pkt_id != got[1].pkt_id


def test_reorder_delays_via_kernel():
    k, times = Kernel(seed=1), []
    pipe = DummynetPipe(k, "p", sink=lambda p: times.append((k.now, p.payload)))
    pipe.arm(Reorder(rate=1.0, delay_ns=5000))
    pipe(pkt(0))
    pipe.disarm(pipe.armed_impairments[0])
    pipe(pkt(1))  # undelayed: overtakes the held packet
    k.run()
    assert times == [(0, 1), (5000, 0)]


def test_armed_delays_stack():
    k, times = Kernel(seed=1), []
    pipe = DummynetPipe(k, "p", sink=lambda p: times.append(k.now))
    pipe.arm(Reorder(rate=1.0, delay_ns=100))
    pipe.arm(Reorder(rate=1.0, delay_ns=400))
    pipe(pkt())
    k.run()
    assert times == [500]


def test_chain_order_base_loss_first():
    # base loss at 100%: armed impairments downstream never see packets
    k, pipe, got = make_pipe(loss_rate=1.0)
    imp = pipe.arm(Corrupt(rate=1.0))
    for i in range(10):
        pipe(pkt(i))
    assert got == [] and imp.packets_seen == 0
    assert pipe.dropped_packets == 10


def test_armed_loss_counts_in_pipe_drops():
    k, pipe, got = make_pipe()
    pipe.arm(BernoulliLoss(1.0))
    for i in range(10):
        pipe(pkt(i))
    assert got == [] and pipe.dropped_packets == 10
    assert pipe.passed_packets == 0


def test_disarm_unknown_impairment_is_noop():
    # scenario teardown may disarm twice; that must stay harmless
    k, pipe, got = make_pipe()
    imp = pipe.arm(Corrupt(rate=1.0))
    pipe.disarm(imp)
    pipe.disarm(imp)
    pipe.disarm(Corrupt(rate=1.0))
    pipe(pkt())
    assert len(got) == 1 and not got[0].corrupted
