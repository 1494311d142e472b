"""Impairment models: behaviour, determinism, clone/bind, validation."""

import pytest

from repro.faults import (
    BernoulliLoss,
    Blackhole,
    Corrupt,
    Duplicate,
    GilbertElliott,
    Reorder,
)
from repro.network import Packet
from repro.simkernel import Kernel


def pkt(i=0):
    return Packet(src="a", dst="b", proto="t", payload=i, wire_size=100)


def run_through(imp, n=100):
    """Feed n packets through a bound impairment, return all emits."""
    out = []
    for i in range(n):
        out.extend(imp.process(pkt(i)))
    return out


# -- BernoulliLoss ---------------------------------------------------------
def test_bernoulli_zero_rate_passes_all_without_rng():
    k = Kernel(seed=1)
    imp = BernoulliLoss(0.0).bind(k, "s")
    before = imp.rng.getstate()
    out = run_through(imp)
    assert len(out) == 100 and imp.packets_dropped == 0
    assert imp.rng.getstate() == before, "idle impairment must not draw"


def test_bernoulli_total_loss():
    k = Kernel(seed=1)
    imp = BernoulliLoss(1.0).bind(k, "s")
    assert run_through(imp, 50) == [] and imp.packets_dropped == 50


def test_bernoulli_statistics():
    k = Kernel(seed=2)
    imp = BernoulliLoss(0.1).bind(k, "s")
    run_through(imp, 5000)
    assert 0.07 < imp.packets_dropped / 5000 < 0.13


# -- GilbertElliott --------------------------------------------------------
def test_gilbert_elliott_absorbs_into_bad_state():
    # p_enter=1, p_exit=0, loss_bad=1: first packet passes (GOOD, no
    # loss), every later packet is dropped — fully deterministic.
    k = Kernel(seed=1)
    imp = GilbertElliott(p_enter_bad=1.0, p_exit_bad=0.0, loss_bad=1.0)
    imp.bind(k, "s")
    out = run_through(imp, 20)
    assert len(out) == 1 and out[0][0].payload == 0
    assert imp.packets_dropped == 19 and imp.in_bad_state


def test_gilbert_elliott_bursts_are_correlated():
    k = Kernel(seed=3)
    imp = GilbertElliott(p_enter_bad=0.02, p_exit_bad=0.3, loss_bad=1.0)
    imp.bind(k, "s")
    drops = []
    for i in range(5000):
        drops.append(not imp.process(pkt(i)))
    # mean burst length 1/p_exit ≈ 3.3 → consecutive-drop pairs must be
    # far more common than under i.i.d. loss of the same overall rate
    pairs = sum(1 for a, b in zip(drops, drops[1:], strict=False) if a and b)
    rate = sum(drops) / len(drops)
    iid_pairs = rate * rate * len(drops)
    assert pairs > 2 * iid_pairs


# -- Blackhole / Corrupt / Duplicate / Reorder -----------------------------
def test_blackhole_drops_everything():
    k = Kernel(seed=1)
    imp = Blackhole().bind(k, "s")
    assert run_through(imp, 30) == [] and imp.packets_dropped == 30


def test_corrupt_marks_but_forwards():
    k = Kernel(seed=1)
    imp = Corrupt(rate=1.0).bind(k, "s")
    out = run_through(imp, 10)
    assert len(out) == 10
    assert all(p.corrupted for p, _ in out)
    assert imp.packets_affected == 10 and imp.packets_dropped == 0


def test_duplicate_emits_fresh_wire_copy():
    k = Kernel(seed=1)
    imp = Duplicate(rate=1.0).bind(k, "s")
    out = imp.process(pkt(7))
    assert len(out) == 2
    orig, dup = out[0][0], out[1][0]
    assert dup.payload is orig.payload
    assert dup.pkt_id != orig.pkt_id


def test_reorder_delays_selected_packets():
    k = Kernel(seed=1)
    imp = Reorder(rate=1.0, delay_ns=5000).bind(k, "s")
    out = imp.process(pkt())
    assert out[0][1] == 5000 and imp.packets_affected == 1


# -- clone / bind lifecycle ------------------------------------------------
def test_clone_is_unbound_and_independent():
    k = Kernel(seed=1)
    proto = BernoulliLoss(0.5)
    a = proto.clone().bind(k, "a")
    b = proto.clone().bind(k, "b")
    assert not proto.bound and a.bound and b.bound
    run_through(a, 100)
    assert a.packets_seen == 100 and b.packets_seen == 0
    # separate named streams: a's draws never perturb b's
    drops_b = [not b.process(pkt(i)) for i in range(100)]
    k2 = Kernel(seed=1)
    b2 = proto.clone().bind(k2, "b")
    assert drops_b == [not b2.process(pkt(i)) for i in range(100)]


def test_bind_resets_counters_and_state():
    k = Kernel(seed=1)
    imp = GilbertElliott(p_enter_bad=1.0, p_exit_bad=0.0, loss_bad=1.0)
    imp.bind(k, "s")
    run_through(imp, 10)
    assert imp.packets_seen == 10 and imp.in_bad_state
    imp.bind(Kernel(seed=1), "s")
    assert imp.packets_seen == 0 and not imp.in_bad_state


def test_unbound_process_has_no_rng():
    imp = BernoulliLoss(0.5)
    assert not imp.bound
    with pytest.raises(AttributeError):
        imp.process(pkt())


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        BernoulliLoss(1.5)
    with pytest.raises(ValueError):
        Corrupt(rate=-0.1)
    with pytest.raises(ValueError):
        Reorder(rate=0.1, delay_ns=0)
    with pytest.raises(ValueError):
        GilbertElliott(p_enter_bad=2.0)
