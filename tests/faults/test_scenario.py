"""FaultScenario timelines: validation, arming, windows, probes."""

import pytest

from repro.faults import BernoulliLoss, Blackhole, FaultEvent, FaultScenario
from repro.metrics import MetricsRegistry
from repro.network import DummynetPipe, Packet
from repro.simkernel import Kernel


def pkt(i=0):
    return Packet(src="a", dst="b", proto="t", payload=i, wire_size=100)


def make_pipes(kernel, keys):
    sinks = {key: [] for key in keys}
    pipes = {
        key: DummynetPipe(kernel, key, sink=sinks[key].append) for key in keys
    }
    return pipes, sinks


# -- event / scenario validation -------------------------------------------
def test_event_validation():
    with pytest.raises(ValueError, match="negative"):
        FaultEvent(-1, None, "*", Blackhole())
    with pytest.raises(ValueError, match="empty"):
        FaultEvent(100, 100, "*", Blackhole())
    with pytest.raises(ValueError, match="name"):
        FaultScenario("", [])


# -- arming and fnmatch targeting ------------------------------------------
def test_fnmatch_targets_path_zero_only():
    k = Kernel(seed=1)
    pipes, sinks = make_pipes(k, ["h0p0", "h0p1", "h1p0", "h1p1"])
    scenario = FaultScenario("s", [FaultEvent(0, None, "h*p0", Blackhole())])
    armed = scenario.arm(k, pipes)
    assert sorted(key for key, _ in armed.impairments) == ["h0p0", "h1p0"]
    for key in pipes:
        pipes[key](pkt())
    assert sinks["h0p0"] == [] and sinks["h1p0"] == []
    assert len(sinks["h0p1"]) == 1 and len(sinks["h1p1"]) == 1


def test_unmatched_target_raises():
    k = Kernel(seed=1)
    pipes, _ = make_pipes(k, ["h0p0"])
    scenario = FaultScenario("s", [FaultEvent(0, None, "nope*", Blackhole())])
    with pytest.raises(ValueError, match="matches no Dummynet pipe"):
        scenario.arm(k, pipes)


def test_armed_clones_leave_prototype_unbound():
    k = Kernel(seed=1)
    pipes, _ = make_pipes(k, ["h0p0", "h1p0"])
    proto = BernoulliLoss(0.5)
    scenario = FaultScenario("s", [FaultEvent(0, None, "*", proto)])
    armed = scenario.arm(k, pipes)
    assert not proto.bound
    imps = [imp for _, imp in armed.impairments]
    assert len(imps) == 2 and imps[0] is not imps[1]
    assert all(imp.bound for imp in imps)


# -- time windows ----------------------------------------------------------
def test_window_arms_and_disarms_on_schedule():
    k = Kernel(seed=1)
    pipes, sinks = make_pipes(k, ["p"])
    scenario = FaultScenario("s", [FaultEvent(100, 200, "p", Blackhole())])
    armed = scenario.arm(k, pipes)
    assert armed.active == 0, "window not open yet"
    for t in (50, 150, 250):
        k.call_at(t, pipes["p"], pkt(t))
    k.run()
    assert [p.payload for p in sinks["p"]] == [50, 250]
    assert armed.active == 0 and not pipes["p"].armed_impairments


def test_open_ended_window_stays_armed():
    k = Kernel(seed=1)
    pipes, sinks = make_pipes(k, ["p"])
    scenario = FaultScenario("s", [FaultEvent(0, None, "p", Blackhole())])
    armed = scenario.arm(k, pipes)
    assert armed.active == 1, "start <= now arms inline"
    k.call_at(10_000_000, pipes["p"], pkt())
    k.run()
    assert sinks["p"] == [] and armed.active == 1


# -- determinism and metrics -----------------------------------------------
def test_same_seed_same_impairment_draws():
    def run(seed):
        k = Kernel(seed=seed)
        pipes, sinks = make_pipes(k, ["p"])
        scenario = FaultScenario(
            "s", [FaultEvent(0, None, "p", BernoulliLoss(0.3))]
        )
        scenario.arm(k, pipes)
        for i in range(300):
            pipes["p"](pkt(i))
        return [p.payload for p in sinks["p"]]

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_probes_registered_under_faults_scope():
    k = Kernel(seed=1, metrics=MetricsRegistry(enabled=True))
    pipes, _ = make_pipes(k, ["h0p0"])
    scenario = FaultScenario(
        "demo", [FaultEvent(0, None, "h0p0", BernoulliLoss(1.0))]
    )
    scenario.arm(k, pipes)
    for i in range(5):
        pipes["h0p0"](pkt(i))
    snap = k.metrics.snapshot()
    assert snap["faults.demo.active"] == 1
    assert snap["faults.demo.impairments_armed"] == 1
    assert snap["faults.demo.e0.h0p0.packets_seen"] == 5
    assert snap["faults.demo.e0.h0p0.packets_dropped"] == 5
