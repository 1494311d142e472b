"""The budgets that are bounds and ratios rather than pins: counts only,
no wall clock, read from the runs ``budget.measure`` makes for the table
(``test_budget.py`` holds the exact counts).  What no profiler entry
shows comes from the probes on each scenario's warm-up run
(``budget.PROBES``).  Named functions only, so every check holds on
CPython 3.10 to 3.12.  DESIGN §9.3-§9.5 gives each budget's history.
"""

import pytest

from . import budget

BOTH = pytest.mark.parametrize("rpi", ["tcp", "sctp"])


def _run(name):
    return budget.measure(name)


def _calls(name, function):
    return _run(name)["extra"]["functions"].get(function, 0)


# -- event_*: four kernel events per packet, a shallow timer heap (§9.3) -----
EVENTS_PER_PACKET_MAX = 4.0  # measured 3.9955 / 3.9958, both 3.9956
HEAP_DEPTH_MEAN_MAX = 64  # measured 17-19


@BOTH
def test_events_per_packet_within_budget(rpi):
    row = _run(f"event_{rpi}")["row"]
    assert row["packets"] > 1500
    assert row["events"] / row["packets"] <= EVENTS_PER_PACKET_MAX


@BOTH
def test_timer_heap_stays_shallow(rpi):
    extra = _run(f"event_{rpi}")["extra"]
    assert extra["heap_depth_mean"] <= HEAP_DEPTH_MEAN_MAX
    # dead entries are bounded by the handles created (measured 6 for
    # tcp, 12 for sctp), not by the restarts made
    handles = extra["functions"]["simkernel/kernel.py:RestartableTimer.__init__"]
    assert 0 < handles < 40
    assert extra["dead_heap_entries"] <= handles


# -- wake_*: one call per element (§9.3), one resume per call (§9.4) ---------
# calls per packet along the chain; the first two are paid by every
# packet sent, the rest by every packet delivered (a run ends with the
# last packets still on the wire)
SENDER_SIDE = {"network/packet.py:Packet.__init__": 1, "network/host.py:Host.send": 1}
CHAIN = {**SENDER_SIDE, "network/dummynet.py:DummynetPipe.__call__": 1,
         "network/link.py:Link.send": 2, "network/switch.py:Switch._forward": 1,
         "network/host.py:Host.deliver": 1}


@BOTH
def test_a_packet_pays_one_call_per_element(rpi):
    name = f"wake_{rpi}"
    sent, delivered = _run(name)["row"]["packets"], _run(name)["extra"]["delivered"]
    assert delivered > 3_000  # the budget is not vacuous
    expected = {f: per * (sent if f in SENDER_SIDE else delivered) for f, per in CHAIN.items()}
    assert {f: _calls(name, f) for f in CHAIN} == expected


def test_sctp_calls_per_data_packet():
    # the 36,745 named transport.sctp calls (15.3 per DATA packet) are the
    # table's wake_sctp.named.transport.sctp
    assert _run("wake_sctp")["extra"]["probe"]["data_packets"] == 2_405


def test_one_recv_per_readable_wake():
    # plus one first look per socket: it is listed as ready when registered
    run = _run("wake_tcp")
    assert run["row"]["recv"] == run["extra"]["probe"]["readable_wakes"] + 2


@BOTH
def test_one_resume_per_blocking_call(rpi):
    probe = _run(f"wake_{rpi}")["extra"]["probe"]
    assert probe["blocking_calls"] == 2 * 2 * 100  # a send and a recv per message
    assert probe["max_call_resumes"] <= 1
    assert probe["call_resumes"] <= probe["blocking_calls"]


# -- message_*: one future per blocking call, flat deliveries (§9.4) ---------
@BOTH
def test_futures_per_message(rpi):
    # measured 1.010 (TCP) and 1.009 (SCTP) for 2 × 500 messages
    assert _run(f"message_{rpi}")["row"]["futures"] / (2 * 500) <= 1.02


def test_delivered_sctp_messages_are_flat():
    probe = _run("message_sctp")["extra"]["probe"]
    assert probe["deliveries"] >= 100
    assert probe["nested_pieces"] == 0


# -- packet_*: a packet pays only for itself (§9.3) --------------------------
@BOTH
def test_rto_clamped_only_when_it_changes(rpi):
    name, estimator = f"packet_{rpi}", "transport/base.py:RTOEstimator."
    observe = _calls(name, estimator + "observe")
    assert observe > 0  # the budget is not vacuous
    changes = observe + sum(_calls(name, estimator + f) for f in ("__init__", "back_off"))
    assert _calls(name, "transport/base.py:TimerPersonality.clamp") <= changes


def test_sctp_fragments_are_not_sliced():
    probe = _run("packet_sctp")["extra"]["probe"]
    # 128 KiB messages: the run is mostly multi-fragment messages
    assert probe["data_chunks"] > 40 * 2 * 10
    assert probe["fragment_slices"] == 0


def test_sctp_data_and_sack_packets_are_not_resummed():
    assert _run("packet_sctp")["extra"]["probe"]["data_or_sack_sums"] == 0


# -- farm_*: a step costs what is ready, not what is queued (§9.4) -----------
@pytest.mark.parametrize("name", ["farm_tcp", "farm_sctp", "farm_lossy_tcp", "farm_lossy_sctp"])
def test_no_refused_sendmsg(name):
    run = _run(name)
    assert run["extra"]["results"][0].tasks_done == 60  # the farm finished
    assert (run["extra"]["probe"].get("sendmsg", 0) > 0) == name.endswith("sctp")
    assert run["extra"]["probe"].get("refused", 0) == 0  # SCTP asks first


@BOTH
def test_one_envelope_pack_per_unit(rpi):
    name = f"farm_{rpi}"
    assert _calls(name, "core/envelope.py:Envelope.pack") == _run(name)["extra"]["units_sent"] > 0


@BOTH
def test_done_reads_follow_completions_not_steps(rpi):
    probe = _run(f"farm_{rpi}")["extra"]["probe"]
    # measured 9,053 of 23,971 allowed (TCP) and 8,440 of 24,519 (SCTP);
    # a rescan on every progression step reads 57,757 / 32,666
    assert 0 < probe["done_reads"] <= probe["scan_budget"]


def test_no_tcp_send_accepts_zero_bytes():
    probe = _run("farm_lossy_tcp")["extra"]["probe"]
    assert probe["sends"] > 0
    assert probe["zero_sends"] == 0


@BOTH
def test_walks_that_send_nothing(rpi):
    probe = _run(f"farm_lossy_{rpi}")["extra"]["probe"]
    # at most a fifth of the walks that sent nothing before write
    # readiness: 1,659 on SCTP, 1,093 on TCP (now 97 of 276, 72 of 967)
    assert 0 < probe["empty_walks"] <= {"sctp": 1_659, "tcp": 1_093}[rpi] // 5
    assert probe["empty_walks"] < probe["walks"]


# -- startup_*: a run loads only what it executes (§9.5) ---------------------
FAULTS = ["repro.faults", "repro.faults.impairments", "repro.faults.library",
          "repro.faults.observers", "repro.faults.scenario"]
SIMULATOR = ("core", "network", "simkernel", "transport", "metrics", "faults", "workloads")


def _loaded(name):
    return _run(name)["row"]["loaded"]


@BOTH
def test_a_clean_run_loads_one_stack_and_nothing_else(rpi):
    loaded = _loaded(f"startup_{rpi}")
    other = {"sctp": "tcp", "tcp": "sctp"}[rpi]
    assert f"repro.transport.{rpi}" in loaded and f"repro.core.rpi.{rpi}_rpi" in loaded
    assert not [m for m in loaded if m.startswith((f"repro.transport.{other}", "repro.faults"))]


@BOTH
def test_loss_adds_exactly_the_fault_library(rpi):
    clean, lossy = set(_loaded(f"startup_{rpi}")), set(_loaded(f"startup_{rpi}_lossy"))
    assert sorted(lossy - clean) == FAULTS
    assert clean <= lossy


@BOTH
def test_armed_sanitizers_add_exactly_the_checkers(rpi):
    clean, checked = set(_loaded(f"startup_{rpi}")), set(_loaded(f"startup_{rpi}_sanitized"))
    assert sorted(checked - clean) == ["repro.analyze.checkers"]
    assert clean <= checked


def test_the_static_analyzer_loads_no_simulator():
    loaded = _loaded("startup_analyzer")
    assert "repro.analyze.ci" in loaded
    assert not [m for m in loaded if m.split(".")[1:2] and m.split(".")[1] in SIMULATOR]
