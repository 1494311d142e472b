"""Schedule-perturbation race detector: masks, digests, planted races."""

import pytest

from repro.analyze.perturb import (
    TIEBREAK_FIFO,
    TIEBREAK_LIFO,
    PerturbResult,
    digest_payload,
    filter_schedule_sensitive,
    parse_mode,
    perturb_run,
    shuffle_mask,
    tiebreak,
)
from repro.simkernel import Kernel
from repro.simkernel import kernel as kernel_mod


# ---------------------------------------------------------------------------
# mask plumbing
# ---------------------------------------------------------------------------
def test_parse_mode():
    assert parse_mode("fifo") == ("fifo", TIEBREAK_FIFO)
    assert parse_mode("lifo") == ("lifo", TIEBREAK_LIFO)
    name, mask = parse_mode("shuffle:7")
    assert name == "shuffle:7" and mask == shuffle_mask(7)
    with pytest.raises(ValueError):
        parse_mode("coinflip")


def test_shuffle_mask_is_deterministic_and_never_fifo():
    assert shuffle_mask(7) == shuffle_mask(7)
    assert shuffle_mask(7) != shuffle_mask(8)
    for seed in range(50):
        assert 0 < shuffle_mask(seed) <= TIEBREAK_LIFO


def test_tiebreak_context_sets_and_restores_default():
    assert kernel_mod.DEFAULT_TIEBREAK_MASK == TIEBREAK_FIFO
    with tiebreak(TIEBREAK_LIFO):
        assert kernel_mod.DEFAULT_TIEBREAK_MASK == TIEBREAK_LIFO
        assert Kernel(seed=1)._seq_mask == TIEBREAK_LIFO
    assert kernel_mod.DEFAULT_TIEBREAK_MASK == TIEBREAK_FIFO
    # an explicit constructor argument always wins over the ambient default
    with tiebreak(TIEBREAK_LIFO):
        assert Kernel(seed=1, tiebreak_mask=0)._seq_mask == 0


def same_time_order(mask):
    """Fire five events at one timestamp; report the order they ran in."""
    kernel = Kernel(seed=1, tiebreak_mask=mask)
    order = []
    for i in range(5):
        kernel.call_at(1_000, order.append, i)
    kernel.run()
    return order


def test_mask_reverses_only_same_time_ties():
    assert same_time_order(TIEBREAK_FIFO) == [0, 1, 2, 3, 4]
    assert same_time_order(TIEBREAK_LIFO) == [4, 3, 2, 1, 0]
    # events at distinct times are untouched by any mask
    kernel = Kernel(seed=1, tiebreak_mask=TIEBREAK_LIFO)
    order = []
    for i in range(5):
        kernel.call_at(1_000 * (i + 1), order.append, i)
    kernel.run()
    assert order == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------
def test_digest_is_key_order_invariant():
    assert digest_payload({"a": 1, "b": 2}) == digest_payload({"b": 2, "a": 1})
    assert digest_payload({"a": 1}) != digest_payload({"a": 2})


def test_filter_schedule_sensitive():
    snapshot = {
        "kernel.timer_heap_depth.p99": 12,
        "kernel.pending_timers": 3,
        "kernel.now_ns": 42,
        "tcp.segments_sent": 9,
        # occupancy histograms sample at enqueue instants: same-timestamp
        # enqueue order shows through, so they are schedule-sensitive
        "net.link.h0p0->sw0.queue_occupancy_bytes/le_1500": 7,
        "net.link.h0p0->sw0.queue_occupancy_bytes/sum": 9000,
        "net.link.h0p0->sw0.tx_bytes": 123,
    }
    kept = filter_schedule_sensitive(snapshot)
    assert kept == {
        "kernel.now_ns": 42,
        "tcp.segments_sent": 9,
        "net.link.h0p0->sw0.tx_bytes": 123,
    }


def test_filter_handles_nested_keys_matching_infixes():
    """Satellite edge case: the occupancy infix must match at any depth
    of the metric name, not just the shapes the smoke worlds emit."""
    snapshot = {
        # deeply nested link under pod/core tiers, histogram bucket
        "net.pod1.core0.link.sw3->sw9.queue_occupancy_bytes/le_9000": 4,
        # ... and the aggregate fields of the same histogram
        "net.pod1.core0.link.sw3->sw9.queue_occupancy_bytes/count": 11,
        # an infix-free cousin on the same link must survive
        "net.pod1.core0.link.sw3->sw9.tx_bytes": 77,
        # the infix as a *suffix-less* fragment inside a key still matches
        "x.queue_occupancy_bytes/sum.shadow": 1,
    }
    kept = filter_schedule_sensitive(snapshot)
    assert kept == {"net.pod1.core0.link.sw3->sw9.tx_bytes": 77}


def test_filter_and_digest_of_empty_snapshot():
    """Satellite edge case: empty digest sets must behave, not crash."""
    assert filter_schedule_sensitive({}) == {}
    # an all-filtered snapshot digests like an empty one...
    only_sensitive = {"kernel.timer_heap_depth.p99": 5}
    assert digest_payload(filter_schedule_sensitive(only_sensitive)) == (
        digest_payload({})
    )
    # ...and a result with no perturbed modes is vacuously deterministic
    res = PerturbResult(label="empty", digests={"fifo": digest_payload({})})
    assert res.deterministic and res.divergent_modes == []


def test_filter_must_not_mask_a_planted_schedule_sensitive_leak():
    """Satellite edge case: a racy value smuggled into a *non*-filtered
    metric name must still trip the detector — the filter only exempts
    the documented depth/occupancy observability metrics."""

    def leaky_scenario():
        kernel = Kernel(seed=1)
        order = []
        for i in range(4):
            kernel.call_at(1_000, order.append, i)
        kernel.run()
        # the leak: tie-break order laundered into an innocent-looking key
        return {"tcp.first_segment_owner": order[0]}

    res = perturb_run(leaky_scenario, modes=("lifo", "shuffle:3"), label="leak")
    assert not res.deterministic
    assert "lifo" in res.divergent_modes


def test_perturb_result_reporting():
    res = PerturbResult(label="x", digests={"fifo": "aa", "lifo": "bb"})
    assert not res.deterministic
    assert res.divergent_modes == ["lifo"]
    assert "RACE" in res.report()
    doc = res.to_jsonable()
    assert doc["deterministic"] is False and doc["label"] == "x"
    ok = PerturbResult(label="y", digests={"fifo": "aa", "lifo": "aa"})
    assert ok.deterministic and "OK" in ok.report()


# ---------------------------------------------------------------------------
# the detector itself
# ---------------------------------------------------------------------------
def racy_scenario():
    """Result depends on same-timestamp ordering: a planted race."""
    kernel = Kernel(seed=1)  # picks up the ambient tie-break default
    order = []
    for i in range(4):
        kernel.call_at(1_000, order.append, i)
    kernel.run()
    return {"first_winner": order[0], "order": order}


def clean_scenario():
    """Same events, but the result is order-insensitive."""
    return {"order": sorted(racy_scenario()["order"])}


def test_perturb_flags_planted_same_time_ordering_dependency():
    """ISSUE acceptance: a planted tie-order dependency must be flagged."""
    res = perturb_run(racy_scenario, modes=("lifo", "shuffle:3"), label="planted")
    assert not res.deterministic
    assert "lifo" in res.divergent_modes


def test_perturb_passes_order_insensitive_scenario():
    res = perturb_run(clean_scenario, modes=("lifo", "shuffle:3"), label="clean")
    assert res.deterministic
    assert res.divergent_modes == []


def test_perturb_restores_fifo_default_after_run():
    perturb_run(clean_scenario, modes=("lifo",))
    assert kernel_mod.DEFAULT_TIEBREAK_MASK == TIEBREAK_FIFO


@pytest.mark.xfail(strict=True, reason=(
    "known race (ROADMAP item 4): at 2,176,706 ns on node0 Host.deliver of "
    "one packet ties with SCTPEndpoint.receive of the previous one, and the "
    "shared HostCPU FIFO takes their jobs in tie order; rows and event counts "
    "agree, the SCTP run ends at 66,742,460 ns (fifo) vs 66,734,460 ns (lifo)"
))
def test_fig8_128k_cell_is_schedule_independent():
    from repro.analyze.perturb import perturb_cell

    assert perturb_cell("fig8", {"size": 131072}, modes=("lifo",)).deterministic


@pytest.mark.xfail(strict=True, reason=(
    "known loss-free race (ROADMAP item 4): the SCTP leg is identical, the "
    "TCP leg is not -- tcp_Mops 1847.41 (fifo) vs 1856.39 (lifo), and three "
    "node0/node1 connections end in TIME_WAIT vs CLOSING with different "
    "segments_received; IS and CG at class S race too"
))
def test_fig9_ep_class_s_cell_is_schedule_independent():
    from repro.analyze.perturb import perturb_cell

    assert perturb_cell("fig9", {"kernel": "EP", "cls": "S"}, modes=("lifo",)).deterministic


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_rejects_bad_specs(capsys):
    from repro.analyze.perturb import main

    with pytest.raises(SystemExit):
        main(["fig8"])  # missing the size axis
    assert "missing axis 'size'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["fig8", "size"])  # not name=value
    with pytest.raises(SystemExit):
        main(["fig8", "size=1024", "bogus=1"])
    assert "unknown parameter" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["nonesuch", "size=1024"])
    with pytest.raises(ValueError):
        main(["fig8", "size=1024", "--modes", "coinflip"])


def test_cli_params_are_json_with_string_fallback():
    from repro.analyze.perturb import _parse_param

    assert _parse_param("size=1024") == ("size", 1024)
    assert _parse_param("loss=0.01") == ("loss", 0.01)
    assert _parse_param("seeds=[1,2]") == ("seeds", [1, 2])
    assert _parse_param("scheduler=rr") == ("scheduler", "rr")
    assert _parse_param("interleaving=on") == ("interleaving", "on")
