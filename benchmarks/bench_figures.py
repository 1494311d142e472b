"""Every ``python -m repro.bench`` figure as one parametrised bench.

A figure is its registry entry's default cells, run here exactly as the
CLI runs them; what differs per figure is only the *shape assertion* —
the qualitative claim of the paper (its docstring) that the measured
rows must reproduce.  ``REPRO_NPB_CLASS`` picks the Fig. 9 problem class.
"""

import os

import pytest

from repro.bench import default_cells, format_table, run_sweep_cell
from repro.bench.harness import MATRICES

CLS = os.environ.get("REPRO_NPB_CLASS", "B")

# KAME's minimum RTO is 1s, so the first T3 expiry — the earliest moment
# SCTP can notice the dead path and retransmit elsewhere — lands ~1s
# after the blackhole opens.  Recovery much beyond 2x that means the
# failover machinery is not actually redirecting traffic.
RECOVERY_BOUND_S = 2.0


def run_figure(name, **free):
    """The figure's cells in enumeration order, free parameters overridden."""
    return [
        row
        for params in default_cells(name)
        for row in run_sweep_cell(name, {**params, **free})
    ]


def fig8_shape(rows):
    """Fig. 8, paper shape: TCP wins for small messages, SCTP wins for large
    ones, with the crossover near 22 KiB."""
    ratios = {int(r.label.split()[1][:-1]): r.measured["sctp/tcp"] for r in rows}
    assert ratios[1] < 1.0, "TCP must win tiny messages"
    assert ratios[4096] < 1.05, "TCP competitive through small sizes"
    assert ratios[98302] > 1.0, "SCTP must win large messages"
    assert ratios[131069] > 1.05, "SCTP clearly ahead at 128K"


def table1_shape(rows):
    """Table 1, paper shape: SCTP beats TCP at every loss/size cell (28x/43x
    at 30 KiB, ~3.2x at 300 KiB).  The paper's far larger factors are
    discussed (and not blindly asserted) in EXPERIMENTS.md."""
    by_cell = {r.label: r.measured["sctp/tcp"] for r in rows}
    # at 2% loss SCTP must win both message sizes (paper's direction)
    assert by_cell["pingpong 30K loss=2%"] > 1.0
    assert by_cell["pingpong 300K loss=2%"] > 1.0
    # overall, SCTP comes out ahead under loss
    mean_ratio = sum(by_cell.values()) / len(by_cell)
    assert mean_ratio > 1.1, f"SCTP should win on average under loss: {by_cell}"


def fig9_verified(rows):
    """§4.1.2 text: smaller datasets are short-message dominated and lean
    TCP-wards; verification must hold at every class."""
    for row in rows:
        assert row.measured["verified"], f"{row.label} failed verification"


def fig9_shape(rows):
    """Fig. 9, paper shape: SCTP performance comparable to TCP on the NPB
    suite at class B; TCP keeps an edge on the short-message-dominated MG
    and BT."""
    by_name = {r.label.split()[1].split(".")[0]: r for r in rows}
    for name, row in by_name.items():
        assert row.measured["verified"], f"{name} failed numerical verification"
        ratio = row.measured["sctp/tcp"]
        assert 0.5 < ratio < 2.0, f"{name}: protocols should be comparable, got {ratio:.2f}"
    # the paper's specific observation: TCP ahead on MG and BT
    assert by_name["MG"].measured["sctp/tcp"] < 1.1
    assert by_name["BT"].measured["sctp/tcp"] < 1.1


def fig10_shape(rows):
    """Fig. 10, paper shape: comparable at no loss; under 1-2% loss TCP's run
    time blows up by ~10x (short) and ~2.6x (long) relative to SCTP."""
    for row in rows:
        loss = row.label.split("loss=")[1]
        ratio = row.measured["tcp/sctp"]
        if loss == "0%":
            assert 0.4 < ratio < 2.5, f"{row.label}: no-loss runs comparable"
        elif "short" in row.label:
            assert ratio > 2.0, (
                f"{row.label}: TCP must degrade sharply under loss, got {ratio:.2f}x"
            )
        else:
            # paper: ~2.6x for long messages; our per-seed spread at demo
            # scale is wide, so guard the direction with margin
            assert ratio > 1.3, (
                f"{row.label}: TCP must degrade under loss, got {ratio:.2f}x"
            )


def fig11_shape(rows):
    """Fig. 11, paper shape: shipping ten tasks per request makes the loss gap
    worse for TCP (more back-to-back data behind any lost segment),
    especially for long messages; SCTP degrades only mildly versus Fig. 10."""
    for row in rows:
        loss = row.label.split("loss=")[1]
        ratio = row.measured["tcp/sctp"]
        if loss == "0%":
            assert 0.4 < ratio < 2.5, f"{row.label}: no-loss runs comparable"
        else:
            assert ratio > 2.0, f"{row.label}: TCP must lose under loss ({ratio:.2f}x)"


def fig12_shape(rows):
    """Fig. 12, paper shape: under loss the single-stream variant
    re-introduces HOL blocking (~25% slower for long messages, ~35% at 2%
    loss for short); with no loss the two are equivalent."""
    for row in rows:
        loss = row.label.split("loss=")[1]
        ratio = row.measured["1s/10s"]
        if loss == "0%":
            assert 0.85 < ratio < 1.2, f"{row.label}: equal without loss ({ratio:.2f})"
    # under loss the single-stream penalty must show up somewhere material
    lossy = [r.measured["1s/10s"] for r in rows if "0%" not in r.label.split("loss=")[1]]
    assert max(lossy) > 1.10, f"multistreaming must help under loss: {lossy}"


def failover_shape(rows):
    """§3.5.1 (not a paper figure): a ``repro.faults`` blackhole severs the
    primary path mid-run and the application must finish over the
    alternate, with retransmissions redirected (§4.1.1 last bullet)."""
    row = rows[0]
    assert row.measured["completed"], "the MPI program must survive path failure"
    assert row.measured["failover_retransmits"] > 0, (
        "retransmissions must have been redirected to the alternate path"
    )
    assert row.measured["path_failures"] > 0, (
        "path supervision must have declared the severed path INACTIVE"
    )
    recovery_s = row.measured["recovery_s"]
    assert 0 < recovery_s < RECOVERY_BOUND_S, (
        f"delivery resumed {recovery_s}s after the blackhole; failover "
        f"should recover within {RECOVERY_BOUND_S}s (~2x the 1s min RTO)"
    )


def interleave_shape(rows):
    """RFC 8260 shape: with I-DATA interleaving and the round-robin scheduler
    a small message no longer waits out the bulk message queued ahead of
    it on another stream, so its latency drops below the RFC 4960 baseline
    (no interleaving, first-come first-served)."""
    by_label = {row.label: row.measured for row in rows}
    assert (
        by_label["mix sctp idata=on sched=rr loss=0"]["small_us"]
        < by_label["mix sctp idata=off sched=fcfs loss=0"]["small_us"]
    ), "interleaving + rr must cut small-message latency under bulk"


def chaos_shape(rows):
    """Chaos matrix (not a paper figure), per-mechanism claims: SCTP rides a
    primary-path blackhole out via failover while TCP must sit through RTO
    backoff, and corruption is rejected by integrity checks on both stacks."""
    by_label = {row.label: row.measured for row in rows}

    # every cell completed inside the virtual-time watchdog
    assert len(rows) == 10

    # blackhole: SCTP's failover beats TCP's RTO backoff on both recovery
    # time (first data after the hole opened) and total run time
    tcp_hole = by_label["tcp blackhole 2s"]
    sctp_hole = by_label["sctp blackhole 2s"]
    assert sctp_hole["failovers"] > 0, "SCTP must migrate to the alternate path"
    assert tcp_hole["rto_events"] > 0, "TCP can only wait out its RTO backoff"
    assert sctp_hole["recovery_s"] < tcp_hole["recovery_s"], (
        "SCTP failover must restore delivery before TCP's backed-off "
        "retransmit gets through the re-opened path"
    )
    assert sctp_hole["elapsed_s"] < tcp_hole["elapsed_s"]

    # corruption: dropped by CRC32c / checksum, never delivered
    assert by_label["sctp corrupt 2%"]["integrity_drops"] > 0
    assert by_label["tcp corrupt 2%"]["integrity_drops"] > 0

    # duplication/reordering is absorbed without a single timeout
    assert by_label["sctp dup+reorder"]["rto_events"] == 0
    assert by_label["tcp dup+reorder"]["rto_events"] == 0


FIGURES = [
    ("fig8", {}, fig8_shape),
    ("table1", {}, table1_shape),
    ("fig9", {"cls": CLS}, fig9_shape),
    ("fig9", {"cls": "S"}, fig9_verified),
    ("fig9", {"cls": "W"}, fig9_verified),
    ("fig10", {}, fig10_shape),
    ("fig11", {}, fig11_shape),
    ("fig12", {}, fig12_shape),
    ("failover", {}, failover_shape),
    ("interleave", {}, interleave_shape),
    ("chaos", {}, chaos_shape),
]


@pytest.mark.parametrize(
    "figure, free, shape",
    FIGURES,
    ids=["-".join([figure, *free.values()]) for figure, free, _shape in FIGURES],
)
def test_figure(once, figure, free, shape):
    rows = once(run_figure, figure, **free)
    overrides = "".join(f" [{key}={value}]" for key, value in free.items())
    print()
    print(format_table(MATRICES[figure].title + overrides, rows))
    shape(rows)
