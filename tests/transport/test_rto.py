"""RTT estimation and RTO policy (RFC 6298 arithmetic + personalities)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simkernel import MILLISECOND, SECOND
from repro.transport.base import (
    BSD_TCP_TIMERS,
    KAME_SCTP_TIMERS,
    RTOEstimator,
    TimerPersonality,
)

FINE = TimerPersonality(
    min_rto_ns=1_000, max_rto_ns=60 * SECOND, initial_rto_ns=3 * SECOND, granularity_ns=0
)


def test_initial_rto_before_any_sample():
    est = RTOEstimator(BSD_TCP_TIMERS)
    assert est.rto_ns == BSD_TCP_TIMERS.clamp(3 * SECOND)


def test_first_sample_sets_srtt_and_rttvar():
    est = RTOEstimator(FINE)
    est.observe(100_000)
    assert est.srtt_ns == 100_000
    assert est.rttvar_ns == 50_000
    # RTO = srtt + 4*rttvar = 300_000 (granularity 0)
    assert est.rto_ns == 300_000


def test_ewma_converges_toward_stable_rtt():
    est = RTOEstimator(FINE)
    for _ in range(50):
        est.observe(200_000)
    assert abs(est.srtt_ns - 200_000) < 5_000
    assert est.rttvar_ns < 20_000


def test_negative_sample_rejected():
    with pytest.raises(ValueError):
        RTOEstimator(FINE).observe(-1)


def test_backoff_doubles_and_caps():
    est = RTOEstimator(FINE)
    est.observe(1_000_000)
    base = est.rto_ns
    est.back_off()
    assert est.rto_ns == min(2 * base, FINE.max_rto_ns)
    for _ in range(40):
        est.back_off()
    assert est.rto_ns == FINE.max_rto_ns


def test_new_sample_resets_backoff():
    est = RTOEstimator(FINE)
    est.observe(1_000_000)
    est.back_off()
    est.back_off()
    est.observe(1_000_000)
    assert est.backoff_exponent == 0


def test_bsd_personality_quantizes_to_500ms_ticks():
    est = RTOEstimator(BSD_TCP_TIMERS)
    est.observe(30 * MILLISECOND)  # LAN-ish RTT
    # quantized up to a tick multiple and clamped to the 1 s minimum
    assert est.rto_ns == 1 * SECOND
    est.back_off()
    # doubled base (2 x 530 ms), rounded up to the next 500 ms tick
    assert est.rto_ns == 1_500_000_000
    assert est.rto_ns % BSD_TCP_TIMERS.granularity_ns == 0


def test_kame_personality_min_one_second():
    est = RTOEstimator(KAME_SCTP_TIMERS)
    est.observe(100_000)  # 100 us RTT
    assert est.rto_ns == 1 * SECOND


def test_clamp_respects_granularity_and_bounds():
    p = TimerPersonality(
        min_rto_ns=100, max_rto_ns=1_000, initial_rto_ns=500, granularity_ns=30
    )
    assert p.clamp(101) == 120  # rounded up to a 30 ns tick
    assert p.clamp(5) == 100  # min clamp
    assert p.clamp(10_000) == 1_000  # max clamp


_OPS = st.one_of(
    st.tuples(st.just("observe"), st.integers(0, 5 * SECOND)),
    st.tuples(st.just("back_off")),
    st.tuples(st.just("reset_backoff")),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    personality=st.sampled_from([BSD_TCP_TIMERS, KAME_SCTP_TIMERS, FINE]),
    ops=st.lists(_OPS, max_size=40),
)
def test_held_rto_is_always_the_clamped_backed_off_base(personality, ops):
    """Drift guard: ``rto_ns`` is held and recomputed only by the methods
    that change its inputs; after any sequence of them it must equal what
    deriving it on every read would give."""
    est = RTOEstimator(personality)

    def derived():
        return personality.clamp(est._base_rto_ns << est.backoff_exponent)

    assert est.rto_ns == derived()
    for name, *args in ops:
        getattr(est, name)(*args)
        assert est.rto_ns == derived()
