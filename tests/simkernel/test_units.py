"""Unit conversion helpers, incl. property-based checks."""

import pytest
from hypothesis import given, strategies as st

from repro.simkernel import GBIT_PER_S, MBIT_PER_S, SECOND, tx_time_ns


def test_known_serialization_times():
    # 1500 B at 1 Gbit/s = 12 microseconds
    assert tx_time_ns(1500, GBIT_PER_S) == 12_000
    # 125 bytes at 1 Mbit/s = 1 ms
    assert tx_time_ns(125, MBIT_PER_S) == 1_000_000


def test_zero_bytes_still_takes_one_ns():
    assert tx_time_ns(0, GBIT_PER_S) == 1


def test_invalid_inputs():
    with pytest.raises(ValueError):
        tx_time_ns(-1, GBIT_PER_S)
    with pytest.raises(ValueError):
        tx_time_ns(100, 0)


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**11))
def test_tx_time_monotone_in_bytes(nbytes, rate):
    assert tx_time_ns(nbytes, rate) <= tx_time_ns(nbytes + 1, rate)


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**10))
def test_tx_time_rounds_up(nbytes, rate):
    t = tx_time_ns(nbytes, rate)
    # t is the smallest ns count whose transmitted bits cover the payload
    assert t * rate >= nbytes * 8 * SECOND or t == 1

