"""wait_all."""

import pytest

from repro.simkernel import Future, Kernel, wait_all


def test_wait_all_collects_in_order():
    k = Kernel()
    futures = [Future() for _ in range(3)]
    done = wait_all(futures)
    futures[2].set_result("c")
    futures[0].set_result("a")
    assert not done.done()
    futures[1].set_result("b")
    assert done.result() == ["a", "b", "c"]


def test_wait_all_empty():
    assert wait_all([]).result() == []


def test_wait_all_propagates_exception():
    futures = [Future(), Future()]
    done = wait_all(futures)
    futures[1].set_exception(ValueError("bad"))
    with pytest.raises(ValueError):
        done.result()
