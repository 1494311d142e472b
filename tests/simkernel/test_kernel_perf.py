"""Hot-path accounting: O(1) pending_events and run-loop edges.

Live-event accounting must stay a maintained counter (not a heap scan)
that is exact the moment a handle is cancelled.
"""

import pytest

from repro.simkernel import Future, Kernel
from repro.simkernel.kernel import DeadlockError


def _noop() -> None:
    return None


# -- O(1) live-event accounting ---------------------------------------------
def test_pending_events_after_10k_cancellations():
    """10k cancelled one-shots: the live counter is exact at once, and
    the dead entries (one per handle, never more) drain unfired."""
    k = Kernel()
    keep = [k.call_after(50_000 + i, _noop) for i in range(3)]
    churn = [k.call_after(1_000 + i, _noop) for i in range(10_000)]
    assert k.pending_events() == 10_003
    for timer in churn:
        timer.cancel()
    # counter is exact immediately, without running the kernel
    assert k.pending_events() == len(keep)
    assert len(k._heap) == 10_003
    assert k.run() == len(keep)
    assert k.pending_events() == 0
    assert not k._heap


def test_pending_events_counter_tracks_fire_and_cancel():
    k = Kernel()
    t = k.call_after(10, _noop)
    k.post_after(20, _noop)
    assert k.pending_events() == 2
    k.run(until=10)
    assert k.pending_events() == 1
    t.cancel()  # already fired: must not decrement again
    assert k.pending_events() == 1
    k.run()
    assert k.pending_events() == 0


def test_double_cancel_accounts_once():
    k = Kernel()
    t = k.call_after(10, _noop)
    k.call_after(20, _noop)
    t.cancel()
    t.cancel()
    assert k.pending_events() == 1
    assert k.run() == 1


# -- run(until=...) edge cases ----------------------------------------------
def test_run_until_fires_event_exactly_at_limit():
    k = Kernel()
    fired = []
    k.call_after(100, fired.append, 1)
    assert k.run(until=100) == 1
    assert fired == [1] and k.now == 100


def test_run_until_advances_clock_on_empty_heap():
    k = Kernel()
    assert k.run(until=500) == 0
    assert k.now == 500
    # a second run with an earlier until must not move the clock back
    assert k.run(until=200) == 0
    assert k.now == 500
    # ... nor with an event still pending past both limits
    k = Kernel()
    fired = []
    k.post_at(1_000, fired.append, 1)
    assert k.run(until=500) == 0
    assert k.run(until=200) == 0
    assert k.now == 500
    with pytest.raises(ValueError):
        k.post_at(300, fired.append, 2)
    assert k.run() == 1
    assert fired == [1] and k.now == 1_000


def test_run_until_skips_cancelled_without_counting():
    k = Kernel()
    fired = []
    t = k.call_after(10, fired.append, "no")
    k.call_after(20, fired.append, "yes")
    t.cancel()
    assert k.run(until=50) == 1  # the cancelled pop is not an event
    assert fired == ["yes"] and k.now == 50


# -- run_until(limit=...) edge cases ----------------------------------------
def test_run_until_limit_event_exactly_at_limit_completes():
    k = Kernel()
    fut = Future()
    k.call_after(100, fut.set_result, "done")
    assert k.run_until(fut, limit=100) == "done"
    assert k.now == 100


def test_run_until_limit_timeout_leaves_event_pending():
    k = Kernel()
    fut = Future()
    k.call_after(200, fut.set_result, "late")
    with pytest.raises(TimeoutError):
        k.run_until(fut, limit=100)
    assert k.now <= 100
    # the blocked event was not consumed: a later unlimited run fires it
    assert k.run() == 1
    assert fut.result() == "late"


def test_run_until_deadlock_reports_current_time():
    k = Kernel()
    k.call_after(10, _noop)
    fut = Future()
    with pytest.raises(DeadlockError, match="t=10ns"):
        k.run_until(fut)


def test_run_until_counts_into_events_processed():
    k = Kernel()
    fut = Future()
    k.call_after(1, _noop)
    k.call_after(2, fut.set_result, None)
    k.run_until(fut)
    assert k.events_processed == 2


# -- fire-and-forget scheduling edges ---------------------------------------
def test_post_at_rejects_past_and_post_after_rejects_negative():
    k = Kernel()
    k.call_after(10, _noop)
    k.run()
    with pytest.raises(ValueError):
        k.post_at(5, _noop)
    with pytest.raises(ValueError):
        k.post_after(-1, _noop)


def test_post_and_call_share_one_ordering():
    """post_* and call_* interleave FIFO at equal timestamps."""
    k = Kernel()
    order = []
    k.call_at(50, order.append, "timer-0")
    k.post_at(50, order.append, "post-1")
    k.call_at(50, order.append, "timer-2")
    k.post_at(50, order.append, "post-3")
    k.run()
    assert order == ["timer-0", "post-1", "timer-2", "post-3"]
