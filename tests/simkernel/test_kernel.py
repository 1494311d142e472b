"""Kernel: clock, timers, ordering, determinism, run_until."""

import pytest

from repro.simkernel import Kernel
from repro.simkernel.kernel import DeadlockError


def test_clock_starts_at_zero():
    assert Kernel().now == 0


def test_call_after_fires_at_right_time():
    k = Kernel()
    fired = []
    k.call_after(100, lambda: fired.append(k.now))
    k.run()
    assert fired == [100]


def test_call_at_absolute_time():
    k = Kernel()
    fired = []
    k.call_at(250, fired.append, "x")
    k.run()
    assert fired == ["x"] and k.now == 250


def test_cannot_schedule_in_the_past():
    k = Kernel()
    k.call_after(10, lambda: None)
    k.run()
    with pytest.raises(ValueError):
        k.call_at(5, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Kernel().call_after(-1, lambda: None)


def test_fifo_tiebreak_at_same_timestamp():
    k = Kernel()
    order = []
    for i in range(10):
        k.call_at(50, order.append, i)
    k.run()
    assert order == list(range(10))


def test_timer_cancellation():
    k = Kernel()
    fired = []
    timer = k.call_after(10, fired.append, "no")
    k.call_after(5, timer.cancel)
    k.run()
    assert fired == []


def test_cancel_after_fire_is_noop():
    k = Kernel()
    timer = k.call_after(1, lambda: None)
    k.run()
    timer.cancel()  # must not raise
    # ...and stays a no-op however much is scheduled afterwards
    fired = []
    for i in range(10_000):
        k.call_after(1 + i, fired.append, i)
    assert k.pending_events() == 10_000
    timer.cancel()
    assert k.pending_events() == 10_000
    assert k.run() == 10_000
    assert fired == list(range(10_000))


def test_kept_handle_never_cancels_somebody_elses_callback():
    """A handle kept past its firing stays the caller's own: cancelling
    it later must not reach a callback scheduled in between."""
    k = Kernel()
    log = []
    kept = k.call_window(1000, 5000, lambda: log.append("on"), lambda: log.append("off"))
    assert k.pending_events() == 2
    k.run(until=2000)
    assert log == ["on"] and k.pending_events() == 1
    k.call_after(10_000, log.append, "victim")
    assert k.pending_events() == 2
    for _ in range(2):  # the second round is a double cancel: accounted once
        for handle in kept:
            handle.cancel()
        assert k.pending_events() == 1
    assert k.run() == 1
    assert log == ["on", "victim"]
    assert k.pending_events() == 0


def test_run_until_time_limit():
    k = Kernel()
    fired = []
    k.call_after(100, fired.append, 1)
    k.call_after(200, fired.append, 2)
    k.run(until=150)
    assert fired == [1] and k.now == 150
    k.run()
    assert fired == [1, 2]


def test_nested_scheduling():
    k = Kernel()
    seen = []

    def outer():
        seen.append(("outer", k.now))
        k.call_after(7, inner)

    def inner():
        seen.append(("inner", k.now))

    k.call_after(3, outer)
    k.run()
    assert seen == [("outer", 3), ("inner", 10)]


def test_sleep_is_awaitable():
    k = Kernel()

    async def app():
        await k.sleep(42)
        return k.now

    task = k.spawn(app())
    k.run()
    assert task.result() == 42


def test_run_until_deadlock_detection():
    from repro.simkernel import Future

    k = Kernel()
    stuck = Future()
    with pytest.raises(DeadlockError):
        k.run_until(stuck)


def test_run_until_virtual_time_limit():
    from repro.simkernel import Future

    k = Kernel()
    stuck = Future()
    k.call_after(10_000, lambda: None)  # keeps the heap alive past the limit
    with pytest.raises(TimeoutError):
        k.run_until(stuck, limit=5_000)


def test_rng_streams_are_stable_and_independent():
    a1 = Kernel(seed=5).rng("alpha").random()
    a2 = Kernel(seed=5).rng("alpha").random()
    b = Kernel(seed=5).rng("beta").random()
    c = Kernel(seed=6).rng("alpha").random()
    assert a1 == a2
    assert a1 != b
    assert a1 != c


def test_failed_tasks_and_check_tasks():
    k = Kernel()

    async def boom():
        await k.sleep(1)
        raise ValueError("bang")

    k.spawn(boom())
    k.run()
    assert len(list(k.failed_tasks())) == 1
    with pytest.raises(ValueError, match="bang"):
        k.check_tasks()


def test_events_processed_counter():
    k = Kernel()
    for i in range(4):
        k.call_after(i + 1, lambda: None)
    k.run()
    assert k.events_processed == 4


def test_pending_events_excludes_cancelled():
    k = Kernel()
    t1 = k.call_after(10, lambda: None)
    k.call_after(20, lambda: None)
    t1.cancel()
    assert k.pending_events() == 1
