"""Kernel progress watchdog: stall, event-budget, and wall limits.

The watchdog is the layer that catches *pure-Python* livelocks — a
spinning event loop still heartbeats, so the process supervisor in
:mod:`repro.supervise` cannot see them (and, conversely, cannot be
replaced by this: a SIGSTOP'd process never reaches these checks).
"""

import pytest

from repro.simkernel import Kernel, WatchdogExpired


def _spinner(kernel):
    """Plant a zero-delay self-rescheduling callback (a livelock)."""

    def spin():
        kernel.post_after(0, spin)

    kernel.post_after(0, spin)
    return spin


def test_stall_detection_names_the_hot_callback():
    kernel = Kernel(seed=1)
    _spinner(kernel)
    kernel.arm_watchdog(max_stall_events=500)
    with pytest.raises(WatchdogExpired) as err:
        kernel.run()
    message = str(err.value)
    assert "stalled" in message and "t=0ns" in message
    assert "spin" in message  # hot heap label points at the livelock


def test_event_budget():
    kernel = Kernel(seed=1)

    def tick():
        kernel.post_after(10, tick)

    kernel.post_after(0, tick)
    kernel.arm_watchdog(max_events=200)
    with pytest.raises(WatchdogExpired, match="event budget"):
        kernel.run()
    assert kernel.events_processed == 200  # accounting survives the raise


def test_wall_budget():
    kernel = Kernel(seed=1)

    def tick():
        kernel.post_after(10, tick)

    kernel.post_after(0, tick)
    kernel.arm_watchdog(max_wall_s=0.1, check_every=64)
    with pytest.raises(WatchdogExpired, match="wall-clock budget"):
        kernel.run()


def test_advancing_time_resets_the_stall_counter():
    """Bursts of same-timestamp events (barriers) must not trip a stall
    watchdog as long as virtual time keeps advancing between bursts."""
    kernel = Kernel(seed=1)
    fired = 0

    def burst():
        nonlocal fired
        fired += 1

    for t in range(20):
        for _ in range(50):  # 50 events per timestamp, well under the limit
            kernel.post_at(t * 100, burst)
    kernel.arm_watchdog(max_stall_events=200)
    kernel.run()
    assert fired == 1000


def test_watchdog_fires_in_run_until_too():
    from repro.simkernel import Future

    kernel = Kernel(seed=1)
    _spinner(kernel)
    kernel.arm_watchdog(max_stall_events=500)
    never = Future(name="never")
    with pytest.raises(WatchdogExpired):
        kernel.run_until(never)

    kernel2 = Kernel(seed=1)
    _spinner(kernel2)
    kernel2.arm_watchdog(max_stall_events=500)
    never2 = Future(name="never2")
    with pytest.raises(WatchdogExpired):
        kernel2.run_until(never2, limit=10_000_000)


def test_disarm_and_validation():
    kernel = Kernel(seed=1)
    kernel.arm_watchdog(max_events=5)
    for i in range(20):
        kernel.post_at(i, lambda: None)
    with pytest.raises(WatchdogExpired):
        kernel.run()
    assert kernel.run() == 15  # expiry disarms it: the rest runs unwatched
    with pytest.raises(ValueError):
        kernel.arm_watchdog()  # at least one limit required
    with pytest.raises(ValueError):
        kernel.arm_watchdog(max_events=-1)
    with pytest.raises(ValueError):
        kernel.arm_watchdog(max_events=10, check_every=0)


def test_unarmed_kernel_is_unaffected():
    kernel = Kernel(seed=1)
    fired = []
    for i in range(5):
        kernel.post_at(i * 10, fired.append, i)
    kernel.run()
    assert fired == [0, 1, 2, 3, 4]


def test_env_spec_parsing():
    from repro.simkernel.kernel import _watchdog_env
    import os

    old = os.environ.get("REPRO_WATCHDOG")
    try:
        os.environ["REPRO_WATCHDOG"] = "wall=30,events=1e6,stall=100000"
        limits = _watchdog_env()
        assert limits == {
            "wall": 30.0, "events": 1_000_000, "stall": 100_000, "every": 1024
        }
        os.environ["REPRO_WATCHDOG"] = "bogus=1"
        with pytest.raises(ValueError):
            _watchdog_env()
        os.environ["REPRO_WATCHDOG"] = "every=10"
        with pytest.raises(ValueError):  # a period alone limits nothing
            _watchdog_env()
        os.environ["REPRO_WATCHDOG"] = ""
        assert _watchdog_env() is None
    finally:
        if old is None:
            os.environ.pop("REPRO_WATCHDOG", None)
        else:
            os.environ["REPRO_WATCHDOG"] = old
