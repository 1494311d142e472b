"""The kernel's livelock guard: always on, no setting.

Every ``STALL_EVENTS`` events fired, a run loop checks that the clock
has moved and raises :class:`LivelockError` if it has not.  This is the
layer that catches *pure-Python* livelocks: the cell fan-out in
:mod:`repro.supervise` has no wall-clock limit, so a spinning event
loop is turned into an error here, which the fan-out then names.
"""

import time

import pytest

from repro.core import run_app
from repro.simkernel import Future, Kernel, LivelockError
from repro.simkernel import kernel as kernel_module
from repro.workloads.farm import FarmParams, run_farm
from repro.workloads.halo import make_halo


def _spinner(kernel):
    """Plant a zero-delay self-rescheduling callback (a livelock)."""

    def spin():
        kernel.post_after(0, spin)

    kernel.post_after(0, spin)
    return spin


def test_stall_detection_names_the_hot_callback():
    kernel = Kernel(seed=1)
    _spinner(kernel)
    started = time.perf_counter()
    with pytest.raises(LivelockError) as err:
        kernel.run()
    assert time.perf_counter() - started < 2.0
    message = str(err.value)
    assert "stalled" in message and "t=0ns" in message
    assert "spin x1" in message  # hot heap label points at the livelock
    # the guard has no setting: it trips at the constant, and the
    # accounting survives the raise
    assert kernel.events_processed == kernel_module.STALL_EVENTS == 1 << 20


def test_advancing_time_resets_the_stall_counter(monkeypatch):
    """Bursts of same-timestamp events (barriers) must not trip the guard
    as long as virtual time keeps advancing between bursts."""
    monkeypatch.setattr(kernel_module, "STALL_EVENTS", 64)
    kernel = Kernel(seed=1)
    fired = 0

    def burst():
        nonlocal fired
        fired += 1

    for t in range(20):
        for _ in range(50):  # 50 events per timestamp, under the constant
            kernel.post_at(t * 100, burst)
    assert kernel.run() == 1000 and fired == 1000

    for _ in range(128):  # twice the constant at one instant always trips
        kernel.post_at(5_000, burst)
    with pytest.raises(LivelockError, match="t=5000ns"):
        kernel.run()


def test_watchdog_fires_in_run_until_too():
    for limit in (None, 10_000_000):  # both run_until loops carry the guard
        kernel = Kernel(seed=1)
        _spinner(kernel)
        started = time.perf_counter()
        with pytest.raises(LivelockError, match="spin x1"):
            kernel.run_until(Future(name="never"), limit=limit)
        assert time.perf_counter() - started < 2.0


def test_unarmed_kernel_is_unaffected():
    kernel = Kernel(seed=1)
    fired = []
    for i in range(5):
        kernel.post_at(i * 10, fired.append, i)
    kernel.run()
    assert fired == [0, 1, 2, 3, 4]


def test_real_traffic_stays_far_below_the_constant(monkeypatch):
    """The longest run of same-instant events measured in real traffic is
    15 (ledger ``halo_pods``).  With the constant at 64, any run of 128 or
    more same-instant events raises, so the ledger's halo world and both
    legs of its lossy farm finishing pin that maximum far below 1 << 20."""
    monkeypatch.setattr(kernel_module, "STALL_EVENTS", 64)
    started = time.perf_counter()
    halo = run_app(make_halo(128 * 1024, 10), n_procs=16, n_pods=2, rpi="sctp", seed=1)
    assert halo.world.kernel.events_processed > 1000 * 64
    params = FarmParams(num_tasks=200, task_size=30 * 1024, max_work_tags=10,
                        outstanding_requests=10, fanout=10)
    for rpi in ("tcp", "sctp"):
        run_farm(params, n_procs=8, rpi=rpi, loss_rate=0.01, num_streams=10, seed=1)
    assert time.perf_counter() - started < 5.0
