"""RestartableTimer: the one handle behind every protocol timer.

The contract (see the class docstring): fires once per arming at the
deadline of the last restart; restart/cancel leave the tracked heap entry
where it is; an entry that surfaces early is re-posted, uncounted; and
the whole run pops events in exactly the order a fresh ``call_after``
per arming would have produced.
"""

import hashlib
import random

import pytest

from repro.analyze.checkers import KernelSanitizer
from repro.analyze.perturb import tiebreak
from repro.analyze.sanitize import sanitized
from repro.simkernel import Kernel, RestartableTimer
from repro.simkernel import kernel as kernel_module
from repro.simkernel.futures import Future
from repro.simkernel.kernel import DeadlockError, _hot_heap_labels


def _recording(k):
    fired = []
    return fired, k.timer(lambda: fired.append(k.now))


def test_restart_later_fires_once_at_the_final_deadline():
    k = Kernel()
    fired, timer = _recording(k)
    assert isinstance(timer, RestartableTimer) and timer.deadline is None
    timer.restart(100)
    for at in (10, 20, 30):
        k.post_at(at, timer.restart, 100)
    assert len(k._heap) == 4  # one entry for the timer, three posts
    k.run()
    assert fired == [130]
    assert timer.deadline is None
    # 3 posts + 1 expiry: the entry surfacing early at t=100 is not an event
    assert k.events_processed == 4


def test_restart_earlier_fires_at_the_earlier_deadline_only():
    k = Kernel()
    fired, timer = _recording(k)
    timer.restart(1_000)
    k.post_at(10, timer.restart, 50)
    k.run()
    assert fired == [60]
    # the superseded entry drained without moving the clock
    assert k.now == 60 and not k._heap
    assert k.events_processed == 2 and k.pending_events() == 0


def test_cancel_then_rearm():
    k = Kernel()
    fired, timer = _recording(k)
    timer.restart(100)
    k.post_at(10, timer.cancel)
    k.post_at(20, timer.restart, 30)  # earlier than the stale entry
    k.post_at(60, timer.restart, 200)  # idle again by now; later than it
    k.run()
    assert fired == [50, 260]


def test_callback_may_restart_its_own_timer():
    k = Kernel()
    fired = []

    def tick():
        fired.append(k.now)
        if len(fired) < 3:
            timer.restart(7)

    timer = k.timer(tick)
    timer.restart(7)
    k.run()
    assert fired == [7, 14, 21]


def test_cancel_leaves_no_live_event():
    k = Kernel()
    fired, timer = _recording(k)
    timer.restart(100)
    assert k.pending_events() == 1
    timer.restart(500)
    assert k.pending_events() == 1
    timer.cancel()
    timer.cancel()  # idempotent
    assert k.pending_events() == 0
    # deadlock detection sees through the stale entry
    with pytest.raises(DeadlockError):
        k.run_until(Future(name="never"))
    assert fired == [] and k.events_processed == 0 and not k._heap


def test_stale_entries_neither_count_nor_tick_the_watchdog(monkeypatch):
    k = Kernel()
    fired, timer = _recording(k)
    timer.restart(10)
    timer.restart(20)
    timer.restart(30)  # surfaces at 10, re-posts at 30: one event in all
    k.run()
    assert fired == [30] and k.events_processed == 1
    # with the livelock check on every event, each counted event must move
    # the clock; five dead entries at the real event's instant count for
    # nothing, so nothing trips
    monkeypatch.setattr(kernel_module, "STALL_EVENTS", 1)
    for _ in range(5):
        dead = k.timer(lambda: None)
        dead.restart(10)
        dead.cancel()
    k.post_after(10, lambda: None)
    k.post_after(20, lambda: None)
    assert k.run() == 2 and k.events_processed == 3


def test_watchdog_dump_labels_armed_timers_only():
    k = Kernel()

    def retransmit():
        pass

    def delayed_ack():
        pass

    k.timer(retransmit).restart(50)
    idle = k.timer(delayed_ack)
    idle.restart(60)
    idle.cancel()  # its entry is still queued, but it is not pending work
    k.post_at(1, lambda: None)
    labels = _hot_heap_labels(k._heap)
    assert "retransmit x1" in labels and "<lambda> x1" in labels
    assert "delayed_ack" not in labels


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Kernel().timer(lambda: None).restart(-1)


# ---------------------------------------------------------------------------
# exact equivalence with a fresh one-shot per arming
# ---------------------------------------------------------------------------
class _CancelAndCallAfter:
    """Reference: a fresh handle per arming never takes the re-post or
    supersede branch, so it checks them independently."""

    def __init__(self, kernel, fn, *args):
        self.kernel, self.fn, self.args = kernel, fn, args
        self.timer = None

    def restart(self, delay):
        if self.timer is not None:
            self.timer.cancel()
        self.timer = self.kernel.call_after(delay, self._fire)

    def cancel(self):
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def _fire(self):
        self.timer = None
        self.fn(*self.args)


def _churn(make_timer, seed, tiebreak_mask):
    """Several timers restarted/cancelled at random among plain events,
    with delays drawn from a tiny set so same-instant ties are constant."""
    with tiebreak(tiebreak_mask):
        k = Kernel()
    rng = random.Random(seed)
    log = []
    timers = [make_timer(k, log.append, ("timer", i)) for i in range(4)]

    def step(n):
        log.append(("step", n, k.now, k.pending_events()))
        timer = rng.choice(timers)
        if rng.random() < 0.2:
            timer.cancel()
        else:
            timer.restart(rng.choice((0, 5, 5, 10, 20, 40)))
        if n:
            k.post_after(rng.choice((0, 5, 5, 10)), step, n - 1)

    k.post_at(0, step, 300)
    k.post_at(0, step, 300)
    k.run()
    return log, k.events_processed, k.now


_LIFO = (1 << 40) - 1

# sha256(repr(_churn(...))) taken at the last commit where call_after
# returned an independent pooled one-shot class, i.e. where the reference
# side shared no code with the handle under test
_CHURN_SHA256 = {
    (0, 0): "2da59ffbfce341e2e296d404a5dd0d90373a30c6c9b4808db1d31109f9747ce2",
    (1, 0): "757706ab4c48d8e47e3eb5b824ba58afb6a62b5c5e72455e671329b9113e9124",
    (2, 0): "9fff4463208eef6149dd65717a6c30a8b2988c29c6a7ee5bc41eed0bf3a968b8",
    (3, 0): "971584a9d0d83827fc3cf8064070ab74b5edf7c9aef00aff444cd9743557163c",
    (4, 0): "cdeb243c283cb87cff1901bb0c2d8fc7ffb9258dca06388c3fbf489c6f2d5afc",
    (0, _LIFO): "f91c9fb7558e77bf179b00c311d08811b12454ae0f3927abb0dd2902e6e0a4bb",
    (1, _LIFO): "a89360f2884995b505a542ac44e55d16224ff36ebf096d91339a731268ad8116",
    (2, _LIFO): "7f39a09214322733bcc2be6b6b252e30617cca24f38d4429206d99032c249c11",
    (3, _LIFO): "95b5ce1ab0d40891ef7b5e99bf3388162d9b2f603847b8d987c87837beaf96f8",
    (4, _LIFO): "5233bd43c5501c733fbf7de9349ab8dbabccb9a55dc604431da8ffbe284e1ac0",
}


@pytest.mark.parametrize("tiebreak_mask", [0, _LIFO])
@pytest.mark.parametrize("seed", range(5))
def test_event_order_identical_to_cancel_and_call_after(seed, tiebreak_mask):
    got = _churn(lambda k, fn, arg: k.timer(fn, arg), seed, tiebreak_mask)
    want = _churn(_CancelAndCallAfter, seed, tiebreak_mask)
    assert got == want
    assert hashlib.sha256(repr(got).encode()).hexdigest() == _CHURN_SHA256[seed, tiebreak_mask]
    assert sum(1 for entry in got[0] if entry[0] == "timer") > 50


# ---------------------------------------------------------------------------
# sanitizers: the heap audit alongside restarted, cancelled and one-shot handles
# ---------------------------------------------------------------------------
def test_heap_audit_and_pool_poison_checks_pass_with_restartable_timers(monkeypatch):
    # full heap audit on every fired event
    monkeypatch.setattr(KernelSanitizer, "AUDIT_EVERY", 1)
    with sanitized():
        k = Kernel()
        fired, timer = _recording(k)
        other = k.timer(lambda: None)
        for at in range(0, 400, 10):
            k.post_at(at, timer.restart, 25 if at % 40 else 5)
            k.post_at(at, k.call_after(15, lambda: None).cancel)  # one-shots too
            k.post_at(at, other.restart, 1_000)
        k.post_at(395, other.cancel)
        k.run()
        k._san.audit()
        assert fired and k.pending_events() == 0


def test_sanitized_lossy_worlds_run_clean():
    from repro.core.world import World, WorldConfig
    from repro.workloads.mpbench import make_pingpong

    with sanitized():
        for rpi in ("tcp", "sctp"):
            world = World(WorldConfig(n_procs=2, rpi=rpi, loss_rate=0.02, seed=4))
            world.run(make_pingpong(30 * 1024, 10))
            world.kernel._san.audit()
