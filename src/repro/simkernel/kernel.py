"""The virtual-time event loop.

A :class:`Kernel` owns the clock (integer nanoseconds), a binary heap of
timers, and the root of every named RNG stream.  It is single-threaded and
fully deterministic: two runs with the same configuration and seed produce
identical event sequences.

Hot-path design (the simulator spends most of its wall-clock time here):

* heap entries are flat tuples ``(when, seq ^ mask, obj, args)``: ``obj``
  is a bare callable with its ``args`` tuple (fire-and-forget, from
  :meth:`Kernel.post_at`), or a :class:`RestartableTimer` with ``args``
  ``None`` (every cancellable path).  One allocation per scheduled
  event.  Both kinds share the heap and the sequence counter, so event
  *order* does not depend on which a caller uses.  (DESIGN.md §9.1
  records the layouts and caches that were measured and rejected or
  removed.)
* there is one handle class.  :meth:`Kernel.timer` returns it idle, for
  protocol timers re-armed far more often than they fire
  (retransmission, delayed ACK/SACK, autoclose); :meth:`Kernel.call_at`
  and :meth:`Kernel.call_after` return it armed, for one-shots.  Restart
  and cancel only move or clear a deadline; the handle's one heap entry
  stays where it is and, if it surfaces before the deadline, re-posts
  itself there.  A handle is safe to keep and to cancel at any time.
  Later restarts and cancels push nothing, so what a handle leaves dead
  in the heap is its one tracked entry, plus one superseded entry per
  restart to an *earlier* deadline — not one per re-arm.
* live-event accounting is O(1): a counter is incremented on schedule
  and decremented on fire/cancel, so the ``pending_timers`` metrics
  probe never scans the heap.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from collections import Counter
from heapq import heappop, heappush
from typing import Any, Callable, Coroutine, Iterable, Optional

from ..analyze.sanitize import kernel_sanitizer
from ..metrics.registry import MetricsRegistry
from .futures import _PENDING, Future, Task

# timer-heap depth buckets: powers of four up to a million timers
HEAP_DEPTH_EDGES = (4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576)

# Same-time tie-break mask XORed into every heap sequence key.  0 is the
# production FIFO order; repro.analyze.perturb installs non-zero masks
# (reversal, seed-shuffle) to prove results don't depend on the order of
# equal-timestamp events.  XOR is a bijection, so keys stay unique under
# any mask.  Module-level so the race detector reaches kernels
# constructed deep inside the bench harness; individual kernels can
# override via ``tiebreak_mask=``.
DEFAULT_TIEBREAK_MASK = 0


class RestartableTimer:
    """The kernel's one cancellable handle.

    :meth:`Kernel.timer` returns it idle, for a protocol timer its owner
    keeps for life and re-arms many times between expiries;
    :meth:`Kernel.call_at` / :meth:`Kernel.call_after` return it armed.
    A handle may be kept and cancelled at any time, fired or not.  The
    contract:

    * :meth:`restart` arms (or re-arms) the timer ``delay`` ns from now,
      :meth:`cancel` disarms it; ``deadline`` is the absolute expiry, or
      ``None`` while idle.  The callback fires exactly once per arming,
      at the deadline of the *last* restart, and the timer is idle again
      before the callback runs (so the callback may restart it).
    * the handle tracks at most one heap entry.  Restarting to a later
      deadline, or cancelling, leaves that entry alone: when it surfaces
      the kernel re-posts it at the current deadline (or drops it if the
      timer is idle) without counting an event, ticking the watchdog or
      touching ``pending_events``.  Only a restart to an *earlier*
      position pushes a fresh entry; the superseded one is recognised by
      its key and dropped.
    * tie-break: every ``restart`` draws one sequence number, and the
      entry that finally fires carries the number of the last restart.
      The whole run therefore pops events in the same ``(when, seq)``
      order as it would with a fresh ``call_after`` per arming —
      same-time ties included.
    """

    __slots__ = ("deadline", "fn", "args", "_kernel", "_key", "_entry_when", "_entry_key")

    def __init__(self, kernel: "Kernel", fn: Callable, args: tuple) -> None:
        self.deadline: Optional[int] = None
        self.fn = fn
        self.args = args
        self._kernel = kernel
        self._key = 0  # heap key (seq ^ mask) drawn by the last restart
        # timestamp and key of the tracked heap entry (None: no entry)
        self._entry_when: Optional[int] = None
        self._entry_key: Optional[int] = None

    def restart(self, delay: int) -> None:
        """Arm, or re-arm, to fire ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        kernel = self._kernel
        kernel._seq = seq = kernel._seq + 1
        self._key = key = seq ^ kernel._seq_mask
        deadline = kernel._now + delay
        if self.deadline is None:
            kernel._live_events += 1
        self.deadline = deadline
        entry_when = self._entry_when
        # keep the tracked entry only while it sorts before the firing
        # position (a same-instant key can sort lower under a
        # perturbation mask, never under FIFO)
        if (
            entry_when is None
            or deadline < entry_when
            or (deadline == entry_when and key < self._entry_key)
        ):
            self._post(deadline, key)

    def cancel(self) -> None:
        """Disarm (no-op when idle)."""
        if self.deadline is not None:
            self.deadline = None
            self._kernel._live_events -= 1

    def _post(self, when: int, key: int) -> None:
        """Push the entry ``(when, key)`` and track it."""
        self._entry_when = when
        self._entry_key = key
        kernel = self._kernel
        heappush(kernel._heap, (when, key, self, None))
        hist = kernel._heap_depth_hist
        if hist is not None:
            hist.observe(len(kernel._heap))

    def _due(self, key: int) -> bool:
        """The heap entry ``key`` of this handle surfaced: fire now?

        Called by the run loops.  False for a superseded entry, an idle
        timer, or one restarted since the entry was pushed (the entry is
        then re-posted at the deadline under the last restart's key).
        """
        if key != self._entry_key:
            return False  # superseded by a restart to an earlier position
        if self.deadline is None:
            self._entry_when = self._entry_key = None
            return False
        if key != self._key:
            self._post(self.deadline, self._key)
            return False
        self.deadline = self._entry_when = self._entry_key = None
        return True


class WatchdogExpired(RuntimeError):
    """An armed kernel progress watchdog tripped.

    The message names the limit that expired (wall clock, event budget,
    or virtual-time stall), the virtual time and event count at expiry,
    and the hottest callback labels still queued — enough to tell a
    retransmission storm from a livelocked barrier without re-running
    under a profiler.
    """


def _hot_heap_labels(heap: list, top: int = 5) -> str:
    """The most common live callback labels queued in ``heap``.

    Diagnostic for :class:`WatchdogExpired`: the machinery flooding the
    heap is almost always the machinery that livelocked.
    """
    counts: Counter = Counter()
    for entry in heap:
        fn = entry[2]
        if entry[3] is None:  # a handle: skip idle and superseded entries
            if fn.deadline is None or entry[1] != fn._entry_key:
                continue
            fn = fn.fn
        counts[getattr(fn, "__qualname__", None) or repr(fn)] += 1
    if not counts:
        return "(heap empty)"
    return ", ".join(f"{name} x{n}" for name, n in counts.most_common(top))


class _Watchdog:
    """Armed progress limits for one kernel (:meth:`Kernel.arm_watchdog`).

    One ``tick(when)`` per fired event, guarded by the same is-None test
    the sanitizer uses, so a kernel without a watchdog pays nothing.
    Wall-clock reads are amortised over ``check_every`` events; the
    event and stall counters are plain integer arithmetic.
    """

    __slots__ = ("kernel", "max_wall_s", "started", "max_events", "count",
                 "max_stall_events", "stall", "last_now", "check_every",
                 "until_wall")

    def __init__(self, kernel: "Kernel", max_wall_s: Optional[float],
                 max_events: Optional[int], max_stall_events: Optional[int],
                 check_every: int) -> None:
        self.kernel = kernel
        self.max_wall_s = max_wall_s
        self.started = (
            time.monotonic()  # repro: allow[AN101] — watchdog wall budget
            if max_wall_s is not None else 0.0
        )
        self.max_events = max_events
        self.count = 0
        self.max_stall_events = max_stall_events
        self.stall = 0
        self.last_now = -1
        self.check_every = check_every
        self.until_wall = check_every

    def tick(self, when: int) -> None:
        self.count += 1
        if self.max_stall_events is not None:
            if when != self.last_now:
                self.last_now = when
                self.stall = 0
            else:
                self.stall += 1
                if self.stall >= self.max_stall_events:
                    self._expire(
                        f"virtual time stalled: {self.stall + 1} consecutive "
                        f"events at t={when}ns (livelock — something is "
                        "rescheduling itself with zero delay)"
                    )
        if self.max_events is not None and self.count >= self.max_events:
            self._expire(f"event budget exhausted ({self.max_events} events)")
        if self.max_wall_s is not None:
            self.until_wall -= 1
            if self.until_wall <= 0:
                self.until_wall = self.check_every
                elapsed = (
                    time.monotonic()  # repro: allow[AN101] — watchdog wall budget
                    - self.started
                )
                if elapsed > self.max_wall_s:
                    self._expire(
                        f"wall-clock budget exhausted "
                        f"({elapsed:.1f}s > {self.max_wall_s:g}s)"
                    )

    def _expire(self, reason: str) -> None:
        kernel = self.kernel
        kernel._watchdog = None  # disarm so cleanup code can't re-trip it
        raise WatchdogExpired(
            f"kernel watchdog expired at t={kernel.now}ns after "
            f"{self.count} events: {reason}; pending events: "
            f"{kernel.pending_events()}, hot heap labels: "
            f"{_hot_heap_labels(kernel._heap)}"
        )


def _watchdog_env() -> Optional[dict]:
    """Parse ``REPRO_WATCHDOG=wall=30,events=1e6,stall=100000[,every=N]``.

    Evaluated once at import; every kernel constructed in the process
    auto-arms with these limits (the CI/sweep "no run hangs forever"
    safety net — per-kernel :meth:`Kernel.arm_watchdog` overrides it).
    """
    spec = os.environ.get("REPRO_WATCHDOG", "").strip()
    if not spec:
        return None
    limits: dict = {"wall": None, "events": None, "stall": None, "every": 1024}
    for part in spec.split(","):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in limits:
            raise ValueError(
                f"REPRO_WATCHDOG: expected wall=/events=/stall=/every= "
                f"terms, got {part!r}"
            )
        limits[key] = float(value) if key == "wall" else int(float(value))
    if all(limits[k] is None for k in ("wall", "events", "stall")):
        raise ValueError("REPRO_WATCHDOG: set at least one of wall/events/stall")
    return limits


_ENV_WATCHDOG = _watchdog_env()


class Kernel:
    """Discrete-event loop with an integer nanosecond virtual clock."""

    def __init__(
        self,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        tiebreak_mask: Optional[int] = None,
    ) -> None:
        self.seed = seed
        self._now = 0
        # entries are flat (when, seq ^ mask, handle, None) from a
        # RestartableTimer, or (when, seq ^ mask, fn, args) from post_at
        # (args is always a tuple there, so ``args is None`` tells the two
        # apart); (when, seq ^ mask) is unique so the third element is
        # never compared
        self._heap: list[tuple] = []
        self._seq = 0
        self._seq_mask = (
            DEFAULT_TIEBREAK_MASK if tiebreak_mask is None else tiebreak_mask
        )
        # None unless REPRO_SANITIZE / enable_sanitizers() is on, so the
        # run loops pay one is-None test per event (the metrics pattern)
        self._san = kernel_sanitizer(self)
        # None unless armed (arm_watchdog / REPRO_WATCHDOG): same pattern
        self._watchdog: Optional[_Watchdog] = None
        if _ENV_WATCHDOG is not None:
            self.arm_watchdog(
                max_wall_s=_ENV_WATCHDOG["wall"],
                max_events=_ENV_WATCHDOG["events"],
                max_stall_events=_ENV_WATCHDOG["stall"],
                check_every=_ENV_WATCHDOG["every"],
            )
        self._events_processed = 0
        self._live_events = 0  # scheduled, not yet fired or cancelled
        self._tasks: list[Task] = []
        self._rng_cache: dict[str, random.Random] = {}
        # The kernel owns the metrics registry every layer registers into.
        # Metric registration never touches the RNG machinery, so streams
        # are identical whether or not a simulation is instrumented.
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        scope = self.metrics.scope("kernel")
        scope.probe("events_processed", lambda: self._events_processed)
        scope.probe("pending_timers", self.pending_events)
        scope.probe("tasks_spawned", lambda: len(self._tasks))
        scope.probe("now_ns", lambda: self._now)
        # heap-depth histogram observed on every schedule; None when the
        # registry is disabled so the hot path pays only this check
        self._heap_depth_hist = (
            scope.histogram("timer_heap_depth", HEAP_DEPTH_EDGES)
            if self.metrics.enabled
            else None
        )

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds since simulation start."""
        return self._now

    # -- randomness ------------------------------------------------------
    def rng(self, label: str) -> random.Random:
        """A reproducible RNG stream named ``label``.

        The stream seed is a stable hash of ``(kernel seed, label)`` so
        adding a new consumer never perturbs existing streams.  Streams
        are cached per label: asking twice for the same label returns the
        *same* generator (continuing its sequence), and the SHA-256
        derivation is paid once per label, not once per call.
        """
        stream = self._rng_cache.get(label)
        if stream is None:
            digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
            stream = random.Random(int.from_bytes(digest[:8], "big"))
            self._rng_cache[label] = stream
        return stream

    # -- scheduling ------------------------------------------------------
    def call_at(self, when: int, fn: Callable, *args: Any) -> RestartableTimer:
        """Schedule ``fn(*args)`` at absolute virtual time ``when``."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: {when} < {self._now}")
        return self.call_after(when - self._now, fn, *args)

    def call_after(self, delay: int, fn: Callable, *args: Any) -> RestartableTimer:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds."""
        timer = RestartableTimer(self, fn, args)
        timer.restart(delay)
        return timer

    def post_at(self, when: int, fn: Callable, *args: Any) -> None:
        """Fire-and-forget :meth:`call_at`: no cancellable handle.

        The cheap-construction scheduling path for high-churn callers
        (per-packet link/CPU completions) that never cancel: one flat
        heap tuple is the only allocation.  Ordering is identical to
        ``call_at`` — both share the clock and sequence counter.
        """
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: {when} < {self._now}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (when, seq ^ self._seq_mask, fn, args))
        self._live_events += 1
        hist = self._heap_depth_hist
        if hist is not None:
            hist.observe(len(self._heap))

    def post_after(self, delay: int, fn: Callable, *args: Any) -> None:
        """Fire-and-forget :meth:`call_after` (see :meth:`post_at`).

        Every Dummynet pipe transfer and compute-phase sleep lands here
        (link hops and packet CPU completions use :meth:`post_at`; a
        ``HostCPU.charge`` is pure arithmetic and lands in no heap), so
        the :meth:`post_at` body is inlined rather than delegated.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now + delay, seq ^ self._seq_mask, fn, args))
        self._live_events += 1
        hist = self._heap_depth_hist
        if hist is not None:
            hist.observe(len(self._heap))

    def timer(self, fn: Callable, *args: Any) -> RestartableTimer:
        """An idle :class:`RestartableTimer` that will call ``fn(*args)``."""
        return RestartableTimer(self, fn, args)

    def call_window(
        self,
        start: int,
        end: Optional[int],
        on_fn: Callable,
        off_fn: Callable,
    ) -> tuple:
        """Run ``on_fn`` at ``start`` and ``off_fn`` at ``end``.

        The primitive behind fault-scenario arming (repro.faults): a
        window that is already open (``start <= now``) switches on
        immediately; ``end=None`` means the window never closes.
        Returns ``(start_timer, end_timer)`` with ``None`` for legs that
        ran inline or don't exist.
        """
        if end is not None and end <= start:
            raise ValueError(f"empty window: [{start}, {end})")
        if end is not None and end <= self._now:
            on_fn()  # the whole window is in the past: open and close
            off_fn()
            return None, None
        if start <= self._now:
            on_fn()
            start_timer = None
        else:
            start_timer = self.call_at(start, on_fn)
        end_timer = self.call_at(end, off_fn) if end is not None else None
        return start_timer, end_timer

    def sleep(self, delay: int) -> Future:
        """Future that completes ``delay`` ns from now (``await kernel.sleep(d)``)."""
        fut = Future(name="sleep")  # static name: one sleep per compute phase
        self.post_after(delay, fut.set_result, None)
        return fut

    def spawn(self, coro: Coroutine, name: str = "") -> Task:
        """Wrap a coroutine into a task and start it immediately."""
        task = Task(coro, name=name)
        self._tasks.append(task)
        task.start()
        return task

    # -- watchdog --------------------------------------------------------
    def arm_watchdog(
        self,
        *,
        max_wall_s: Optional[float] = None,
        max_events: Optional[int] = None,
        max_stall_events: Optional[int] = None,
        check_every: int = 1024,
    ) -> None:
        """Arm opt-in progress limits checked from inside the run loops.

        * ``max_wall_s`` — real seconds this kernel may spend firing
          events (read every ``check_every`` events, so granularity is
          coarse by design);
        * ``max_events`` — total events this watchdog will allow;
        * ``max_stall_events`` — consecutive events at an *unchanged*
          virtual ``now`` before the run is declared livelocked (pick a
          value well above legitimate same-timestamp bursts — barriers
          firing a whole rank set at one instant are normal);

        Tripping any limit raises :class:`WatchdogExpired` with the hot
        heap labels, instead of the run spinning forever.  This is the
        layer that catches *pure-Python* livelocks, which the process
        supervisor's heartbeat cannot see (a spinning event loop still
        heartbeats); conversely a SIGSTOP'd or C-stuck process never
        reaches these checks, which is the heartbeat's job — the two are
        complements, not alternatives.

        Arming takes effect when a run loop is next entered; determinism
        is unaffected (the watchdog observes, and either raises or
        changes nothing).
        """
        if max_wall_s is None and max_events is None and max_stall_events is None:
            raise ValueError("arm_watchdog: set at least one limit")
        for name, value in (("max_wall_s", max_wall_s),
                            ("max_events", max_events),
                            ("max_stall_events", max_stall_events)):
            if value is not None and value <= 0:
                raise ValueError(f"arm_watchdog: {name} must be positive: {value}")
        if check_every < 1:
            raise ValueError(f"arm_watchdog: check_every must be >= 1: {check_every}")
        self._watchdog = _Watchdog(
            self, max_wall_s, max_events, max_stall_events, check_every
        )

    def disarm_watchdog(self) -> None:
        """Remove any armed watchdog (effective at the next run entry)."""
        self._watchdog = None

    # -- running ---------------------------------------------------------
    def next_event_time(self) -> Optional[int]:
        """Timestamp of the earliest queued entry, or None when idle.

        Conservative: the head may belong to a cancelled or restarted
        handle (its timestamp is a lower bound on the next real event),
        which is exactly what the parallel-DES lookahead computation
        needs.
        """
        heap = self._heap
        return heap[0][0] if heap else None

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Process events until the heap drains, ``until`` is reached, or
        ``max_events`` fire.  Returns the number of events processed."""
        heap = self._heap
        san = self._san
        wd = self._watchdog
        processed = 0
        try:
            while heap:
                entry = heap[0]
                when = entry[0]
                if until is not None and when > until:
                    if until > self._now:
                        self._now = until
                    return processed
                heappop(heap)
                fn = entry[2]
                args = entry[3]
                if args is None:  # a handle, not a bare callable
                    if not fn._due(entry[1]):
                        continue
                    args = fn.args
                    fn = fn.fn
                self._live_events -= 1
                if san is not None:
                    san.on_fire(when)
                self._now = when
                fn(*args)
                processed += 1
                # ticked after the event fired so the heap shows its
                # effects (a livelock's re-post is visible in the dump)
                if wd is not None:
                    wd.tick(when)
                if max_events is not None and processed >= max_events:
                    return processed
            if until is not None and until > self._now:
                self._now = until
            return processed
        finally:
            self._events_processed += processed

    def run_until(self, fut: Future, limit: Optional[int] = None) -> Any:
        """Run until ``fut`` completes; raise if the simulation stalls first.

        This is the driver every ``World.run`` sits in, so the one-event
        step is inlined rather than paying a full :meth:`run` call per
        event (frame setup, try/finally, loop re-entry); semantics and
        event order are identical to ``run(max_events=1)`` in a loop.
        """
        heap = self._heap
        san = self._san
        wd = self._watchdog
        ceiling = float("inf") if limit is None else limit
        processed = 0
        try:
            # fut._state check == Future.done(), minus a method call per event
            while fut._state is _PENDING:
                if not heap:
                    raise DeadlockError(
                        f"event heap drained at t={self._now}ns but {fut!r} is "
                        "still pending (simulation deadlock)"
                    )
                entry = heap[0]
                when = entry[0]
                if when > ceiling:
                    raise TimeoutError(
                        f"{fut!r} still pending at virtual time limit {limit}ns"
                    )
                heappop(heap)
                fn = entry[2]
                args = entry[3]
                if args is None:  # a handle, not a bare callable
                    if not fn._due(entry[1]):
                        continue
                    args = fn.args
                    fn = fn.fn
                self._live_events -= 1
                if san is not None:
                    san.on_fire(when)
                self._now = when
                fn(*args)
                processed += 1
                if wd is not None:
                    wd.tick(when)
        finally:
            self._events_processed += processed
        return fut.result()

    @property
    def events_processed(self) -> int:
        """Total events fired over the kernel's lifetime (for diagnostics)."""
        return self._events_processed

    def pending_events(self) -> int:
        """Live (non-cancelled) events still queued — O(1), maintained."""
        return self._live_events

    def failed_tasks(self) -> Iterable[Task]:
        """Tasks that completed with an exception (useful in test asserts)."""
        return [
            t
            for t in self._tasks
            if t.done() and not t.cancelled() and t.exception() is not None
        ]

    def check_tasks(self) -> None:
        """Re-raise the first exception stored in any spawned task."""
        for task in self.failed_tasks():
            raise task.exception()


class DeadlockError(RuntimeError):
    """The event heap drained while some awaited future was still pending."""
