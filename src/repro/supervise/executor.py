"""Supervised child-process map: the crash/hang-tolerant fan-out core.

``supervised_map`` runs one child **process per task attempt** (never a
shared pool: a crashing task must not take neighbours with it) under a
:class:`SupervisePolicy`:

* **crash detection** — the child's exit code: a worker that dies
  without delivering a result (``os._exit``, a signal, an OOM kill) is
  a ``crash`` outcome, not a lost sweep;
* **hang detection** — a daemon heartbeat thread in the child beats on
  the result pipe every :data:`HEARTBEAT_S`; heartbeat silence longer
  than ``hang_timeout_s`` means the *process* is stuck (SIGSTOP'd,
  D-state, spinning in a GIL-holding extension) and it is killed and
  retried.  A pure-Python livelock keeps heartbeating — that failure
  mode is the kernel watchdog's job
  (:meth:`repro.simkernel.Kernel.arm_watchdog`);
* **deadline** — a per-attempt wall-clock cap (``deadline_s``) bounds
  everything else;
* **bounded deterministic retry** — crashed, hung and timed-out
  attempts are retried up to ``max_attempts`` with seeded exponential
  backoff (:func:`backoff_delay`): the delay is a pure function of
  ``(task id, attempt)`` via the same SHA-256 stream-derivation
  discipline ``repro.faults`` and ``Kernel.rng`` use, so a retry
  schedule is reproducible run to run;
* **quarantine** — a task that exhausts its attempts is quarantined:
  its slot in the result list is ``None`` and the failure manifest
  records every attempt, so a sweep salvages the surviving cells
  instead of losing the run.

Results always come back in **input order** (never completion order),
which is what keeps every merged document byte-identical to its serial
counterpart.  Deterministic worker *exceptions* (``error`` outcomes)
are never retried — a deterministic simulation fails the same way every
time — and neither is a result that cannot be pickled back to the
parent, which is reported as an ``error`` naming the pickling failure.
"""

# This module supervises real processes, so it is legitimately
# wall-clock-driven; nothing here runs inside a simulated world.
# repro: allow-file[AN101]

from __future__ import annotations

import hashlib
import heapq
import pickle
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection, get_all_start_methods, get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# attempt outcomes
OK = "ok"
CRASH = "crash"  # process exited without delivering a result
HANG = "hang"  # heartbeat silence exceeded hang_timeout_s
DEADLINE = "deadline"  # attempt exceeded deadline_s wall seconds
ERROR = "error"  # the task raised, or its result could not be pickled

HEARTBEAT_S = 0.2  # child heartbeat period
# retry backoff: the cap doubles from 50 ms per attempt up to 2 s
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 2.0
BACKOFF_SEED = 0  # jitter stream seed

_MONITOR_TICK_S = 0.05  # coordinator poll granularity


class SuperviseError(RuntimeError):
    """A supervised fan-out failed in strict (no-quarantine) mode."""


@dataclass(frozen=True)
class SupervisePolicy:
    """How hard to defend one fan-out against failing workers.

    The defaults are deliberately conservative: three attempts, no
    deadline and no hang detection unless asked for — arming a
    wall-clock limit on a machine-speed-dependent workload is a caller
    decision.
    """

    max_attempts: int = 3
    deadline_s: Optional[float] = None  # per-attempt wall cap
    hang_timeout_s: Optional[float] = None  # heartbeat silence => hung

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")


# the stance for deterministic simulations: a failed attempt would fail
# identically again, so no retry and no deadline — pair with
# SupervisedOutcome.unwrap() to turn the first lost task into an error
STRICT = SupervisePolicy(max_attempts=1)


@dataclass
class SupervisedOutcome:
    """One fan-out's results plus what the supervisor had to do."""

    results: List[Optional[Any]]  # input order; None where quarantined
    manifest: List[Dict[str, Any]]  # one record per task that failed at all
    quarantined: List[str] = field(default_factory=list)  # task ids lost

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def unwrap(self) -> List[Any]:
        """Strict reading: every result, or :class:`SuperviseError` naming
        the first lost task with its last attempt's traceback or exit code."""
        if self.quarantined:
            first = next(
                rec for rec in self.manifest if rec["outcome"] == "quarantined"
            )
            raise SuperviseError(
                f"worker for task {first['task']} failed "
                f"({len(self.quarantined)} of {len(self.results)} tasks lost): "
                f"{first['attempts'][-1]['detail']}"
            )
        return self.results


def backoff_delay(task_id: str, attempt: int) -> float:
    """Deterministic jittered exponential backoff before retry ``attempt + 1``.

    A pure function of ``(task_id, attempt)``: the cap grows as
    ``BACKOFF_BASE_S * BACKOFF_FACTOR**(attempt-1)`` (clamped to
    ``BACKOFF_MAX_S``) and the jitter fraction comes from a SHA-256
    derivation — the same discipline ``Kernel.rng`` uses for named
    streams — so two runs of the same failing sweep retry on the same
    schedule.  The delay lands in ``[cap/2, cap)``.
    """
    cap = min(BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1), BACKOFF_MAX_S)
    digest = hashlib.sha256(f"{BACKOFF_SEED}:{task_id}:{attempt}".encode()).digest()
    frac = int.from_bytes(digest[:8], "big") / 2**64
    return cap * (0.5 + 0.5 * frac)


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------


def _child_main(conn: Any, fn: Callable, item: Any) -> None:
    """Worker body: heartbeat while running ``fn(item)``, send the result."""
    send_lock = threading.Lock()
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(HEARTBEAT_S):
            try:
                with send_lock:
                    conn.send(("hb",))
            except OSError:  # parent gone; nothing left to report to
                return

    threading.Thread(target=beat, daemon=True, name="supervise-heartbeat").start()
    try:
        payload = ("ok", fn(item))
    except BaseException:
        payload = ("err", f"task raised:\n{traceback.format_exc()}")
    # pickle here, not inside send: an unpicklable result is the task's
    # deterministic error, not a crash to retry
    try:
        data = pickle.dumps(payload)
    except Exception:
        data = pickle.dumps(
            ("err", f"result could not be pickled:\n{traceback.format_exc()}")
        )
    stop.set()
    try:
        with send_lock:
            conn.send_bytes(data)
    except OSError:  # pragma: no cover - parent died first
        pass
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class _Active:
    """One running attempt: process, pipe, and its wall bookkeeping."""

    __slots__ = ("proc", "conn", "index", "task_id", "attempt", "started", "last_hb")

    def __init__(self, proc, conn, index: int, task_id: str, attempt: int) -> None:
        self.proc = proc
        self.conn = conn
        self.index = index
        self.task_id = task_id
        self.attempt = attempt
        self.started = time.monotonic()
        self.last_hb = self.started


def _context():
    if "fork" in get_all_start_methods():
        return get_context("fork")
    return get_context()


def _reap(proc) -> None:
    """Terminate-and-reap one worker, escalating to SIGKILL.

    SIGTERM stays pending on a stopped (SIGSTOP'd) process, so hung
    workers are unstuck with SIGKILL, which stopped processes cannot
    block.
    """
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=0.5)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=5)


def supervised_map(
    fn: Callable,
    items: Sequence,
    jobs: int = 1,
    policy: Optional[SupervisePolicy] = None,
    task_ids: Optional[Sequence[str]] = None,
) -> SupervisedOutcome:
    """Run ``fn`` over ``items`` in supervised child processes.

    Up to ``jobs`` attempts run concurrently; each task is retried per
    ``policy`` and quarantined when its attempts are exhausted.
    ``task_ids`` names the tasks in manifests (defaults to the item
    index); ``fn`` must be a module-level callable and ``items`` plain
    data so spawn-based platforms can address the work.

    Unlike a bare ``Pool.map`` this never loses the whole fan-out to one
    bad worker — and unlike a bare ``Pool.map`` it survives a worker
    calling ``os._exit`` mid-task.
    """
    policy = policy if policy is not None else SupervisePolicy()
    n = len(items)
    ids = [str(t) for t in task_ids] if task_ids is not None else [
        str(i) for i in range(n)
    ]
    if len(ids) != n:
        raise ValueError(f"{len(ids)} task ids for {n} items")
    results: List[Optional[Any]] = [None] * n
    succeeded = [False] * n
    attempts_log: List[List[Dict[str, Any]]] = [[] for _ in range(n)]
    if n == 0:
        return SupervisedOutcome(results=[], manifest=[])

    ctx = _context()
    slots = max(1, jobs)
    ready: deque = deque((i, 1) for i in range(n))
    delayed: List[Tuple[float, int, int]] = []  # (not_before, index, attempt)
    active: Dict[int, _Active] = {}  # index -> running attempt

    def launch(index: int, attempt: int) -> None:
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_child_main,
            args=(child, fn, items[index]),
            daemon=True,
            name=f"supervise-{ids[index]}-a{attempt}",
        )
        proc.start()
        child.close()
        active[index] = _Active(proc, parent, index, ids[index], attempt)

    def settle(worker: _Active, outcome: str, detail: str, value: Any = None) -> None:
        """Record one finished attempt and decide success/retry/quarantine."""
        index = worker.index
        del active[index]
        _reap(worker.proc)
        worker.conn.close()
        if outcome == OK:
            results[index] = value
            succeeded[index] = True
            if attempts_log[index]:  # only tasks that failed at all log OK
                attempts_log[index].append(
                    {"attempt": worker.attempt, "outcome": OK, "detail": detail}
                )
            return
        attempts_log[index].append(
            {"attempt": worker.attempt, "outcome": outcome, "detail": detail}
        )
        if outcome != ERROR and worker.attempt < policy.max_attempts:
            not_before = time.monotonic() + backoff_delay(
                worker.task_id, worker.attempt
            )
            heapq.heappush(delayed, (not_before, index, worker.attempt + 1))

    def service(worker: _Active) -> None:
        """Drain one worker's pipe; settle it if a result or EOF arrived."""
        while worker.index in active:
            try:
                if not worker.conn.poll(0):
                    return
                msg = worker.conn.recv()
            except (EOFError, OSError):
                # pipe closed without a result: the process crashed
                worker.proc.join(timeout=5)
                code = worker.proc.exitcode
                settle(worker, CRASH, f"worker exited with code {code} before a result")
                return
            if msg[0] == "hb":
                worker.last_hb = time.monotonic()
            elif msg[0] == "ok":
                settle(worker, OK, "completed", value=msg[1])
            else:  # ("err", detail)
                settle(worker, ERROR, msg[1])

    while ready or delayed or active:
        now = time.monotonic()
        while delayed and delayed[0][0] <= now:
            _, index, attempt = heapq.heappop(delayed)
            ready.append((index, attempt))
        while ready and len(active) < slots:
            index, attempt = ready.popleft()
            launch(index, attempt)
        if not active:
            # everything runnable is waiting out a backoff delay
            time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
            continue
        waitables = [w.conn for w in active.values()]
        waitables += [w.proc.sentinel for w in active.values()]
        try:
            connection.wait(waitables, timeout=_MONITOR_TICK_S)
        except OSError:  # pragma: no cover - a sentinel raced its reap
            pass
        # service pipes first: a child that sent its result and exited
        # has both its pipe and its sentinel ready, and the pipe wins
        for worker in list(active.values()):
            service(worker)
        # then look for silent deaths (sentinel fired, pipe empty+EOF
        # is caught by service above on the next pass) and wall limits
        now = time.monotonic()
        for worker in list(active.values()):
            if not worker.proc.is_alive():
                service(worker)  # drains EOF -> crash
                continue
            if (
                policy.deadline_s is not None
                and now - worker.started > policy.deadline_s
            ):
                settle(
                    worker,
                    DEADLINE,
                    f"attempt exceeded the {policy.deadline_s:g}s wall deadline",
                )
            elif (
                policy.hang_timeout_s is not None
                and now - worker.last_hb > policy.hang_timeout_s
            ):
                settle(
                    worker,
                    HANG,
                    f"no heartbeat for more than {policy.hang_timeout_s:g}s",
                )

    # manifest and quarantine list in input order, never completion order
    manifest = [
        {
            "task": ids[i],
            "outcome": "recovered" if succeeded[i] else "quarantined",
            "attempts": attempts_log[i],
        }
        for i in range(n)
        if attempts_log[i]
    ]
    quarantined = [ids[i] for i in range(n) if not succeeded[i]]
    return SupervisedOutcome(
        results=results, manifest=manifest, quarantined=quarantined
    )
