"""Conservative parallel DES: one world, sharded across processes.

``bench.parallel`` fans the *cell matrix* out over cores; this module
parallelises a single large world.  The design is classic conservative
(CMB-style) windowed synchronisation:

* every shard builds an **identical full replica** of the world (same
  seed, same construction order, so every RNG stream, vtag, and cookie
  secret matches), but only *spawns* the MPI ranks it owns;
* links whose transmitter and receiver live on different shards are
  **cut**: a packet they accept is diverted, with its computed delivery
  time, into an outbox instead of being scheduled onto the local sink
  (:attr:`Link.divert`);
* the minimum propagation delay over the cut links is the **lookahead**
  ``L``: an event executed at time ``t`` can only cause a cross-shard
  delivery at ``t + L`` or later (later by the serialisation time, in
  fact, since the divert happens when the packet is accepted), so all
  shards may safely run the window ``[.., M + L - 1]`` where ``M`` is
  the global minimum next-event time;
* between windows a coordinator exchanges outboxes and each shard posts
  the inbound packets at their propagation-arrival times, sorted by
  ``(deliver_time, link_name)`` so the merge order is deterministic;
* both the serial (``n_shards=1``) and sharded paths run to the same
  fixed virtual **horizon**, so they fire the exact same global event
  set and the merged metrics are bit-identical (schedule-sensitive
  keys — heap depths, queue-occupancy histograms — are filtered the
  same way the perturbation gate filters them, since per-shard heap
  shapes legitimately differ).

Shard assignment is contiguous by rank (``rank * n_shards // n_procs``)
and each switch lives with the shard of its pod's first host, so a pod
world with ``n_shards == n_pods`` cuts only the inter-pod trunk links.

Wall-clock speedup requires real cores; correctness and bit-identity do
not, which is what the parity tests and CI gate pin.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analyze.perturb import filter_schedule_sensitive

# (deliver_time_ns, link_name, packet): one cross-shard packet in flight
OutboxEntry = Tuple[int, str, Any]

# how often the coordinator's supervised recv re-checks worker health
_POLL_TICK_S = 0.05

# exit code a chaos "kill" strike uses (named in degraded_reason)
KILL_EXIT_CODE = 70


class HorizonError(RuntimeError):
    """The virtual-time horizon elapsed before every rank finished."""


class ShardExchangeError(RuntimeError):
    """A shard worker reported an application exception mid-run."""


class ShardFailure(ShardExchangeError):
    """Infrastructure failure: a shard worker crashed, hung, or lost
    its pipe.

    Distinct from a structured ``("error", traceback)`` message — that
    is a deterministic application error which re-raises as plain
    :class:`ShardExchangeError` and would fail identically on a serial
    rerun.  A :class:`ShardFailure` means the *process*, not the
    simulation, is broken, so the coordinator reaps the whole cohort
    and (by default) degrades gracefully to the serial leg.
    """


@dataclass(frozen=True)
class ShardPlan:
    """Static partition of one world's ranks/components onto shards."""

    n_procs: int
    n_pods: int
    n_shards: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_shards <= self.n_procs:
            raise ValueError(
                f"n_shards must be in [1, n_procs]: {self.n_shards}"
            )

    def shard_of_rank(self, rank: int) -> int:
        """Contiguous balanced rank partition."""
        return rank * self.n_shards // self.n_procs

    def shard_of_pod(self, pod: int) -> int:
        """A switch lives with the shard of its pod's first host."""
        first = (pod * self.n_procs + self.n_pods - 1) // self.n_pods
        return self.shard_of_rank(first)

    def ranks_of(self, shard: int) -> List[int]:
        return [r for r in range(self.n_procs) if self.shard_of_rank(r) == shard]

    def pod_of_rank(self, rank: int) -> int:
        return rank * self.n_pods // self.n_procs

    def link_shards(self, n_paths: int, switch_name) -> Dict[str, Tuple[int, int]]:
        """``link name -> (transmitter shard, receiver shard)`` for every link.

        Mirrors the wiring of :func:`repro.network.topology.build_cluster`;
        ``switch_name`` is ``ClusterConfig.switch_name``.
        """
        owners: Dict[str, Tuple[int, int]] = {}
        for p in range(n_paths):
            for h in range(self.n_procs):
                sw = switch_name(p, self.pod_of_rank(h))
                h_shard = self.shard_of_rank(h)
                sw_shard = self.shard_of_pod(self.pod_of_rank(h))
                owners[f"h{h}p{p}->{sw}"] = (h_shard, sw_shard)
                owners[f"{sw}->h{h}p{p}"] = (sw_shard, h_shard)
            for a in range(self.n_pods):
                for b in range(self.n_pods):
                    if a != b:
                        owners[f"{switch_name(p, a)}->{switch_name(p, b)}"] = (
                            self.shard_of_pod(a),
                            self.shard_of_pod(b),
                        )
        return owners


@dataclass
class PDESResult:
    """What a sharded (or horizon-serial) run returns."""

    results: List[Any]  # per-rank app return values
    metrics: Dict[str, Any]  # canonical: merged + schedule-sensitive filtered
    events_processed: int  # summed over shards == serial event count
    horizon_ns: int
    n_shards: int
    wall_s: float
    rounds: int  # synchronisation windows executed (0 for serial)
    # degradation markers live here (and on stderr), never in the
    # shard-invariant JSON payload: a degraded run's metrics document
    # must stay byte-identical to a healthy serial run's
    degraded: bool = False
    degraded_reason: Optional[str] = None


def _merge_snapshots(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Deterministic metric merge: counters sum, the clock maxes.

    Every shard snapshots an identical key set (identical world
    replicas); a counter only accrues on the shard owning the object
    behind it, so summing reproduces the serial value exactly.
    """
    merged: Dict[str, Any] = {}
    for snap in snapshots:
        for key, value in snap.items():
            if isinstance(value, str):
                # string probes (association state, scheduler name) only
                # materialise on the shard whose ranks drove them
                merged.setdefault(key, value)
            elif key.endswith("now_ns"):
                prev = merged.get(key, 0)
                merged[key] = value if value > prev else prev
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def canonical_metrics(merged: Dict[str, Any]) -> Dict[str, Any]:
    """The parity-comparable view: schedule-sensitive keys dropped."""
    return filter_schedule_sensitive(merged)


# ---------------------------------------------------------------------------
# shard execution (runs inside each worker process, and inline for serial)
# ---------------------------------------------------------------------------


class _Shard:
    """One shard's world replica plus its outbox plumbing."""

    def __init__(self, config: Any, plan: ShardPlan, shard_id: int) -> None:
        from ..core.world import World  # deferred: avoid core<->simkernel cycle

        self.plan = plan
        self.shard_id = shard_id
        cfg = dataclasses.replace(config, metrics_enabled=True)
        self.world = World(cfg)
        self.kernel = self.world.kernel
        self.outbox: List[OutboxEntry] = []
        self.links = self.world.cluster.links
        cluster_cfg = self.world.cluster.config
        owners = plan.link_shards(cluster_cfg.n_paths, cluster_cfg.switch_name)
        self.lookahead_ns: Optional[int] = None
        for name, (src, dst) in owners.items():
            if src == dst:
                continue
            link = self.links[name]
            la = link.prop_delay_ns
            if la < 1:
                raise ValueError(
                    f"cut link {name} has zero propagation delay: conservative "
                    "sharding needs lookahead >= 1ns"
                )
            if self.lookahead_ns is None or la < self.lookahead_ns:
                self.lookahead_ns = la
            if src == shard_id:
                link.divert = self._divert
        self.ranks = plan.ranks_of(shard_id)
        self.tasks: List[Any] = []

    def _divert(self, link: Any, packet: Any, deliver_at: int) -> None:
        self.outbox.append((deliver_at, link.name, packet))

    def start(self, app: Callable, args: tuple) -> None:
        self.tasks = self.world.spawn_ranks(app, args, self.ranks)

    def run_window(self, until: int) -> List[OutboxEntry]:
        self.kernel.run(until=until)
        self.kernel.check_tasks()
        out = self.outbox
        self.outbox = []
        return out

    def deliver(self, entries: List[OutboxEntry]) -> None:
        # sorted by (deliver_time, link_name): same-timestamp arrivals from
        # different peers enqueue in a deterministic order
        post_at = self.kernel.post_at
        links = self.links
        for when, name, packet in sorted(entries, key=lambda e: (e[0], e[1])):
            post_at(when, links[name].sink, packet)

    def next_event_time(self) -> Optional[int]:
        return self.kernel.next_event_time()

    def finish(self, horizon_ns: int) -> Tuple[Dict[int, Any], Dict[str, Any], int]:
        unfinished = [t for t in self.tasks if not t.done()]
        if unfinished:
            raise HorizonError(
                f"horizon {horizon_ns}ns elapsed with {len(unfinished)} of "
                f"{len(self.tasks)} rank tasks still pending on shard "
                f"{self.shard_id} (raise --horizon-s)"
            )
        results = {r: t.result() for r, t in zip(self.ranks, self.tasks)}
        return results, self.kernel.metrics.snapshot(), self.kernel.events_processed


def _chaos_strike(op: str) -> None:  # pragma: no cover - runs in child
    """Chaos-test fault injection inside a shard worker.

    ``kill`` hard-exits (no cleanup, no structured error — exactly what
    a segfaulting or OOM-killed worker looks like to the coordinator);
    ``hang`` stops the process with SIGSTOP, which freezes *everything*
    including the pipe, the shape of a wedged worker.
    """
    if op == "kill":
        os._exit(KILL_EXIT_CODE)
    os.kill(os.getpid(), signal.SIGSTOP)


def _worker_main(conn: Any, config: Any, plan: ShardPlan, shard_id: int,
                 app: Callable, args: tuple,
                 chaos: Optional[Tuple[str, int]] = None) -> None:
    """Shard worker: obeys run/deliver/finish commands from the coordinator.

    ``chaos`` — ``(op, round)`` — makes this worker strike (crash or
    hang) just before executing its ``round``-th run window; used by the
    degradation self-test and the CI chaos gate.
    """
    runs_seen = 0
    try:
        shard = _Shard(config, plan, shard_id)
        shard.start(app, args)
        conn.send(("status", shard.next_event_time()))
        while True:
            cmd = conn.recv()
            op = cmd[0]
            if op == "run":
                runs_seen += 1
                if chaos is not None and runs_seen == chaos[1]:
                    _chaos_strike(chaos[0])
                conn.send(("outbox", shard.run_window(cmd[1])))
            elif op == "deliver":
                shard.deliver(cmd[1])
                conn.send(("status", shard.next_event_time()))
            elif op == "status":
                conn.send(("status", shard.next_event_time()))
            elif op == "finish":
                conn.send(("result", *shard.finish(cmd[1])))
                return
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown command {op!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


def _expect(conn: Any, kind: str, *, proc: Any = None, shard_id: int = -1,
            timeout_s: Optional[float] = None) -> tuple:
    """Receive one ``kind`` message, supervising the worker behind it.

    Polls instead of blocking so a worker that died (dead process, pipe
    EOF) or went silent past ``timeout_s`` raises :class:`ShardFailure`
    naming the shard — a bare ``recv()`` here used to block the
    coordinator forever on a wedged worker and report nothing useful on
    a crashed one.  Structured ``error`` replies still raise plain
    :class:`ShardExchangeError` (deterministic application failure).
    """
    deadline = (
        None if timeout_s is None
        else time.monotonic() + timeout_s  # repro: allow[AN101] — watchdog
    )
    while True:
        try:
            if conn.poll(_POLL_TICK_S):
                msg = conn.recv()
                break
        except (EOFError, OSError):
            code = None
            if proc is not None:
                proc.join(timeout=0.2)  # EOF usually precedes the reap
                code = proc.exitcode
            raise ShardFailure(
                f"shard {shard_id} worker died mid-exchange "
                f"(exit code {code}) while the coordinator awaited {kind!r}"
            ) from None
        if proc is not None and not proc.is_alive():
            raise ShardFailure(
                f"shard {shard_id} worker died (exit code {proc.exitcode}) "
                f"while the coordinator awaited {kind!r}"
            )
        now = time.monotonic()  # repro: allow[AN101] — watchdog
        if deadline is not None and now > deadline:
            raise ShardFailure(
                f"shard {shard_id} worker stalled: no {kind!r} reply within "
                f"{timeout_s:g}s (hung or stopped process)"
            )
    if msg[0] == "error":
        raise ShardExchangeError(f"shard worker failed:\n{msg[1]}")
    if msg[0] != kind:
        raise ShardExchangeError(f"expected {kind!r} from worker, got {msg[0]!r}")
    return msg


def _send(conn: Any, payload: tuple, *, proc: Any, shard_id: int) -> None:
    """Send one command; a lost pipe surfaces as :class:`ShardFailure`."""
    try:
        conn.send(payload)
    except (BrokenPipeError, OSError):
        raise ShardFailure(
            f"shard {shard_id} worker lost its pipe before "
            f"{payload[0]!r} (exit code {proc.exitcode})"
        ) from None


def _reap_cohort(procs: List[Any], conns: List[Any],
                 grace_s: float = 1.0) -> None:
    """Terminate-and-reap every shard worker: close pipes, SIGTERM,
    then SIGKILL stragglers.

    The SIGKILL backstop matters: a *stopped* (SIGSTOP'd) worker leaves
    SIGTERM pending forever, and SIGKILL is the only signal a stopped
    process cannot sit out.  ``grace_s`` lets cleanly exiting workers
    finish on their own first (the healthy-shutdown path).
    """
    for conn in conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
    if grace_s > 0:
        for proc in procs:
            proc.join(timeout=grace_s)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=0.5)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def _run_serial_horizon(config: Any, app: Callable, args: tuple,
                        horizon_ns: int) -> PDESResult:
    """The ``n_shards=1`` leg: one kernel, whole world, run to horizon.

    Unlike ``World.run`` (which stops at the event completing the last
    rank), this fires *every* event up to the horizon — lingering
    heartbeats, delayed ACKs — so its event set is exactly what the
    sharded legs collectively fire, which is what makes the two
    byte-comparable.
    """
    t0 = time.perf_counter()  # repro: allow[AN101] — wall display only
    plan = ShardPlan(config.n_procs, config.n_pods, 1)
    shard = _Shard(config, plan, 0)
    shard.start(app, args)
    shard.kernel.run(until=horizon_ns)
    shard.kernel.check_tasks()
    by_rank, snapshot, events = shard.finish(horizon_ns)
    merged = _merge_snapshots([snapshot])
    return PDESResult(
        results=[by_rank[r] for r in range(config.n_procs)],
        metrics=canonical_metrics(merged),
        events_processed=events,
        horizon_ns=horizon_ns,
        n_shards=1,
        wall_s=time.perf_counter() - t0,  # repro: allow[AN101] — wall display
        rounds=0,
    )


def _parse_chaos(spec: Optional[str], n_shards: int) -> Optional[Tuple[str, int, int]]:
    """Parse ``"kill:SHARD[:ROUND]"`` / ``"hang:SHARD[:ROUND]"``.

    Returns ``(op, shard, round)`` with ``round`` defaulting to the
    first run window, or ``None`` for no injection.
    """
    if spec is None:
        return None
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"chaos spec must be OP:SHARD[:ROUND], got {spec!r}")
    op = parts[0]
    if op not in ("kill", "hang"):
        raise ValueError(f"chaos op must be 'kill' or 'hang', got {op!r}")
    shard = int(parts[1])
    if not 0 <= shard < n_shards:
        raise ValueError(
            f"chaos shard {shard} out of range for n_shards={n_shards}"
        )
    round_no = int(parts[2]) if len(parts) == 3 else 1
    if round_no < 1:
        raise ValueError(f"chaos round must be >= 1, got {round_no}")
    return op, shard, round_no


def run_sharded(
    app: Callable,
    *,
    config: Any,
    horizon_ns: int,
    n_shards: int,
    args: tuple = (),
    shard_timeout_s: Optional[float] = 60.0,
    degrade_to_serial: bool = True,
    chaos: Optional[str] = None,
) -> PDESResult:
    """Run ``app`` on every rank of one world, sharded over processes.

    ``config`` is a :class:`repro.core.world.WorldConfig`; ``app`` the
    per-rank coroutine function (as for ``World.run``).  Requires the
    ``fork`` start method (workers inherit ``app`` by address space, so
    closures work); every POSIX CI runner has it.

    The coordinator supervises its cohort: a worker that crashes, hangs
    (no reply within ``shard_timeout_s``), or loses its pipe gets the
    whole cohort terminated and reaped, and — since every shard holds a
    full world replica, so no state is lost — the run **degrades
    gracefully** to the serial leg, whose metrics are byte-identical to
    what the healthy sharded run would have produced.  The returned
    result carries ``degraded=True`` plus the reason (and a notice is
    printed to stderr); the shard-invariant payload is unchanged.  Pass
    ``degrade_to_serial=False`` to get the :class:`ShardFailure`
    instead.  Deterministic application errors (a structured worker
    traceback, :class:`HorizonError`) never degrade — the serial rerun
    would fail identically, so they propagate.

    ``chaos`` (``"kill:SHARD[:ROUND]"`` / ``"hang:SHARD[:ROUND]"``)
    injects a worker fault for self-tests and the CI chaos gate.
    """
    if horizon_ns <= 0:
        raise ValueError(f"horizon must be positive: {horizon_ns}")
    if n_shards == 1:
        return _run_serial_horizon(config, app, args, horizon_ns)
    chaos_plan = _parse_chaos(chaos, n_shards)
    plan = ShardPlan(config.n_procs, config.n_pods, n_shards)
    t0 = time.perf_counter()  # repro: allow[AN101] — wall display only
    ctx = multiprocessing.get_context("fork")
    conns: List[Any] = []
    procs: List[Any] = []
    try:
        for s in range(n_shards):
            parent, child = ctx.Pipe()
            worker_chaos = (
                (chaos_plan[0], chaos_plan[2])
                if chaos_plan is not None and chaos_plan[1] == s
                else None
            )
            proc = ctx.Process(
                target=_worker_main,
                args=(child, config, plan, s, app, args, worker_chaos),
                daemon=True,
            )
            proc.start()
            child.close()
            conns.append(parent)
            procs.append(proc)

        # the lookahead is a topology constant; every link shares
        # prop_delay_ns (validated >= 1 on the cut links in the shards)
        L = config.prop_delay_ns
        from ..network.topology import ClusterConfig

        naming = ClusterConfig(
            n_hosts=config.n_procs, n_paths=config.n_paths, n_pods=config.n_pods
        )
        owners = plan.link_shards(config.n_paths, naming.switch_name)

        def recv(kind: str) -> List[tuple]:
            return [
                _expect(c, kind, proc=p, shard_id=s, timeout_s=shard_timeout_s)
                for s, (c, p) in enumerate(zip(conns, procs))
            ]

        def send_all(payloads: List[tuple]) -> None:
            for s, (conn, proc, payload) in enumerate(
                zip(conns, procs, payloads)
            ):
                _send(conn, payload, proc=proc, shard_id=s)

        nexts = [msg[1] for msg in recv("status")]
        rounds = 0
        while True:
            live = [t for t in nexts if t is not None]
            m = min(live) if live else None
            if m is None or m > horizon_ns:
                break
            window = min(horizon_ns, m + L - 1)
            send_all([("run", window)] * n_shards)
            outboxes = [msg[1] for msg in recv("outbox")]
            inbound: List[List[OutboxEntry]] = [[] for _ in range(n_shards)]
            for entries in outboxes:
                for entry in entries:
                    dest = owners[entry[1]][1]
                    inbound[dest].append(entry)
            send_all([("deliver", entries) for entries in inbound])
            nexts = [msg[1] for msg in recv("status")]
            rounds += 1
        # final fast-forward: every remaining event is beyond the horizon,
        # so this fires nothing and pins each shard clock to exactly the
        # horizon — matching the serial leg's run(until=horizon)
        send_all([("run", horizon_ns)] * n_shards)
        recv("outbox")
        send_all([("finish", horizon_ns)] * n_shards)
        by_rank: Dict[int, Any] = {}
        snapshots: List[Dict[str, Any]] = []
        events = 0
        for msg in recv("result"):
            by_rank.update(msg[1])
            snapshots.append(msg[2])
            events += msg[3]
        merged = _merge_snapshots(snapshots)
        return PDESResult(
            results=[by_rank[r] for r in range(config.n_procs)],
            metrics=canonical_metrics(merged),
            events_processed=events,
            horizon_ns=horizon_ns,
            n_shards=n_shards,
            wall_s=time.perf_counter() - t0,  # repro: allow[AN101] — wall display
            rounds=rounds,
        )
    except ShardFailure as err:
        # infrastructure failure: reap the whole cohort *now* (no grace
        # — a hung worker would just burn the timeout again), then fall
        # back to the serial leg if allowed
        _reap_cohort(procs, conns, grace_s=0.0)
        if not degrade_to_serial:
            raise
        print(
            f"pdes: sharded run degraded to serial after shard failure: {err}",
            file=sys.stderr,
        )
        result = _run_serial_horizon(config, app, args, horizon_ns)
        result.degraded = True
        result.degraded_reason = str(err)
        return result
    finally:
        _reap_cohort(procs, conns)
