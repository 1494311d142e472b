"""The Bulk Processor Farm (paper §4.2.1, Figs. 10-12).

A request-driven manager/worker program with the communication pattern
the paper describes:

* one manager (rank 0), N-1 workers,
* the manager serves task requests strictly in arrival order
  (``MPI_ANY_SOURCE``),
* each task carries one of ``MaxWorkTags`` different tags (its *type*);
  workers receive with ``MPI_ANY_TAG`` — this is what maps onto distinct
  SCTP streams and defeats head-of-line blocking,
* every worker keeps exactly ``outstanding_requests`` (10) job requests
  open at all times, using non-blocking sends/receives,
* ``fanout`` tasks are shipped per request (Fig. 11 uses fanout=10),
* workers overlap the per-task computation with the arrival of further
  tasks — the "latency tolerant" structure the paper argues SCTP serves
  better under loss.

Protocol details (invented where the paper is silent, and documented):
after the ``fanout`` task messages of one batch the manager sends a tiny
BATCH_MORE control message, which triggers the worker's replacement
request; when tasks run out the manager answers requests with DONE
instead, and a worker terminates once all its outstanding requests have
been answered with DONE.  Results flow back as small messages tagged by
task type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.constants import ANY_SOURCE, ANY_TAG
from ..core.world import run_app
from ..util.blobs import SyntheticBlob

REQUEST_TAG = 900
BATCH_MORE_TAG = 901
DONE_TAG = 902
RESULT_TAG = 903  # all results share one tag (requests must never
#   match the manager's wildcard result receives, so results get their own)

RESULT_SIZE = 1024  # bytes per result message


@dataclass
class FarmParams:
    """Farm experiment parameters; defaults follow the paper."""

    num_tasks: int = 10_000
    task_size: int = 30 * 1024  # "short" tasks; 300 KiB for "long"
    max_work_tags: int = 10
    outstanding_requests: int = 10
    fanout: int = 1
    compute_seconds_per_task: float = 0.004


@dataclass
class FarmResult:
    """What one farm run produced."""

    params: FarmParams
    elapsed_ns: int
    tasks_done: int
    per_worker_tasks: Dict[int, int] = field(default_factory=dict)

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_ns / 1e9


def make_farm(params: FarmParams):
    """Build the farm application coroutine (manager = rank 0)."""

    async def farm(comm):
        if comm.rank == 0:
            return await _manager(comm, params)
        return await _worker(comm, params)

    return farm


async def _manager(comm, p: FarmParams):
    size = comm.size
    n_workers = size - 1
    start_ns = comm.process.kernel.now

    tasks_left = p.num_tasks
    next_type = 0
    dones_needed = n_workers * p.outstanding_requests
    dones_sent = 0
    results_expected = p.num_tasks
    results_got = 0
    per_worker: Dict[int, int] = {w: 0 for w in range(1, size)}
    sent_to: Dict[int, int] = {w: 0 for w in range(1, size)}

    # pre-posted receives: requests and results from anyone
    request_recvs = [
        comm.irecv(source=ANY_SOURCE, tag=REQUEST_TAG)
        for _ in range(n_workers * p.outstanding_requests)
    ]
    result_recvs = [
        comm.irecv(source=ANY_SOURCE, tag=RESULT_TAG)
        for _ in range(min(256, results_expected))
    ]

    pending_sends: List = []
    while dones_sent < dones_needed or results_got < results_expected:
        pending_sends = [s for s in pending_sends if not s.done]
        ready_req = next((i for i, r in enumerate(request_recvs) if r.done), None)
        ready_res = next((i for i, r in enumerate(result_recvs) if r.done), None)
        if ready_req is None and ready_res is None:
            await comm.waitany(request_recvs + result_recvs)
            continue

        if ready_res is not None:
            req = result_recvs.pop(ready_res)
            results_got += 1
            source = req.status.source
            per_worker[source] = per_worker.get(source, 0) + 1
            outstanding_results = results_expected - results_got
            if len(result_recvs) < outstanding_results:
                result_recvs.append(comm.irecv(source=ANY_SOURCE, tag=RESULT_TAG))

        if ready_req is not None and dones_sent < dones_needed:
            req = request_recvs.pop(ready_req)
            worker = req.status.source
            if tasks_left > 0:
                batch = min(p.fanout, tasks_left)
                for _ in range(batch):
                    task_type = next_type
                    next_type = (next_type + 1) % p.max_work_tags
                    pending_sends.append(
                        comm.isend(
                            SyntheticBlob(p.task_size, label="task"),
                            dest=worker,
                            tag=task_type,
                        )
                    )
                tasks_left -= batch
                sent_to[worker] += batch
                pending_sends.append(comm.isend(b"", dest=worker, tag=BATCH_MORE_TAG))
                request_recvs.append(comm.irecv(source=ANY_SOURCE, tag=REQUEST_TAG))
            else:
                # DONE carries the worker's final task count: tasks travel
                # on other streams and may arrive after the DONE, so the
                # worker needs the count to know when it may stop draining
                pending_sends.append(
                    comm.isend(sent_to[worker], dest=worker, tag=DONE_TAG)
                )
                dones_sent += 1

    await comm.waitall(pending_sends)
    return FarmResult(
        params=p,
        elapsed_ns=comm.process.kernel.now - start_ns,
        tasks_done=results_got,
        per_worker_tasks=per_worker,
    )


async def _worker(comm, p: FarmParams):
    manager = 0
    outstanding = p.outstanding_requests
    # enough pre-posted receives to absorb every in-flight batch
    posted = [
        comm.irecv(source=manager, tag=ANY_TAG)
        for _ in range(outstanding * (p.fanout + 1))
    ]
    send_reqs = [
        comm.isend(b"", dest=manager, tag=REQUEST_TAG) for _ in range(outstanding)
    ]
    done_count = 0
    tasks_done = 0
    expected_tasks: Optional[int] = None
    while done_count < outstanding or (
        expected_tasks is not None and tasks_done < expected_tasks
    ):
        idx, req = await comm.waitany(posted)
        posted.pop(idx)
        tag = req.status.tag
        if tag == DONE_TAG:
            done_count += 1
            expected_tasks = req.data  # every DONE repeats the final count
            continue
        posted.append(comm.irecv(source=manager, tag=ANY_TAG))
        if tag == BATCH_MORE_TAG:
            send_reqs.append(comm.isend(b"", dest=manager, tag=REQUEST_TAG))
            continue
        # a task of type ``tag``: compute, then return a result
        await comm.compute(p.compute_seconds_per_task)
        tasks_done += 1
        send_reqs.append(
            comm.isend(
                SyntheticBlob(RESULT_SIZE, label="result"),
                dest=manager,
                tag=RESULT_TAG,
            )
        )
    await comm.waitall([s for s in send_reqs if not s.done])
    return tasks_done


def run_farm(
    params: Optional[FarmParams] = None, limit_ns: Optional[int] = None, **world: Any
) -> FarmResult:
    """Run one farm configuration and return the manager's FarmResult.

    ``world`` are WorldConfig fields (``rpi``, ``n_procs``, ``loss_rate``,
    ``num_streams``, ...)."""
    p = params or FarmParams()
    result = run_app(make_farm(p), limit_ns=limit_ns, **world)
    farm_result: FarmResult = result.results[0]
    assert farm_result.tasks_done == p.num_tasks, (
        f"farm lost work: {farm_result.tasks_done}/{p.num_tasks}"
    )
    return farm_result
