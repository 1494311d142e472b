"""Strict child-process map: the one fan-out core.

``supervised_map`` runs one child **process per task** (never a shared
pool: a crashing task must not take neighbours with it), up to ``jobs``
at a time, and returns the results in **input order** (never
completion order), which is what keeps every merged document
byte-identical to its serial counterpart.

A task is *lost* when it raises, when its result cannot be pickled back
to the parent, or when its process exits without delivering a result
(``os._exit``, a signal, an OOM kill).  The other tasks still run; then
:class:`SuperviseError` names the first lost task in input order, with
its traceback or exit code.  Nothing is retried: every task is a
deterministic simulation, which fails the same way every time.  A
caller that must keep finished work stores it as each task finishes —
the sweep runner's worker puts every cell into the sweep cache, so
re-running the sweep recomputes only the lost cells.

The parent waits on the result pipes only: a child that dies closes its
end of the pipe, which reads as end-of-file.
"""

from __future__ import annotations

import pickle
import traceback
from dataclasses import dataclass
from multiprocessing import connection, get_all_start_methods, get_context
from typing import Any, Callable, Dict, List, Optional, Sequence


class SuperviseError(RuntimeError):
    """A task of a fan-out was lost; names the first in input order."""


@dataclass
class SupervisedOutcome:
    """One fan-out's results, in input order."""

    results: List[Any]


def _child_main(conn: Any, fn: Callable, item: Any) -> None:
    """Worker body: run ``fn(item)`` and send the result or the error."""
    try:
        payload = ("ok", fn(item))
    except BaseException:
        payload = ("err", f"task raised:\n{traceback.format_exc()}")
    # pickle here, not inside send: an unpicklable result is the task's
    # error, named as such, not an anonymous crash
    try:
        data = pickle.dumps(payload)
    except Exception:
        data = pickle.dumps(
            ("err", f"result could not be pickled:\n{traceback.format_exc()}")
        )
    try:
        conn.send_bytes(data)
    finally:
        conn.close()


def _context():
    if "fork" in get_all_start_methods():
        return get_context("fork")
    return get_context()


def supervised_map(
    fn: Callable,
    items: Sequence,
    jobs: int = 1,
    task_ids: Optional[Sequence[str]] = None,
) -> SupervisedOutcome:
    """Run ``fn`` over ``items``, one child process per item.

    Up to ``jobs`` children run at once.  ``task_ids`` names the tasks
    in the error (defaults to the item index); ``fn`` must be a
    module-level callable and ``items`` plain data so spawn-based
    platforms can address the work.  Raises :class:`SuperviseError`
    after every task has finished if any task was lost.
    """
    n = len(items)
    ids = [str(t) for t in task_ids] if task_ids is not None else [
        str(i) for i in range(n)
    ]
    if len(ids) != n:
        raise ValueError(f"{len(ids)} task ids for {n} items")
    ctx = _context()
    results: List[Any] = [None] * n
    lost: Dict[int, str] = {}  # index -> traceback or exit code
    active: Dict[Any, tuple] = {}  # result pipe -> (index, process)
    launched = 0
    while launched < n or active:
        while launched < n and len(active) < max(1, jobs):
            parent, child = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_child_main,
                args=(child, fn, items[launched]),
                daemon=True,
                name=f"supervise-{ids[launched]}",
            )
            proc.start()
            child.close()
            active[parent] = (launched, proc)
            launched += 1
        for conn in connection.wait(list(active)):
            index, proc = active.pop(conn)
            try:
                status, value = conn.recv()
            except (EOFError, OSError):  # the pipe closed without a result
                proc.join()
                status = "err"
                value = f"worker exited with code {proc.exitcode} before a result"
            conn.close()
            proc.join()
            if status == "ok":
                results[index] = value
            else:
                lost[index] = value
    if lost:
        first = min(lost)
        raise SuperviseError(
            f"worker for task {ids[first]} failed "
            f"({len(lost)} of {n} tasks lost): {lost[first]}"
        )
    return SupervisedOutcome(results=results)
