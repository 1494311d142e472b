"""Synchronisation helpers built on :class:`~repro.simkernel.futures.Future`.

These are the small set of coordination tools simulation code needs:
barrier-style ``wait_all``, select-style ``wait_any``, a level-triggered
event, and an unbounded async queue (used by e.g. the MPI manager/worker
workloads).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Sequence

from .futures import _PENDING, Future


def wait_all(futures: Sequence[Future]) -> Future:
    """Future that completes with ``[f.result() for f in futures]``.

    Completes with the first exception instead if any input fails.
    """
    futures = list(futures)
    out = Future(name=f"wait_all({len(futures)})")
    remaining = len(futures)
    if remaining == 0:
        out.set_result([])
        return out

    def on_done(fut: Future) -> None:
        nonlocal remaining
        if out.done():
            return
        if fut.exception() is not None:
            out.set_exception(fut.exception())
            return
        remaining -= 1
        if remaining == 0:
            out.set_result([f.result() for f in futures])

    for f in futures:
        f.add_done_callback(on_done)
    return out


def wait_any(futures: Sequence[Future]) -> Future:
    """Future that completes with ``(index, result)`` of the first to finish.

    Mirrors ``MPI_Waitany``: later completions are simply ignored here (the
    caller keeps its own request list).
    """
    futures = list(futures)
    if not futures:
        raise ValueError("wait_any() requires at least one future")
    out = Future(name="wait_any")

    def make_cb(index: int):
        def on_done(fut: Future) -> None:
            if out._state is not _PENDING:
                return
            if fut._exception is not None:
                out.set_exception(fut._exception)
            else:
                out.set_result((index, fut.result()))

        return on_done

    for i, f in enumerate(futures):
        f.add_done_callback(make_cb(i))
    return out


class AsyncEvent:
    """Level-triggered event: waiters released once :meth:`set` is called."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._set = False
        self._waiters: list[Future] = []
        self._wait_name = "event:" + name  # computed once, not per wait()

    def is_set(self) -> bool:
        """Whether the event has fired."""
        return self._set

    def set(self) -> None:
        """Fire the event, releasing current and future waiters."""
        if self._set:
            return
        self._set = True
        waiters, self._waiters = self._waiters, []
        for fut in waiters:
            if not fut.done():
                fut.set_result(None)

    def clear(self) -> None:
        """Reset to the unset state (subsequent waits block again)."""
        self._set = False

    def wait(self) -> Future:
        """Future completing when the event is (or already was) set."""
        fut = Future(name=self._wait_name)
        if self._set:
            fut.set_result(None)
        else:
            self._waiters.append(fut)
        return fut


class AsyncQueue:
    """Unbounded FIFO with async ``get``; ``put`` never blocks."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Future] = deque()
        self._get_name = f"queue:{name}.get"  # computed once, not per get()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue ``item``, waking the oldest waiting getter if any."""
        while self._getters:
            getter = self._getters.popleft()
            if not getter.done():
                getter.set_result(item)
                return
        self._items.append(item)

    def put_many(self, items: Iterable[Any]) -> None:
        """Enqueue several items preserving order."""
        for item in items:
            self.put(item)

    def get(self) -> Future:
        """Future yielding the next item (immediately if one is queued)."""
        fut = Future(name=self._get_name)
        if self._items:
            fut.set_result(self._items.popleft())
        else:
            self._getters.append(fut)
        return fut

    def get_nowait(self) -> Any:
        """Pop an item or raise ``IndexError`` if the queue is empty."""
        return self._items.popleft()
