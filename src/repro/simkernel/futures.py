"""Futures and tasks driven by the virtual-time kernel.

These mirror the asyncio primitives closely enough that simulation code
reads like ordinary async Python, but they are deliberately minimal: a
:class:`Future` completes exactly once, a :class:`Task` steps a coroutine
forward every time the future it awaits completes, and everything happens
synchronously inside :meth:`repro.simkernel.kernel.Kernel.run`.
"""

from __future__ import annotations

from typing import Any, Callable, Coroutine, Optional

_PENDING = "pending"
_DONE = "done"
_CANCELLED = "cancelled"


class CancelledError(Exception):
    """Raised inside a coroutine whose task was cancelled."""


class InvalidStateError(Exception):
    """A future was completed twice or its result read before completion."""


class Future:
    """A single-assignment result container awaitable from simulation code."""

    __slots__ = ("_state", "_result", "_exception", "_callbacks", "name")

    def __init__(self, name: str = "") -> None:
        self._state = _PENDING
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        # lazy: most futures resolve without ever getting a callback, so
        # the list is only allocated on first add_done_callback
        self._callbacks: Optional[list[Callable[[Future], None]]] = None
        self.name = name

    # -- inspection ------------------------------------------------------
    def done(self) -> bool:
        """True once a result, exception, or cancellation has been set."""
        return self._state != _PENDING

    def cancelled(self) -> bool:
        """True if :meth:`cancel` completed this future."""
        return self._state == _CANCELLED

    def result(self) -> Any:
        """Return the stored result, raising the stored exception if any."""
        if self._state == _PENDING:
            raise InvalidStateError(f"future {self.name!r} is not done")
        if self._state == _CANCELLED:
            raise CancelledError(self.name)
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self) -> Optional[BaseException]:
        """Return the stored exception (None if completed normally)."""
        if self._state == _PENDING:
            raise InvalidStateError(f"future {self.name!r} is not done")
        return self._exception

    # -- completion ------------------------------------------------------
    def set_result(self, value: Any) -> None:
        """Complete the future successfully and run completion callbacks."""
        if self._state is not _PENDING:
            raise InvalidStateError(f"future {self.name!r} already {self._state}")
        self._state = _DONE
        self._result = value
        self._run_callbacks()

    def set_exception(self, exc: BaseException) -> None:
        """Complete the future with an exception."""
        if self._state is not _PENDING:
            raise InvalidStateError(f"future {self.name!r} already {self._state}")
        self._state = _DONE
        self._exception = exc
        self._run_callbacks()

    def cancel(self) -> bool:
        """Cancel if still pending; returns whether a cancellation happened."""
        if self._state is not _PENDING:
            return False
        self._state = _CANCELLED
        self._run_callbacks()
        return True

    def add_done_callback(self, fn: Callable[[Future], None]) -> None:
        """Run ``fn(self)`` when done (immediately if already done)."""
        if self._state is not _PENDING:
            fn(self)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def _run_callbacks(self) -> None:
        callbacks = self._callbacks
        if callbacks is None:
            return
        self._callbacks = None
        for fn in callbacks:
            fn(self)

    # -- awaiting --------------------------------------------------------
    def __await__(self):
        if self._state is _PENDING:
            # the task resumes us with the result, or throws the failure in
            return (yield self)
        return self.result()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Future {self.name!r} {self._state}>"


class Task(Future):
    """Drives a coroutine; completes with the coroutine's return value.

    The coroutine may only ``await`` :class:`Future` objects (everything in
    the simulator — timers, socket readiness, MPI requests — bottoms out in
    one).  Each time the awaited future completes, the task immediately
    resumes the coroutine; there is no separate ready queue, which keeps
    causality obvious: all work triggered by an event happens at the event's
    timestamp, in deterministic order.
    """

    __slots__ = ("_coro", "_awaiting", "_resume")

    def __init__(self, coro: Coroutine, name: str = "") -> None:
        super().__init__(name=name or getattr(coro, "__name__", "task"))
        self._coro = coro
        self._awaiting: Optional[Future] = None
        # bound once: every step registers it on the future it awaits
        self._resume = self._wakeup

    def start(self) -> None:
        """Begin executing the coroutine (called by ``Kernel.spawn``)."""
        self._step(None, None)

    def cancel(self) -> bool:
        """Cancel the task, throwing CancelledError into the coroutine."""
        if self.done():
            return False
        awaiting, self._awaiting = self._awaiting, None
        if awaiting is not None and not awaiting.done():
            # Detach from whatever we were waiting on, then interrupt.
            self._step(None, CancelledError(self.name))
            return True
        return super().cancel()

    def _wakeup(self, fut: Future) -> None:
        # fires once per task step: read the slots directly (fut is done
        # by contract here, so the accessor guards would never trip)
        if self._state is not _PENDING:
            return
        if fut is not self._awaiting:
            return  # stale wakeup from a future we abandoned via cancel()
        self._awaiting = None
        if fut._state is _CANCELLED:
            self._step(None, CancelledError(fut.name))
        elif fut._exception is not None:
            self._step(None, fut._exception)
        else:
            self._step(fut._result, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is not None:
                awaited = self._coro.throw(exc)
            else:
                awaited = self._coro.send(value)
        except StopIteration as stop:
            if not self.done():
                self.set_result(stop.value)
            return
        except CancelledError:
            if not self.done():
                super().cancel()
            return
        except BaseException as err:
            if not self.done():
                self.set_exception(err)
            return
        if not isinstance(awaited, Future):
            raise TypeError(
                f"task {self.name!r} awaited {awaited!r}; only simkernel "
                "Futures can be awaited inside the simulator"
            )
        self._awaiting = awaited
        awaited.add_done_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name!r} {self._state}>"
