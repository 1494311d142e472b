"""Barrier-style ``wait_all``: one future over several simkernel futures.

``World.run`` waits on every rank's task with it.
"""

from __future__ import annotations

from typing import Sequence

from .futures import Future


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
