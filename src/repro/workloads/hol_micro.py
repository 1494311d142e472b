"""The head-of-line-blocking microscenario of the paper's Fig. 4/5.

P1 sends Msg-A then Msg-B with different tags; P0 posts two non-blocking
receives and calls Waitany.  Under loss, if part of Msg-A is dropped:

* over TCP, Msg-B sits behind Msg-A in the byte stream — Waitany can only
  ever complete on Msg-A, after the loss is repaired;
* over SCTP, the two tags ride different streams, so Msg-B is delivered
  independently and Waitany completes immediately — the concurrency the
  programmer expressed.

The experiment repeats the exchange and reports how often the
second-sent message completed first, plus the mean time until *some*
message was available (the latency the compute phase actually waits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..core.world import run_app
from ..util.blobs import SyntheticBlob

TAG_A = 11
TAG_B = 22


@dataclass
class HolMicroResult:
    """Waitany behaviour over many repetitions."""

    iterations: int
    b_completed_first: int
    mean_first_completion_ns: float

    @property
    def b_first_fraction(self) -> float:
        return self.b_completed_first / max(1, self.iterations)


def make_hol_micro(message_size: int, iterations: int):
    """Build the two-process Fig. 4 scenario."""

    async def app(comm):
        if comm.rank > 1:
            return None
        kernel = comm.process.kernel
        if comm.rank == 1:
            for _ in range(iterations):
                await comm.send(SyntheticBlob(message_size), dest=0, tag=TAG_A)
                await comm.send(SyntheticBlob(message_size), dest=0, tag=TAG_B)
                await comm.recv(source=0, tag=TAG_A)  # sync before next round
            return None
        b_first = 0
        total_wait_ns = 0
        for _ in range(iterations):
            req_a = comm.irecv(source=1, tag=TAG_A)
            req_b = comm.irecv(source=1, tag=TAG_B)
            t0 = kernel.now
            idx, _ = await comm.waitany([req_a, req_b])
            total_wait_ns += kernel.now - t0
            if idx == 1:
                b_first += 1
            await comm.compute(0.001)  # overlap: work on whichever arrived
            await comm.waitall([req_a, req_b])
            await comm.send(b"sync", dest=1, tag=TAG_A)
        return HolMicroResult(
            iterations=iterations,
            b_completed_first=b_first,
            mean_first_completion_ns=total_wait_ns / iterations,
        )

    return app


def run_hol_micro(
    message_size: int = 8 * 1024,
    iterations: int = 30,
    limit_ns: Optional[int] = None,
    **world: Any,
) -> HolMicroResult:
    """Run the Fig. 4 microscenario; returns rank 0's observations.

    ``world`` are WorldConfig fields; the world has two processes and
    2 % loss unless they say otherwise."""
    world_result = run_app(
        make_hol_micro(message_size, iterations),
        limit_ns=limit_ns,
        **{"n_procs": 2, "loss_rate": 0.02, **world},
    )
    return world_result.results[0]
