"""MPBench ping-pong (paper §4.1.1, Fig. 8 and Table 1).

Two processes repeatedly bounce a message of a fixed size; all messages
carry the same tag (so SCTP multistreaming gives no benefit here — the
comparison isolates the raw protocol stacks, which is exactly what the
paper uses it for).  Throughput counts payload bytes moved in both
directions over the measured interval, MPBench-style.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..core.world import run_app
from ..util.blobs import SyntheticBlob

PING_TAG = 1


@dataclass
class PingPongResult:
    """One ping-pong measurement."""

    message_size: int
    iterations: int
    elapsed_ns: int

    @property
    def throughput_bytes_per_s(self) -> float:
        """Payload bytes per second, both directions counted."""
        if self.elapsed_ns <= 0:
            return 0.0
        return 2.0 * self.message_size * self.iterations / (self.elapsed_ns / 1e9)

    @property
    def round_trip_s(self) -> float:
        """Mean round-trip time per exchange."""
        return self.elapsed_ns / 1e9 / self.iterations


def make_pingpong(message_size: int, iterations: int, warmup: int = 2):
    """Build the two-process ping-pong application coroutine."""

    async def pingpong(comm):
        if comm.rank > 1:
            return None  # extra ranks idle (the test uses two processes)
        peer = 1 - comm.rank
        payload = SyntheticBlob(message_size, label="pingpong")
        start_ns = None
        for i in range(warmup + iterations):
            if i == warmup:
                start_ns = comm.process.kernel.now
            if comm.rank == 0:
                await comm.send(payload, dest=peer, tag=PING_TAG)
                await comm.recv(source=peer, tag=PING_TAG)
            else:
                await comm.recv(source=peer, tag=PING_TAG)
                await comm.send(payload, dest=peer, tag=PING_TAG)
        return comm.process.kernel.now - start_ns

    return pingpong


def run_pingpong(
    message_size: int,
    iterations: int = 20,
    warmup: int = 2,
    limit_ns: Optional[int] = None,
    **world: Any,
) -> PingPongResult:
    """Run one ping-pong configuration on a fresh world.

    ``world`` are WorldConfig fields (``rpi``, ``loss_rate``, ``seed``,
    ...); the world has two processes unless ``n_procs`` says otherwise
    (ranks above 1 idle)."""
    result = run_app(
        make_pingpong(message_size, iterations, warmup),
        limit_ns=limit_ns,
        **{"n_procs": 2, **world},
    )
    return PingPongResult(
        message_size=message_size,
        iterations=iterations,
        elapsed_ns=result.results[0],
    )
