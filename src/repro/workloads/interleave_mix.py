"""Mixed small/large traffic microbenchmark for message interleaving.

The paper's Fig. 12 story is about head-of-line blocking *between*
messages under loss; this workload exhibits the other classic HOL case —
a latency-critical small message stuck *behind a large message of a
different stream on the same association*.  Rank 1 starts one or more
bulk transfers (tag -> stream A) and then sends a small message (tag ->
stream B).  With legacy DATA chunks the bulk monopolises the wire until
its last fragment (fragment TSNs must stay contiguous), so the small
message's latency grows with the bulk size.  With RFC 8260 I-DATA and a
non-FCFS stream scheduler, the small message's fragments interleave with
the bulk's and its latency approaches the unloaded round-trip.

TCP runs the same pattern over the byte-stream RPI for comparison: there
the two messages share one connection and the small one always queues
behind the bulk (the paper's §3.2 argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..core.envelope import ENVELOPE_SIZE
from ..core.world import run_app
from ..transport.base import SCTPConfig
from ..util.blobs import SyntheticBlob

TAG_SMALL = 3  # -> stream (0*31+3) % 10 = 3
TAG_GO = 5  # round kickoff, rank 0 -> rank 1
TAG_BULK = 7  # -> stream (0*31+7) % 10 = 7


@dataclass
class InterleaveMixResult:
    """Latency of small messages measured under concurrent bulk traffic."""

    rounds: int
    bulk_size: int
    bulks_per_round: int
    small_size: int
    elapsed_ns: int
    small_latency_ns: List[int] = field(default_factory=list)

    @property
    def small_latency_mean_ns(self) -> float:
        """Mean GO->small-arrival latency across rounds."""
        if not self.small_latency_ns:
            return 0.0
        return sum(self.small_latency_ns) / len(self.small_latency_ns)

    @property
    def small_latency_max_ns(self) -> int:
        """Worst-round small-message latency."""
        return max(self.small_latency_ns, default=0)

    @property
    def bulk_throughput_mbps(self) -> float:
        """Bulk payload rate over the whole run (MB/s)."""
        if self.elapsed_ns <= 0:
            return 0.0
        total = self.bulk_size * self.bulks_per_round * self.rounds
        return total / (self.elapsed_ns / 1e9) / 1e6


def make_interleave_mix(
    bulk_size: int,
    small_size: int,
    rounds: int,
    bulks_per_round: int,
    warmup: int = 1,
):
    """Build the two-process mixed-traffic application coroutine.

    Per round: rank 0 posts its receives, releases rank 1 with a GO
    message, and timestamps GO -> small-message completion.  Rank 1
    starts the bulk isends *first* and the small isend last — the
    adversarial ordering for a FIFO send path.
    """

    async def mixed(comm):
        if comm.rank > 1:
            return None
        kernel = comm.process.kernel
        bulk = SyntheticBlob(bulk_size, label="mix-bulk")
        small = SyntheticBlob(small_size, label="mix-small")
        latencies: List[int] = []
        start_ns = None
        for i in range(warmup + rounds):
            if i == warmup:
                start_ns = kernel.now
            if comm.rank == 0:
                small_req = comm.irecv(source=1, tag=TAG_SMALL)
                bulk_reqs = [
                    comm.irecv(source=1, tag=TAG_BULK)
                    for _ in range(bulks_per_round)
                ]
                await comm.send(SyntheticBlob(1, label="go"), dest=1, tag=TAG_GO)
                t0 = kernel.now
                await comm.wait(small_req)
                if i >= warmup:
                    latencies.append(kernel.now - t0)
                await comm.waitall(bulk_reqs)
            else:
                await comm.recv(source=0, tag=TAG_GO)
                reqs = [
                    comm.isend(bulk, dest=0, tag=TAG_BULK)
                    for _ in range(bulks_per_round)
                ]
                reqs.append(comm.isend(small, dest=0, tag=TAG_SMALL))
                await comm.waitall(reqs)
        elapsed = kernel.now - start_ns
        return (latencies, elapsed) if comm.rank == 0 else elapsed

    return mixed


def run_interleave_mix(
    bulk_size: int = 128 * 1024,
    small_size: int = 1024,
    rounds: int = 6,
    bulks_per_round: int = 1,
    warmup: int = 1,
    limit_ns: Optional[int] = None,
    **world: Any,
) -> InterleaveMixResult:
    """Run one mixed-traffic configuration on a fresh world.

    ``world`` are WorldConfig fields; RFC 8260 interleaving and the
    stream scheduler are ``sctp_config`` options.  Unless ``world`` says
    otherwise the world has two processes, seed 1, and an eager limit
    raised above the bulk size, so the bulk goes out as one transport
    message immediately (no rendezvous round-trip) — that is what makes
    it monopolise a FIFO send path and what the interleaving run has to
    break up.  The raise stops at the SCTP RPI's limit (one envelope and
    piece per ``sctp_sendmsg``), so on both stacks a bulk above it goes
    rendezvous in eager-limit pieces.
    """
    sctp_limit = (world.get("sctp_config") or SCTPConfig()).max_message_size - ENVELOPE_SIZE
    eager_limit = min(max(192 * 1024, bulk_size + 4096), sctp_limit)
    defaults = {"n_procs": 2, "seed": 1, "eager_limit": eager_limit}
    result = run_app(
        make_interleave_mix(bulk_size, small_size, rounds, bulks_per_round, warmup),
        limit_ns=limit_ns,
        **{**defaults, **world},
    )
    latencies, _ = result.results[0]
    return InterleaveMixResult(
        rounds=rounds,
        bulk_size=bulk_size,
        bulks_per_round=bulks_per_round,
        small_size=small_size,
        elapsed_ns=result.duration_ns,
        small_latency_ns=latencies,
    )
