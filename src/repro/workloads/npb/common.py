"""Shared NPB infrastructure: class tables, results, the runner."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ...core.world import run_app

#: Problem-size parameter per (kernel, class).  These are scaled-down
#: "mini" sizes chosen so each class keeps the paper's message-size mix:
#: S/W are short-message dominated; A/B push CG/IS/SP into the long
#: (rendezvous) regime while MG and BT stay short-dominated, matching the
#: paper's analysis of dataset B (§4.1.2).
CLASSES: Dict[str, Dict[str, int]] = {
    "EP": {"S": 16, "W": 18, "A": 20, "B": 22},  # log2(total samples)
    "IS": {"S": 14, "W": 16, "A": 18, "B": 20},  # log2(total keys)
    "CG": {"S": 24, "W": 48, "A": 128, "B": 256},  # Laplacian grid side (n=k^2)
    "MG": {"S": 16, "W": 24, "A": 32, "B": 64},  # 3-D grid side
    "LU": {"S": 12, "W": 24, "A": 40, "B": 64},  # 3-D grid side
    "BT": {"S": 12, "W": 24, "A": 40, "B": 64},  # 3-D grid side
    "SP": {"S": 12, "W": 24, "A": 40, "B": 64},  # 3-D grid side
}

#: Iteration counts (scaled down from NPB's, same spirit).
ITERATIONS: Dict[str, int] = {
    "EP": 1,
    "IS": 3,
    "CG": 15,
    "MG": 3,
    "LU": 4,
    "BT": 4,
    "SP": 4,
}


@dataclass
class NPBResult:
    """One kernel execution on one rank set."""

    name: str
    cls: str
    elapsed_ns: int
    total_flops: float
    verified: bool
    detail: str = ""

    @property
    def mops(self) -> float:
        """Virtual-time Mop/s total (the paper's Fig. 9 metric)."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.total_flops / 1e6 / (self.elapsed_ns / 1e9)


def npb_app(name: str, cls: str):
    """Build the per-rank coroutine for one kernel/class."""
    from . import KERNELS

    kernel = KERNELS[name]
    size_param = CLASSES[name][cls]
    iters = ITERATIONS[name]

    async def app(comm):
        start = comm.process.kernel.now
        flops, verified, detail = await kernel(comm, size_param, iters)
        elapsed = comm.process.kernel.now - start
        return NPBResult(
            name=name,
            cls=cls,
            elapsed_ns=elapsed,
            total_flops=flops,
            verified=verified,
            detail=detail,
        )

    return app


def run_npb(
    name: str, cls: str, limit_ns: Optional[int] = None, **world: Any
) -> NPBResult:
    """Run one kernel on a fresh world; aggregates rank results.

    ``world`` are WorldConfig fields (``rpi``, ``n_procs``, ``seed``, ...)."""
    world_result = run_app(npb_app(name, cls), limit_ns=limit_ns, **world)
    per_rank = world_result.results
    total_flops = sum(r.total_flops for r in per_rank)
    elapsed = max(r.elapsed_ns for r in per_rank)
    return NPBResult(
        name=name,
        cls=cls,
        elapsed_ns=elapsed,
        total_flops=total_flops,
        verified=all(r.verified for r in per_rank),
        detail=per_rank[0].detail,
    )


async def charge_flops(comm, flops: float) -> None:
    """Charge an operation count to the rank's virtual CPU."""
    await comm.process.compute_flops(flops)
