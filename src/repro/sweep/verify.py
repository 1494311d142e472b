"""The sweep's determinism and cache contract as one call.

:func:`verify_spec` runs one spec four ways and compares the merged
documents byte for byte:

1. **cold serial** run into a fresh cache — the reference bytes;
2. **cold parallel** run (``--jobs N``, separate fresh cache) — merged
   document must be byte-identical to the reference;
3. **warm resume** against the serial cache — must recompute *zero*
   cells and reproduce the reference bytes;
4. **cache kill + rerun** — after ``clear()`` nothing may be served
   from cache, and the recomputed document must again match.

Any violation is returned as a human-readable failure message; an empty
list means the spec's whole execution surface is deterministic and the
cache is sound.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import List, Optional

from .cache import SweepCache
from .runner import dumps_result, run_sweep
from .spec import SweepSpec


def verify_spec(
    spec: SweepSpec, jobs: int = 4, workdir: Optional[str] = None
) -> List[str]:
    """Run the four-phase determinism/cache check; failures as messages."""
    failures: List[str] = []
    with tempfile.TemporaryDirectory(dir=workdir, prefix="sweep-verify-") as tmp:
        serial_cache = SweepCache(Path(tmp) / "cache-serial")
        serial = run_sweep(spec, jobs=1, cache=serial_cache)
        reference = dumps_result(serial.doc)
        if serial.cached:
            failures.append(
                f"cold serial run was served {len(serial.cached)} cell(s) "
                "from a supposedly fresh cache"
            )

        parallel = run_sweep(
            spec, jobs=jobs, cache=SweepCache(Path(tmp) / "cache-parallel")
        )
        if dumps_result(parallel.doc) != reference:
            failures.append(
                f"--jobs {jobs} merged document differs from the serial one"
            )

        warm = run_sweep(spec, jobs=1, cache=serial_cache)
        if warm.executed:
            failures.append(
                f"warm resume recomputed {len(warm.executed)} cell(s): "
                + ", ".join(warm.executed)
            )
        if dumps_result(warm.doc) != reference:
            failures.append("warm-resume document differs from the serial one")

        serial_cache.clear()
        cold = run_sweep(spec, jobs=1, cache=serial_cache)
        if cold.cached:
            failures.append(
                f"cleared cache still served {len(cold.cached)} cell(s)"
            )
        if dumps_result(cold.doc) != reference:
            failures.append("rerun after cache clear differs from the serial one")
    return failures
