"""LAM-like MPI middleware — the paper's subject system.

The package implements the message-progression layer the paper re-designed
(§2.2): envelopes, eager/rendezvous/synchronous message protocols,
unexpected-message buffering, wildcard matching, request objects, and
collectives built over point-to-point — with two interchangeable RPI
(request progression interface) modules:

* :class:`repro.core.rpi.tcp_rpi.TCPRPI` — LAM-TCP: one socket per peer,
  ``select()``-driven, strict byte-stream ordering per peer (the baseline),
* :class:`repro.core.rpi.sctp_rpi.SCTPRPI` — the paper's contribution:
  a single one-to-many SCTP socket, associations mapped to ranks, message
  (tag, rank, context) mapped onto a pool of SCTP streams, two-level
  demultiplexing, per-stream state, and the "Option B" fix for the long
  message race (§3.4.2).  ``WorldConfig(num_streams=1)`` is the single-stream
  ablation used for the head-of-line-blocking experiment (§4.2.2).

Applications are coroutines receiving a :class:`Communicator` whose API
follows mpi4py conventions (``send/recv/isend/irecv``, ``Request.wait``),
plus ``compute(seconds)`` to model computation on the virtual clock.
:func:`repro.core.world.run_app` wires a full cluster together.
"""

from .communicator import Communicator
from .constants import ANY_SOURCE, ANY_TAG, EAGER_LIMIT
from .request import Request, Status
from .world import World, WorldConfig, WorldResult, run_app

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "EAGER_LIMIT",
    "Request",
    "Status",
    "World",
    "WorldConfig",
    "WorldResult",
    "run_app",
]
