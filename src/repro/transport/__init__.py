"""Transport protocols implemented from scratch at packet level.

* :mod:`repro.transport.tcp` — a FreeBSD-5.3-flavoured TCP: 3-way
  handshake, byte-stream sequencing, cumulative ACK + 3-block SACK,
  NewReno congestion control, BSD coarse-grained retransmission timers,
  delayed ACKs, advertised-window flow control, optional Nagle.
* :mod:`repro.transport.sctp` — an RFC 2960/4960 + KAME-flavoured SCTP:
  4-way cookie handshake, verification tags, multistreaming (TSN/SSN/SNo),
  fragmentation + bundling, unlimited-gap SACK, byte-counted congestion
  control, multihoming with heartbeats and failover, the one-to-many
  socket style.

Both register as protocol handlers on :class:`repro.network.Host` objects
and expose non-blocking socket APIs the MPI middleware's RPI modules use.
"""

from .base import RTOEstimator

__all__ = ["RTOEstimator"]
