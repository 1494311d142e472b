"""From-scratch TCP (FreeBSD 5.3 personality).

Implements everything the paper's TCP discussion touches: 3-way handshake,
byte-stream sequencing, cumulative + selective acknowledgements (3 SACK
blocks, as IP option space allowed in 2005 stacks — §4.1.1), NewReno
slow-start / congestion-avoidance / fast-retransmit / fast-recovery, BSD
coarse-grained retransmission timers with exponential backoff, delayed
ACKs, advertised-window flow control with persist probes, and half-close
(§3.5.2).  There is no Nagle path: LAM-TCP disables Nagle.
"""

from .congestion import NewRenoState
from .connection import TCPConfig, TCPConnection
from .endpoint import TCPEndpoint
from .segment import SackBlock, TCPSegment
from .socket import Selector, TCPListener, TCPSocket

__all__ = [
    "NewRenoState",
    "SackBlock",
    "Selector",
    "TCPConfig",
    "TCPConnection",
    "TCPEndpoint",
    "TCPListener",
    "TCPSegment",
    "TCPSocket",
]
