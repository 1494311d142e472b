"""From-scratch SCTP (RFC 2960/4960, KAME personality).

Everything the paper relies on is here:

* four-way handshake with a signed, time-limited state cookie (no server
  state until COOKIE-ECHO — SYN-flood immunity, §3.5.2),
* verification tags on every packet (blind-injection/reset protection),
* message orientation with fragmentation (B/E bits) and bundling,
* multistreaming: TSN transmission sequencing + per-stream SSN ordering,
  so streams deliver independently (the paper's HOL-blocking cure),
* SACK with *unlimited* gap-ack blocks (vs TCP's 3), delayed-SACK rules,
* byte-counted congestion control with the full-PMTU-on-1-byte rule and
  slow start entered whenever cwnd <= ssthresh (§4.1.1's list),
* multihoming: per-destination cwnd/RTO, heartbeats, failover, and
  retransmissions directed to an alternate active path,
* the one-to-many socket style, autoclose, and no half-close,
* RFC 8260 user-message interleaving (I-DATA chunks: a second encoding
  for the one reassembly-and-ordering engine in :mod:`.streams`)
  negotiated at association setup, with pluggable stream schedulers
  (fcfs/rr/wfq/prio) deciding which stream's message transmits next.
"""

from .association import Association, MessageTooBig, SCTPConfig
from .chunks import (
    AbortChunk,
    CookieAckChunk,
    CookieEchoChunk,
    DataChunk,
    HeartbeatAckChunk,
    HeartbeatChunk,
    IDataChunk,
    InitAckChunk,
    InitChunk,
    SackChunk,
    SCTPPacket,
    ShutdownAckChunk,
    ShutdownChunk,
    ShutdownCompleteChunk,
)
from .endpoint import SCTPEndpoint
from .sched import (
    SCHEDULER_NAMES,
    FCFSScheduler,
    PriorityScheduler,
    RoundRobinScheduler,
    StreamScheduler,
    WeightedFairScheduler,
    make_scheduler,
)
from .socket import OneToManySocket, ReceivedMessage

__all__ = [
    "AbortChunk",
    "Association",
    "CookieAckChunk",
    "CookieEchoChunk",
    "DataChunk",
    "FCFSScheduler",
    "HeartbeatAckChunk",
    "HeartbeatChunk",
    "IDataChunk",
    "InitAckChunk",
    "InitChunk",
    "MessageTooBig",
    "OneToManySocket",
    "PriorityScheduler",
    "ReceivedMessage",
    "RoundRobinScheduler",
    "SackChunk",
    "SCHEDULER_NAMES",
    "SCTPConfig",
    "SCTPEndpoint",
    "SCTPPacket",
    "ShutdownAckChunk",
    "ShutdownChunk",
    "ShutdownCompleteChunk",
    "StreamScheduler",
    "WeightedFairScheduler",
    "make_scheduler",
]
