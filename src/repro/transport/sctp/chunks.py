"""SCTP chunk and packet PDUs with wire-size accounting.

Sizes follow RFC 4960: a 12-byte common header carries the ports and the
32-bit verification tag; each chunk pads to a 4-byte boundary.  The SACK
chunk's gap-ack blocks are *not* capped — unlike TCP, whose SACK option
competes for ~40 bytes of option space, SCTP gap reporting is limited only
by the PMTU (paper §4.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Tuple

from ...network.packet import IP_HEADER
from ...util.blobs import Blob

PMTU = 1500  # fixed (§4): every experiment runs Ethernet-sized packets
COMMON_HEADER = 12
DATA_CHUNK_HEADER = 16
IDATA_CHUNK_HEADER = 20  # RFC 8260 §2.1: DATA + 32-bit MID + 32-bit FSN/PPID
SACK_CHUNK_BASE = 16
CONTROL_CHUNK_BASE = 20
# user bytes of one full DATA chunk in one PMTU-sized packet: 1452.  The
# association cuts fragments to it, the DRR quantum is one of it and the
# cwnd histogram's edges are powers of two of it
DATA_PAYLOAD = PMTU - IP_HEADER - COMMON_HEADER - DATA_CHUNK_HEADER


def _pad4(n: int) -> int:
    return (n + 3) // 4 * 4


class Chunk:
    """Base class: every chunk knows its padded wire size."""

    __slots__ = ()

    def wire_size(self) -> int:
        raise NotImplementedError


@dataclass(slots=True)
class DataChunk(Chunk):
    """One (possibly fragmentary) piece of a user message."""

    # class flag, not a field: lets the association/stream hot paths
    # branch DATA vs I-DATA without isinstance checks
    is_idata: ClassVar[bool] = False
    header: ClassVar[int] = DATA_CHUNK_HEADER

    tsn: int
    sid: int  # stream identifier (SNo in the paper's Fig. 1)
    ssn: int  # stream sequence number
    payload: Blob
    begin: bool = True  # B bit: first fragment of the message
    end: bool = True  # E bit: last fragment
    unordered: bool = False  # U bit
    ppid: int = 0  # payload protocol identifier (§2.3's PID mapping)
    # padded wire size, handed over by the bundler that has just computed
    # it (the payload never changes); 0 derives it from the payload
    wire: int = field(default=0, repr=False, compare=False)

    def wire_size(self) -> int:
        return self.wire or _pad4(self.header + self.payload.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        frag = ("B" if self.begin else "") + ("E" if self.end else "")
        return (
            f"<DATA tsn={self.tsn} sid={self.sid} ssn={self.ssn} "
            f"len={self.payload.nbytes} {frag or 'M'}>"
        )


@dataclass(slots=True)
class IDataChunk(DataChunk):
    """RFC 8260 I-DATA: a DATA chunk whose fragments are keyed by
    (stream, Message ID, Fragment Sequence Number) instead of contiguous
    TSNs, so fragments of different user messages may interleave on the
    wire.  ``ssn`` is unused (always 0): ordered delivery follows the
    per-stream MID succession.  Subclassing ``DataChunk`` keeps every
    dispatch site (association input, delivery observers,
    ``SCTPPacket.data_chunks``) working unchanged.
    """

    is_idata: ClassVar[bool] = True
    header: ClassVar[int] = IDATA_CHUNK_HEADER

    mid: int = 0  # 32-bit per-stream message identifier
    fsn: int = 0  # fragment sequence number; 0 on the B fragment

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        frag = ("B" if self.begin else "") + ("E" if self.end else "")
        return (
            f"<I-DATA tsn={self.tsn} sid={self.sid} mid={self.mid} "
            f"fsn={self.fsn} len={self.payload.nbytes} {frag or 'M'}>"
        )


@dataclass(slots=True)
class SackChunk(Chunk):
    """Selective acknowledgement: cumulative TSN + gap-ack blocks.

    The padded wire size is computed once, when the chunk is built, and
    read as ``wire`` by the sender that bundles it.
    """

    cum_tsn: int
    a_rwnd: int
    # gap blocks as (start, end) offsets relative to cum_tsn, RFC-style:
    # block (s, e) acknowledges TSNs cum_tsn+s .. cum_tsn+e inclusive.
    gaps: Tuple[Tuple[int, int], ...] = ()
    n_dup_tsns: int = 0
    wire: int = field(default=0, init=False, repr=False, compare=False)

    def __init__(
        self, cum_tsn: int, a_rwnd: int, gaps: Tuple[Tuple[int, int], ...] = (),
        n_dup_tsns: int = 0,
    ) -> None:
        self.cum_tsn = cum_tsn
        self.a_rwnd = a_rwnd
        self.gaps = gaps
        self.n_dup_tsns = n_dup_tsns
        # every term is a multiple of 4 already: nothing to pad.  At most
        # 16 duplicate TSNs are listed
        self.wire = SACK_CHUNK_BASE + 4 * (
            len(gaps) + (n_dup_tsns if n_dup_tsns < 16 else 16)
        )

    def wire_size(self) -> int:
        return self.wire

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SACK cum={self.cum_tsn} rwnd={self.a_rwnd} gaps={list(self.gaps)}>"


@dataclass(slots=True)
class InitChunk(Chunk):
    """Association initiation (leg 1 of the four-way handshake)."""

    init_tag: int  # the tag the peer must put in every packet to us
    a_rwnd: int
    n_out_streams: int
    n_in_streams: int
    initial_tsn: int
    addresses: Tuple[str, ...] = ()  # multihoming: all our bound addresses
    # RFC 8260 §2.2.1: "I can receive I-DATA" capability flag.  Rides in
    # the (padded) parameter space, so the wire size is unchanged.
    idata: bool = False

    def wire_size(self) -> int:
        return _pad4(CONTROL_CHUNK_BASE + 8 * len(self.addresses))


@dataclass(slots=True)
class StateCookie:
    """Everything the server needs to build the TCB, signed and dated.

    Carried opaquely inside INIT-ACK/COOKIE-ECHO so the server keeps *no*
    state for unverified peers (SYN-flood protection, paper §3.5.2).
    """

    peer_addr: str
    peer_port: int
    local_port: int
    peer_init_tag: int
    peer_initial_tsn: int
    peer_a_rwnd: int
    peer_addresses: Tuple[str, ...]
    my_init_tag: int
    my_initial_tsn: int
    n_out_streams: int
    n_in_streams: int
    created_at_ns: int
    # negotiated RFC 8260 interleaving result (both sides offered I-DATA);
    # signed like the rest of the body so a peer cannot flip it in flight
    idata: bool = False
    signature: int = 0

    def body(self) -> Tuple:
        return (
            self.peer_addr,
            self.peer_port,
            self.local_port,
            self.peer_init_tag,
            self.peer_initial_tsn,
            self.peer_a_rwnd,
            self.peer_addresses,
            self.my_init_tag,
            self.my_initial_tsn,
            self.n_out_streams,
            self.n_in_streams,
            self.created_at_ns,
            self.idata,
        )

    SIZE = 120  # approximate serialized cookie size on the wire


@dataclass(slots=True)
class InitAckChunk(Chunk):
    """Leg 2: mirror of INIT plus the signed state cookie."""

    init_tag: int
    a_rwnd: int
    n_out_streams: int
    n_in_streams: int
    initial_tsn: int
    cookie: StateCookie = None
    addresses: Tuple[str, ...] = ()
    # echo of the negotiated I-DATA result (see InitChunk.idata)
    idata: bool = False

    def wire_size(self) -> int:
        return _pad4(CONTROL_CHUNK_BASE + 8 * len(self.addresses) + StateCookie.SIZE)


@dataclass(slots=True)
class CookieEchoChunk(Chunk):
    """Leg 3: the client echoes the cookie (may bundle DATA after it)."""

    cookie: StateCookie

    def wire_size(self) -> int:
        return _pad4(4 + StateCookie.SIZE)


@dataclass(slots=True)
class CookieAckChunk(Chunk):
    """Leg 4: association fully up (may bundle DATA)."""

    def wire_size(self) -> int:
        return 4


@dataclass(slots=True)
class HeartbeatChunk(Chunk):
    """Path probe; ``info`` is opaque and echoed back."""

    dest_addr: str
    sent_at_ns: int
    nonce: int

    def wire_size(self) -> int:
        return _pad4(4 + 24)


@dataclass(slots=True)
class HeartbeatAckChunk(Chunk):
    """Echo of a HEARTBEAT's info."""

    dest_addr: str
    sent_at_ns: int
    nonce: int

    def wire_size(self) -> int:
        return _pad4(4 + 24)


@dataclass(slots=True)
class ShutdownChunk(Chunk):
    """Graceful close (SCTP has no half-closed state, §3.5.2)."""

    cum_tsn: int

    def wire_size(self) -> int:
        return 8


@dataclass(slots=True)
class ShutdownAckChunk(Chunk):
    def wire_size(self) -> int:
        return 4


@dataclass(slots=True)
class ShutdownCompleteChunk(Chunk):
    def wire_size(self) -> int:
        return 4


@dataclass(slots=True)
class AbortChunk(Chunk):
    """Immediate teardown (also sent for stale/invalid cookies)."""

    reason: str = ""

    def wire_size(self) -> int:
        return _pad4(4 + len(self.reason))


@dataclass(slots=True)
class SCTPPacket:
    """Common header + bundled chunks = one IP datagram."""

    src_port: int
    dst_port: int
    vtag: int  # verification tag: peer's init_tag (0 only on INIT)
    chunks: Tuple[Chunk, ...]

    def wire_size(self) -> int:
        return IP_HEADER + COMMON_HEADER + sum(c.wire_size() for c in self.chunks)

    def data_chunks(self) -> Tuple[DataChunk, ...]:
        return tuple(c for c in self.chunks if isinstance(c, DataChunk))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(type(c).__name__.replace("Chunk", "") for c in self.chunks)
        return f"<SCTP {self.src_port}->{self.dst_port} vtag={self.vtag} [{kinds}]>"
