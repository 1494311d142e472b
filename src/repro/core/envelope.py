"""The LAM message envelope (paper Fig. 2).

Every middleware message starts with a fixed-size envelope carrying the
body length, the matching triple (tag, context, rank) plus flags and a
sequence number.  On the wire the envelope is real bytes (so the TCP RPI
can recover message boundaries from the byte stream, and so tests can
check framing); bodies may be synthetic.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from ..util.blobs import RealBlob
from .constants import FLAG_LONG_BODY, FLAG_SHORT, FLAG_SSEND, KIND_MASK

_FORMAT = "<qiiiii"  # length, tag, context, rank, flags, seqnum
_STRUCT = struct.Struct(_FORMAT)  # prebound: skips the format-cache lookup
_pack = _STRUCT.pack
_unpack = _STRUCT.unpack
ENVELOPE_SIZE = _STRUCT.size  # 28 bytes

# envelope kinds that carry their body inline (all others travel alone)
_INLINE_BODY_KINDS = frozenset((FLAG_SHORT, FLAG_SSEND, FLAG_LONG_BODY))


class Envelope(NamedTuple):
    """One middleware envelope: immutable and equal by value.

    A named tuple, the cheapest immutable record to build: an envelope
    is built twice per message.
    """

    length: int  # body bytes that follow (0 for pure control envelopes)
    tag: int
    context: int
    rank: int  # sender's rank (or the addressee's for some ACKs)
    flags: int
    seqnum: int  # sender-unique id; pairs ACKs/bodies with requests

    def pack(self) -> RealBlob:
        """Serialise to wire bytes."""
        return RealBlob(
            _pack(
                self.length,
                self.tag,
                self.context,
                self.rank,
                self.flags,
                self.seqnum,
            )
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "Envelope":
        """Parse from exactly ENVELOPE_SIZE wire bytes."""
        if len(raw) != ENVELOPE_SIZE:
            raise ValueError(f"envelope must be {ENVELOPE_SIZE} bytes, got {len(raw)}")
        return cls._make(_unpack(raw))

    def kind(self) -> int:
        """The single kind bit set in flags."""
        return self.flags & KIND_MASK

    def wire_body_length(self) -> int:
        """Bytes that follow this envelope *on the wire*.

        ``length`` always holds the full message body size, but a
        rendezvous envelope (and the various ACK/control envelopes)
        travels alone — the body comes later, under a LONG_BODY envelope.
        """
        if self.flags & KIND_MASK in _INLINE_BODY_KINDS:
            return self.length
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Env len={self.length} tag={self.tag} ctx={self.context} "
            f"rank={self.rank} flags={self.flags:#x} seq={self.seqnum}>"
        )
