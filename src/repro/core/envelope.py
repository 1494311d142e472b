"""The LAM message envelope (paper Fig. 2).

Every middleware message starts with a fixed-size envelope carrying the
body length, the matching triple (tag, context, rank) plus flags and a
sequence number.  On the wire the envelope is real bytes (so the TCP RPI
can recover message boundaries from the byte stream, and so tests can
check framing); bodies may be synthetic.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import NamedTuple

from ..util.blobs import RealBlob
from .constants import FLAG_LONG_BODY, FLAG_SHORT, FLAG_SSEND

_FORMAT = "<qiiiii"  # length, tag, context, rank, flags, seqnum
_STRUCT = struct.Struct(_FORMAT)  # prebound: skips the format-cache lookup
_pack = _STRUCT.pack
ENVELOPE_SIZE = _STRUCT.size  # 28 bytes

#: parsing exactly ENVELOPE_SIZE wire bytes is
#: ``envelope_of(unpack_fields(raw))``: two C callables, so framing an
#: inbound envelope costs no Python frame (``unpack_fields`` raises
#: ``struct.error`` on any other length)
unpack_fields = _STRUCT.unpack

#: envelope kinds (``flags & KIND_MASK``) whose body follows them on the
#: wire; ``length`` always holds the full message body size, but a
#: rendezvous envelope (and the ACK/control envelopes) travels alone —
#: the body comes later, under a LONG_BODY envelope
INLINE_BODY_KINDS = frozenset((FLAG_SHORT, FLAG_SSEND, FLAG_LONG_BODY))


class Envelope(NamedTuple):
    """One middleware envelope: immutable and equal by value.

    A named tuple, the cheapest immutable record to build: an envelope
    is built twice per message (once to send, once parsed on arrival).
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Env len={self.length} tag={self.tag} ctx={self.context} "
            f"rank={self.rank} flags={self.flags:#x} seq={self.seqnum}>"
        )


#: the six unpacked fields as an :class:`Envelope`, without namedtuple's
#: Python-level ``__new__`` or ``_make``
envelope_of = partial(tuple.__new__, Envelope)
