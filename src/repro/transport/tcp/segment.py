"""TCP segment PDU and wire-size accounting."""

from __future__ import annotations

from typing import Optional, Tuple

from ...network.packet import IP_HEADER
from ...util.blobs import ChunkList

TCP_HEADER = 20
TIMESTAMP_OPTION = 12  # RFC 1323 timestamps, on by default in 2005 stacks

# Flag bits
FIN = 0x01
SYN = 0x02
RST = 0x04
ACK = 0x10


SackBlock = Tuple[int, int]  # [start, end) sequence range


class TCPSegment:
    """One TCP segment; ``data`` is a ChunkList of payload blobs.

    A segment is immutable once built, so its payload length and its
    on-the-wire size are computed once, here: ``data_len`` and
    ``wire_len`` (what :meth:`wire_size` sums afresh)."""

    __slots__ = (
        "src_port", "dst_port", "seq", "ack", "flags", "window", "data",
        "sack_blocks", "ts_echo", "data_len", "wire_len",
    )

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        seq: int,
        ack: int,
        flags: int,
        window: int,
        data: Optional[ChunkList] = None,
        sack_blocks: Tuple[SackBlock, ...] = (),
        ts_echo: int = 0,  # echoed send timestamp (ns) for RTT sampling
    ) -> None:
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.data = data
        self.sack_blocks = sack_blocks
        self.ts_echo = ts_echo
        self.data_len = data_len = data.nbytes if data is not None else 0
        # == wire_size(), sans the call
        wire_len = IP_HEADER + TCP_HEADER + TIMESTAMP_OPTION + data_len
        if sack_blocks:
            wire_len += (2 + 8 * len(sack_blocks) + 3) // 4 * 4
        self.wire_len = wire_len

    # -- helpers -----------------------------------------------------------
    @property
    def end_seq(self) -> int:
        """Sequence number just past this segment's payload (+SYN/FIN)."""
        length = self.data_len
        if self.flags & SYN:
            length += 1
        if self.flags & FIN:
            length += 1
        return self.seq + length

    def has(self, flag: int) -> bool:
        """Test a control flag."""
        return bool(self.flags & flag)

    def wire_size(self) -> int:
        """On-the-wire bytes including IP and TCP headers + options."""
        options = TIMESTAMP_OPTION
        if self.sack_blocks:
            # 2 bytes kind/len + 8 per block, padded to a 4-byte boundary
            raw = 2 + 8 * len(self.sack_blocks)
            options += (raw + 3) // 4 * 4
        return IP_HEADER + TCP_HEADER + options + self.data_len

    def flag_names(self) -> str:
        """Human-readable flags for traces."""
        names = []
        for bit, name in ((SYN, "SYN"), (FIN, "FIN"), (RST, "RST"), (ACK, "ACK")):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) or "-"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TCP {self.src_port}->{self.dst_port} {self.flag_names()} "
            f"seq={self.seq} ack={self.ack} len={self.data_len} "
            f"win={self.window} sack={list(self.sack_blocks)}>"
        )
