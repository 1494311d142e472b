"""Per-host TCP endpoint: port table and segment demultiplexing.

Registered on a :class:`repro.network.Host` under protocol ``"tcp"``.
Owns every connection terminating at this host, hands SYNs to listeners,
and answers strays with RST.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...network.host import Host
from ...network.packet import IP_HEADER, Packet
from .connection import CONN_STAT_FIELDS, ConnStats, TCPConfig, TCPConnection
from .segment import ACK, RST, SYN, TCP_HEADER, TCPSegment

ConnKey = Tuple[int, str, int]  # (local_port, remote_addr, remote_port)


class TCPEndpoint:
    """The host's TCP stack entry point."""

    EPHEMERAL_BASE = 49152

    def __init__(self, host: Host, default_config: Optional[TCPConfig] = None) -> None:
        self.host = host
        self.kernel = host.kernel
        self.default_config = default_config or TCPConfig()
        self._conns: Dict[ConnKey, TCPConnection] = {}
        self._listeners: Dict[int, "ListenerHooks"] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        self._iss_rng = host.kernel.rng(f"tcp.iss.{host.name}")
        self.checksum_drops = 0
        host.register_protocol("tcp", self)
        # per-host stat sums over every connection this endpoint ever made
        # (closed connections keep counting — teardown must not lose data)
        self._all_conn_stats: list[ConnStats] = []
        scope = self.kernel.metrics.scope(f"transport.tcp.{host.name}")
        for name in CONN_STAT_FIELDS:
            scope.probe(
                name,
                lambda n=name: sum(getattr(s, n) for s in self._all_conn_stats),
            )
        scope.probe("connections_total", lambda: len(self._all_conn_stats))
        scope.probe("connections_open", lambda: len(self._conns))
        scope.probe("checksum_drops", lambda: self.checksum_drops)

    def track_conn_stats(self, stats: ConnStats) -> None:
        """Include one connection's counters in the per-host sums."""
        self._all_conn_stats.append(stats)

    def total_stats(self) -> ConnStats:
        """Sum of every connection's counters (open and closed)."""
        total = ConnStats()
        for stats in self._all_conn_stats:
            for name in CONN_STAT_FIELDS:
                setattr(total, name, getattr(total, name) + getattr(stats, name))
        return total

    # -- connection management -------------------------------------------
    def pick_iss(self) -> int:
        """Random initial send sequence (keeps connections distinguishable)."""
        return self._iss_rng.randrange(1, 1 << 28)

    def allocate_port(self) -> int:
        """Next ephemeral local port."""
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    def connect(
        self,
        remote_addr: str,
        remote_port: int,
        local_port: Optional[int] = None,
        config: Optional[TCPConfig] = None,
    ) -> TCPConnection:
        """Create and start an active-open connection."""
        lport = local_port if local_port is not None else self.allocate_port()
        conn = TCPConnection(
            self,
            local_addr=self.host.primary_address,
            local_port=lport,
            remote_addr=remote_addr,
            remote_port=remote_port,
            config=config or self.default_config,
        )
        key = (lport, remote_addr, remote_port)
        if key in self._conns:
            raise OSError(f"address in use: {key}")
        self._conns[key] = conn
        conn.open_active()
        return conn

    def listen(self, port: int, hooks: "ListenerHooks") -> None:
        """Install an accept handler on ``port``."""
        if port in self._listeners:
            raise OSError(f"port {port} already listening")
        self._listeners[port] = hooks

    def unlisten(self, port: int) -> None:
        """Remove a listener."""
        self._listeners.pop(port, None)

    def forget(self, conn: TCPConnection) -> None:
        """Remove a closed connection from the demux table."""
        key = (conn.local_port, conn.remote_addr, conn.remote_port)
        if self._conns.get(key) is conn:
            del self._conns[key]

    # -- packet input -------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Demultiplex one inbound packet to its connection or listener."""
        if packet.corrupted:
            # Internet checksum failure: the segment never reaches the
            # connection (silently discarded, recovered by retransmission).
            self.checksum_drops += 1
            return
        seg: TCPSegment = packet.payload
        key = (seg.dst_port, packet.src, seg.src_port)
        conn = self._conns.get(key)
        if conn is not None:
            # the datagram terminates here: only the segment travels on
            conn.on_segment(seg)
            return
        hooks = self._listeners.get(seg.dst_port)
        if hooks is not None and seg.has(SYN) and not seg.has(ACK):
            conn = TCPConnection(
                self,
                local_addr=packet.dst,
                local_port=seg.dst_port,
                remote_addr=packet.src,
                remote_port=seg.src_port,
                config=hooks.config or self.default_config,
            )
            self._conns[key] = conn
            hooks.on_new_connection(conn)
            conn.open_passive(seg)
            return
        if not seg.has(RST):
            self._send_rst(packet, seg)

    def _send_rst(self, packet: Packet, seg: TCPSegment) -> None:
        rst = TCPSegment(
            src_port=seg.dst_port,
            dst_port=seg.src_port,
            seq=seg.ack,
            ack=seg.end_seq,
            flags=RST | ACK,
            window=0,
        )
        self.host.send(
            Packet(packet.dst, packet.src, "tcp", rst, IP_HEADER + TCP_HEADER)
        )


class ListenerHooks:
    """What a listening socket gives the endpoint: a connection callback."""

    def __init__(self, on_new_connection, config: Optional[TCPConfig] = None) -> None:
        self.on_new_connection = on_new_connection
        self.config = config
