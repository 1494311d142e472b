"""Per-host SCTP endpoint: demultiplexing, cookies, verification tags.

The endpoint implements the parts of SCTP that exist *before* an
association does: the stateless INIT -> INIT-ACK reply whose signed
cookie carries all the would-be TCB state (SYN-flood immunity), cookie
validation (signature + staleness) on COOKIE-ECHO, and verification-tag
checking that makes blind injection/reset attacks fail (paper §3.5.2 —
tested in ``tests/transport/test_sctp_security.py``).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Optional, Tuple

from ...network.host import Host
from ...network.packet import Packet
from ...simkernel import SECOND
from .association import ASSOC_STAT_FIELDS, AssocStats, Association, SCTPConfig
from .chunks import (
    AbortChunk,
    CookieEchoChunk,
    InitAckChunk,
    InitChunk,
    SCTPPacket,
    StateCookie,
)

ConnKey = Tuple[int, str, int]  # (local_port, peer_addr, peer_port)

#: a COOKIE-ECHO older than this is stale (RFC 4960's Valid.Cookie.Life)
COOKIE_LIFETIME_NS = 60 * SECOND


class ListenerHooks:
    """What a listening one-to-many socket registers with the endpoint."""

    def __init__(
        self,
        on_new_association: Callable[[Association], None],
        config: Optional[SCTPConfig] = None,
    ) -> None:
        self.on_new_association = on_new_association
        self.config = config


class SCTPEndpoint:
    """The host's SCTP stack entry point."""

    EPHEMERAL_BASE = 49152

    def __init__(self, host: Host, default_config: Optional[SCTPConfig] = None) -> None:
        self.host = host
        self.kernel = host.kernel
        self.default_config = default_config or SCTPConfig()
        self.tag_rng = host.kernel.rng(f"sctp.tags.{host.name}")
        self._secret = self.tag_rng.randrange(1, 1 << 63)
        self._assocs: Dict[ConnKey, Association] = {}
        self._listeners: Dict[int, ListenerHooks] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        self._next_assoc_id = 1
        self.bad_vtag_drops = 0
        self.crc32c_drops = 0
        self.stale_cookies = 0
        self.bad_signature_cookies = 0
        self.ootb_packets = 0
        host.register_protocol("sctp", self)
        # per-host stat sums over every association this endpoint ever made
        # (closed associations keep counting — teardown must not lose data)
        self._all_assoc_stats: list[AssocStats] = []
        scope = self.kernel.metrics.scope(f"transport.sctp.{host.name}")
        for name in ASSOC_STAT_FIELDS:
            scope.probe(
                name,
                lambda n=name: sum(getattr(s, n) for s in self._all_assoc_stats),
            )
        scope.probe("associations_total", lambda: len(self._all_assoc_stats))
        scope.probe(
            "associations_open",
            lambda: len({id(a) for a in self._assocs.values()}),
        )
        scope.probe("bad_vtag_drops", lambda: self.bad_vtag_drops)
        scope.probe("crc32c_drops", lambda: self.crc32c_drops)
        scope.probe("stale_cookies", lambda: self.stale_cookies)
        scope.probe("bad_signature_cookies", lambda: self.bad_signature_cookies)
        scope.probe("ootb_packets", lambda: self.ootb_packets)

    def track_assoc_stats(self, stats: AssocStats) -> None:
        """Include one association's counters in the per-host sums."""
        self._all_assoc_stats.append(stats)

    def total_stats(self) -> AssocStats:
        """Sum of every association's counters (open and closed)."""
        total = AssocStats()
        for stats in self._all_assoc_stats:
            for name in ASSOC_STAT_FIELDS:
                setattr(total, name, getattr(total, name) + getattr(stats, name))
        return total

    # -- registration -------------------------------------------------------
    def allocate_port(self) -> int:
        """Next ephemeral local port."""
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    def next_assoc_id(self) -> int:
        """Monotonic association identifier (socket API handle)."""
        assoc_id = self._next_assoc_id
        self._next_assoc_id += 1
        return assoc_id

    def listen(self, port: int, hooks: ListenerHooks) -> None:
        """Accept INIT/COOKIE-ECHO on ``port``."""
        if port in self._listeners:
            raise OSError(f"SCTP port {port} already listening")
        self._listeners[port] = hooks

    def unlisten(self, port: int) -> None:
        """Stop accepting new associations on ``port``."""
        self._listeners.pop(port, None)

    def register_association(self, assoc: Association, peer_addrs) -> None:
        """Index an association under every known peer address."""
        for addr in peer_addrs:
            key = (assoc.local_port, addr, assoc.peer_port)
            self._assocs.setdefault(key, assoc)

    def forget(self, assoc: Association) -> None:
        """Drop all demux entries of a closed association."""
        for key in [k for k, a in self._assocs.items() if a is assoc]:
            del self._assocs[key]

    def create_association(
        self,
        peer_addr: str,
        peer_port: int,
        local_port: Optional[int] = None,
        config: Optional[SCTPConfig] = None,
    ) -> Association:
        """Client-side association (connect() must be called by the owner)."""
        lport = local_port if local_port is not None else self.allocate_port()
        assoc = Association(
            self,
            local_port=lport,
            peer_addr=peer_addr,
            peer_port=peer_port,
            config=config or self.default_config,
            assoc_id=self.next_assoc_id(),
        )
        self.register_association(assoc, [peer_addr])
        return assoc

    # -- cookies ---------------------------------------------------------------
    def _sign(self, cookie: StateCookie) -> int:
        payload = repr((self._secret,) + cookie.body()).encode()
        return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")

    def make_cookie(self, init: InitChunk, pkt: SCTPPacket, src_addr: str,
                    config: SCTPConfig) -> StateCookie:
        """Build the signed state cookie for a received INIT."""
        cookie = StateCookie(
            peer_addr=src_addr,
            peer_port=pkt.src_port,
            local_port=pkt.dst_port,
            peer_init_tag=init.init_tag,
            peer_initial_tsn=init.initial_tsn,
            peer_a_rwnd=init.a_rwnd,
            peer_addresses=tuple(init.addresses) or (src_addr,),
            my_init_tag=self.tag_rng.randrange(1, 1 << 32),
            my_initial_tsn=self.tag_rng.randrange(1, 1 << 30),
            n_out_streams=min(config.n_out_streams, init.n_in_streams),
            n_in_streams=min(config.n_in_streams, init.n_out_streams),
            created_at_ns=self.kernel.now,
            # RFC 8260 negotiation: interleave only if both sides offer it
            idata=bool(config.interleaving and init.idata),
        )
        cookie.signature = self._sign(cookie)
        return cookie

    def validate_cookie(self, cookie: StateCookie) -> Optional[str]:
        """Returns an error string, or None when the cookie is good."""
        unsigned = StateCookie(*cookie.body())
        if self._sign(unsigned) != cookie.signature:
            self.bad_signature_cookies += 1
            return "invalid cookie signature"
        if self.kernel.now - cookie.created_at_ns > COOKIE_LIFETIME_NS:
            self.stale_cookies += 1
            return "stale cookie"
        return None

    # -- packet input -------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Demultiplex one inbound SCTP packet."""
        if packet.corrupted:
            # The mandatory CRC32c over the whole packet fails; RFC 4960
            # §6.8 says discard silently (paper §3.5.2 robustness claim).
            self.crc32c_drops += 1
            return
        pkt: SCTPPacket = packet.payload
        key = (pkt.dst_port, packet.src, pkt.src_port)
        assoc = self._assocs.get(key)
        if assoc is not None:
            # Every packet must carry our verification tag; anything else
            # (blind injection, packets from a dead incarnation) is dropped.
            if pkt.vtag != assoc.my_vtag:
                self.bad_vtag_drops += 1
                return
            # the datagram terminates here: only the SCTP packet travels on
            assoc.on_packet(pkt, packet.src)
            return

        # no association: only handshake chunks are acceptable
        for chunk in pkt.chunks:
            if isinstance(chunk, InitChunk):
                self._on_ootb_init(chunk, pkt, packet)
                return
            if isinstance(chunk, CookieEchoChunk):
                self._on_ootb_cookie_echo(chunk, pkt, packet)
                return
            if isinstance(chunk, AbortChunk):
                return  # never respond to an OOTB abort
        self.ootb_packets += 1

    def _on_ootb_init(self, init: InitChunk, pkt: SCTPPacket, packet: Packet) -> None:
        hooks = self._listeners.get(pkt.dst_port)
        if hooks is None:
            self.ootb_packets += 1
            return
        config = hooks.config or self.default_config
        cookie = self.make_cookie(init, pkt, packet.src, config)
        # Stateless reply: no TCB is allocated until the cookie comes back.
        reply = SCTPPacket(
            src_port=pkt.dst_port,
            dst_port=pkt.src_port,
            vtag=init.init_tag,
            chunks=(
                InitAckChunk(
                    init_tag=cookie.my_init_tag,
                    a_rwnd=config.rcvbuf,
                    n_out_streams=cookie.n_out_streams,
                    n_in_streams=cookie.n_in_streams,
                    initial_tsn=cookie.my_initial_tsn,
                    cookie=cookie,
                    addresses=tuple(self.host.addresses()),
                    idata=cookie.idata,
                ),
            ),
        )
        self.host.send(
            Packet(packet.dst, packet.src, "sctp", reply, reply.wire_size())
        )

    def _on_ootb_cookie_echo(
        self, echo: CookieEchoChunk, pkt: SCTPPacket, packet: Packet
    ) -> None:
        hooks = self._listeners.get(pkt.dst_port)
        if hooks is None:
            self.ootb_packets += 1
            return
        error = self.validate_cookie(echo.cookie)
        if error is not None:
            abort = SCTPPacket(
                src_port=pkt.dst_port,
                dst_port=pkt.src_port,
                vtag=echo.cookie.peer_init_tag,
                chunks=(AbortChunk(error),),
            )
            self.host.send(
                Packet(packet.dst, packet.src, "sctp", abort, abort.wire_size())
            )
            return
        assoc = Association.from_cookie(
            self, echo.cookie, config=hooks.config or self.default_config,
            assoc_id=self.next_assoc_id(),
        )
        self.register_association(assoc, echo.cookie.peer_addresses)
        hooks.on_new_association(assoc)
        # Processing the packet answers the COOKIE-ECHO with COOKIE-ACK
        # (leg 4) and delivers any DATA bundled on leg 3.
        assoc.on_packet(pkt, packet.src)
        assoc.on_established()
