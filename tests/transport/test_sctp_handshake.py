"""Four-way handshake, cookies, verification tags (paper §3.5.2)."""

from repro.network import Packet
from repro.simkernel import SECOND
from repro.transport.sctp import (
    AbortChunk,
    DataChunk,
    SCTPConfig,
    SCTPEndpoint,
    SCTPPacket,
    OneToManySocket,
)
from repro.transport.sctp.chunks import StateCookie
from repro.transport.sctp.endpoint import COOKIE_LIFETIME_NS
from repro.util.blobs import RealBlob

from ..conftest import make_cluster, sctp_pair


def test_four_way_handshake_establishes():
    kernel, cluster = make_cluster()
    s0, s1, aid = sctp_pair(kernel, cluster)
    assoc = s0.association(aid)
    assert assoc.state == "ESTABLISHED"
    # server side up too
    kernel.run(until=kernel.now + 1 * SECOND)
    server_assoc = next(iter(s1._assocs.values()))
    assert server_assoc.state == "ESTABLISHED"
    assert server_assoc.peer_vtag == assoc.my_vtag
    assert assoc.peer_vtag == server_assoc.my_vtag


def test_server_keeps_no_state_before_cookie_echo():
    """INIT must be answered statelessly: no association is created until
    the signed cookie returns (SYN-flood immunity)."""
    kernel, cluster = make_cluster()
    cfg = SCTPConfig()
    e0 = SCTPEndpoint(cluster.hosts[0], cfg)
    e1 = SCTPEndpoint(cluster.hosts[1], cfg)
    OneToManySocket(e1, 6000, cfg)  # listener
    from repro.transport.sctp.chunks import InitChunk

    # hand-roll 50 INITs (a SYN-flood) without ever echoing the cookie
    for i in range(50):
        init = InitChunk(
            init_tag=1000 + i, a_rwnd=1000, n_out_streams=1, n_in_streams=1,
            initial_tsn=1, addresses=(cluster.host_address(0),),
        )
        pkt = SCTPPacket(src_port=9000 + i, dst_port=6000, vtag=0, chunks=(init,))
        cluster.hosts[0].send(
            Packet(
                src=cluster.host_address(0), dst=cluster.host_address(1),
                proto="sctp", payload=pkt, wire_size=pkt.wire_size(),
            )
        )
    kernel.run(until=kernel.now + 1 * SECOND)
    assert len(e1._assocs) == 0  # zero state allocated


def test_tampered_cookie_rejected():
    kernel, cluster = make_cluster()
    cfg = SCTPConfig()
    e1 = SCTPEndpoint(cluster.hosts[1], cfg)
    SCTPEndpoint(cluster.hosts[0], cfg)
    OneToManySocket(e1, 6000, cfg)

    forged = StateCookie(
        peer_addr=cluster.host_address(0),
        peer_port=5555,
        local_port=6000,
        peer_init_tag=42,
        peer_initial_tsn=1,
        peer_a_rwnd=1000,
        peer_addresses=(cluster.host_address(0),),
        my_init_tag=43,
        my_initial_tsn=1,
        n_out_streams=1,
        n_in_streams=1,
        created_at_ns=kernel.now,
        signature=123456789,  # not signed by the endpoint's secret
    )
    from repro.transport.sctp.chunks import CookieEchoChunk

    pkt = SCTPPacket(src_port=5555, dst_port=6000, vtag=43, chunks=(CookieEchoChunk(forged),))
    cluster.hosts[0].send(
        Packet(
            src=cluster.host_address(0), dst=cluster.host_address(1),
            proto="sctp", payload=pkt, wire_size=pkt.wire_size(),
        )
    )
    kernel.run(until=kernel.now + 1 * SECOND)
    assert len(e1._assocs) == 0
    assert e1.bad_signature_cookies == 1


def test_stale_cookie_rejected():
    kernel, cluster = make_cluster()
    cfg = SCTPConfig()
    e1 = SCTPEndpoint(cluster.hosts[1], cfg)
    from repro.transport.sctp.chunks import InitChunk

    init = InitChunk(
        init_tag=7, a_rwnd=100, n_out_streams=1, n_in_streams=1,
        initial_tsn=1, addresses=("10.0.0.1",),
    )
    fake_pkt = SCTPPacket(src_port=5555, dst_port=6000, vtag=0, chunks=(init,))
    cookie = e1.make_cookie(init, fake_pkt, "10.0.0.1", cfg)
    kernel.call_after(COOKIE_LIFETIME_NS + 1 * SECOND, lambda: None)
    kernel.run()  # 61 virtual seconds pass: cookie now stale
    assert e1.validate_cookie(cookie) == "stale cookie"
    assert e1.stale_cookies == 1


def test_fresh_cookie_validates():
    kernel, cluster = make_cluster()
    cfg = SCTPConfig()
    e1 = SCTPEndpoint(cluster.hosts[1], cfg)
    from repro.transport.sctp.chunks import InitChunk

    init = InitChunk(
        init_tag=7, a_rwnd=100, n_out_streams=1, n_in_streams=1,
        initial_tsn=1, addresses=("10.0.0.1",),
    )
    fake_pkt = SCTPPacket(src_port=5555, dst_port=6000, vtag=0, chunks=(init,))
    cookie = e1.make_cookie(init, fake_pkt, "10.0.0.1", cfg)
    assert e1.validate_cookie(cookie) is None


def test_blind_injection_dropped_by_verification_tag():
    """Packets with a wrong vtag never reach the association — the reset
    attack TCP is vulnerable to [30] bounces off SCTP."""
    kernel, cluster = make_cluster()
    s0, s1, aid = sctp_pair(kernel, cluster)
    assoc = s0.association(aid)
    before = assoc.stats.data_chunks_received

    evil = SCTPPacket(
        src_port=6000,
        dst_port=assoc.local_port,
        vtag=assoc.my_vtag ^ 0xDEAD,  # guessed wrong
        chunks=(DataChunk(tsn=999, sid=0, ssn=0, payload=RealBlob(b"evil")),),
    )
    cluster.hosts[1].send(
        Packet(
            src=cluster.host_address(1), dst=cluster.host_address(0),
            proto="sctp", payload=evil, wire_size=evil.wire_size(),
        )
    )
    kernel.run(until=kernel.now + 1 * SECOND)
    assert assoc.stats.data_chunks_received == before
    assert s0.endpoint.bad_vtag_drops == 1

    # an ABORT with a forged vtag must not kill the association either
    evil_abort = SCTPPacket(
        src_port=6000, dst_port=assoc.local_port,
        vtag=assoc.my_vtag ^ 1, chunks=(AbortChunk("forged"),),
    )
    cluster.hosts[1].send(
        Packet(
            src=cluster.host_address(1), dst=cluster.host_address(0),
            proto="sctp", payload=evil_abort, wire_size=evil_abort.wire_size(),
        )
    )
    kernel.run(until=kernel.now + 1 * SECOND)
    assert assoc.state == "ESTABLISHED"


def test_ootb_non_handshake_packet_counted():
    kernel, cluster = make_cluster()
    e1 = SCTPEndpoint(cluster.hosts[1])
    SCTPEndpoint(cluster.hosts[0])
    stray = SCTPPacket(
        src_port=1, dst_port=2, vtag=99,
        chunks=(DataChunk(tsn=1, sid=0, ssn=0, payload=RealBlob(b"?")),),
    )
    cluster.hosts[0].send(
        Packet(
            src=cluster.host_address(0), dst=cluster.host_address(1),
            proto="sctp", payload=stray, wire_size=stray.wire_size(),
        )
    )
    kernel.run(until=kernel.now + 1 * SECOND)
    assert e1.ootb_packets == 1


def test_handshake_survives_loss():
    """INIT/INIT-ACK/COOKIE-ECHO retransmit on T1 until established."""
    kernel, cluster = make_cluster(loss_rate=0.3, seed=11)
    s0, s1, aid = sctp_pair(kernel, cluster)
    assert s0.association(aid).state == "ESTABLISHED"
