"""SCTP data transfer: framing, fragmentation, ordering, flow control."""

import pytest

from repro.simkernel import SECOND, Future
from repro.transport.sctp import MessageTooBig, SCTPConfig
from repro.transport.sctp.chunks import DATA_PAYLOAD
from repro.util.blobs import RealBlob, SyntheticBlob

from ..conftest import make_cluster, sctp_pair


def pump_messages(kernel, sock, count, limit_s=120):
    """Collect `count` messages from a socket, driving the kernel: drain
    with `recvmsg` on every `on_readable`, as the SCTP RPI reads."""
    out = []
    done = Future(name="pumped")
    previous = sock.on_readable

    def drain():
        while len(out) < count:
            msg = sock.recvmsg()
            if msg is None:
                return
            out.append(msg)
        if not done.done():
            done.set_result(None)

    sock.on_readable = drain
    try:
        drain()
        kernel.run_until(done, limit=kernel.now + limit_s * SECOND)
    finally:
        sock.on_readable = previous
    return out


def test_message_framing_preserved():
    kernel, cluster = make_cluster()
    s0, s1, aid = sctp_pair(kernel, cluster)
    for body in (b"one", b"two longer", b"three even longer message"):
        assert s0.sendmsg(aid, 0, RealBlob(body))
    msgs = pump_messages(kernel, s1, 3)
    # message boundaries survive: three distinct messages, not a stream
    assert [m.data.to_bytes() for m in msgs] == [
        b"one", b"two longer", b"three even longer message",
    ]


def test_large_message_fragmented_and_reassembled():
    kernel, cluster = make_cluster()
    s0, s1, aid = sctp_pair(kernel, cluster)
    body = bytes(range(256)) * 250  # 64 000 bytes -> ~45 chunks
    assert s0.sendmsg(aid, 3, RealBlob(body))
    msgs = pump_messages(kernel, s1, 1)
    assert msgs[0].data.to_bytes() == body
    assert msgs[0].stream == 3
    assert s0.association(aid).stats.data_chunks_sent > 20


def test_message_above_sendmsg_limit_rejected():
    kernel, cluster = make_cluster()
    cfg = SCTPConfig(sndbuf=50_000)
    s0, s1, aid = sctp_pair(kernel, cluster, config=cfg)
    with pytest.raises(MessageTooBig):
        s0.sendmsg(aid, 0, SyntheticBlob(50_001))


def test_stream_id_validated_for_every_send():
    """A stream the association does not have is refused at the sender,
    unordered or not, as ValueError (not as a size error) — before it
    can reach a peer whose inbound side would reject it mid-run."""
    kernel, cluster = make_cluster()
    s0, s1, aid = sctp_pair(kernel, cluster)
    assoc = s0.association(aid)
    sent = assoc.stats.packets_sent
    for unordered in (False, True):
        with pytest.raises(ValueError, match="stream 99 out of range") as err:
            s0.sendmsg(aid, 99, RealBlob(b"stray"), unordered=unordered)
        assert not isinstance(err.value, MessageTooBig)
    assert assoc.queued_bytes == 0 and assoc.stats.packets_sent == sent
    # the peer's kernel keeps running and the association still works
    assert s0.sendmsg(aid, 9, RealBlob(b"fine"), unordered=True)
    assert pump_messages(kernel, s1, 1)[0].data.to_bytes() == b"fine"


def test_sendmsg_eagain_when_buffer_full():
    kernel, cluster = make_cluster()
    cfg = SCTPConfig(sndbuf=40_000)
    s0, s1, aid = sctp_pair(kernel, cluster, config=cfg)
    accepted = 0
    while s0.sendmsg(aid, 0, SyntheticBlob(10_000)):
        accepted += 1
    assert accepted == 4  # exactly sndbuf worth
    # drain at the receiver; the buffer must reopen
    pump_messages(kernel, s1, 4)
    kernel.run(until=kernel.now + 2 * SECOND)
    assert s0.sendmsg(aid, 0, SyntheticBlob(10_000))


def test_send_room_predicts_exactly_the_refusals():
    """``send_room`` is the buffer test of ``sendmsg`` without the
    message: a payload is refused iff it is larger than the room."""
    kernel, cluster = make_cluster()
    cfg = SCTPConfig(sndbuf=40_000)
    s0, s1, aid = sctp_pair(kernel, cluster, config=cfg)
    assert s0.send_room(aid) == 40_000
    assert s0.sendmsg(aid, 0, SyntheticBlob(30_000))
    assert s0.send_room(aid) == 10_000
    assert not s0.sendmsg(aid, 0, SyntheticBlob(10_001))  # refused: nothing changed
    assert s0.send_room(aid) == 10_000
    assert s0.sendmsg(aid, 0, SyntheticBlob(10_000))
    assert s0.send_room(aid) == 0


def test_send_room_never_hides_an_error():
    """Where ``sendmsg`` would raise rather than refuse, the room is the
    sendmsg limit, so a caller that skips on lack of room still calls."""
    kernel, cluster = make_cluster()
    cfg = SCTPConfig(sndbuf=40_000)
    s0, s1, aid = sctp_pair(kernel, cluster, config=cfg)
    assert s0.sendmsg(aid, 0, SyntheticBlob(40_000))  # buffer full
    s0.association(aid).close()  # SHUTDOWN_PENDING: data still outstanding
    assert s0.send_room(aid) == 40_000
    with pytest.raises(BrokenPipeError):
        s0.sendmsg(aid, 0, SyntheticBlob(1))


def test_per_stream_ssn_assignment():
    kernel, cluster = make_cluster()
    s0, s1, aid = sctp_pair(kernel, cluster)
    s0.sendmsg(aid, 0, RealBlob(b"a0"))
    s0.sendmsg(aid, 1, RealBlob(b"b0"))
    s0.sendmsg(aid, 0, RealBlob(b"a1"))
    msgs = pump_messages(kernel, s1, 3)
    ssns = {(m.stream, m.data.to_bytes()): m.ssn for m in msgs}
    assert ssns[(0, b"a0")] == 0
    assert ssns[(0, b"a1")] == 1
    assert ssns[(1, b"b0")] == 0


def test_unordered_delivery_flag():
    kernel, cluster = make_cluster()
    s0, s1, aid = sctp_pair(kernel, cluster)
    s0.sendmsg(aid, 0, RealBlob(b"u"), unordered=True)
    msgs = pump_messages(kernel, s1, 1)
    assert msgs[0].unordered


def test_flow_control_rwnd_throttles_sender():
    """Receiver never reads: a_rwnd closes and the sender's outstanding
    data is bounded by the receive buffer."""
    kernel, cluster = make_cluster()
    cfg = SCTPConfig(sndbuf=500_000, rcvbuf=60_000)
    s0, s1, aid = sctp_pair(kernel, cluster, config=cfg)
    sent = 0
    for _ in range(40):
        if s0.sendmsg(aid, 0, SyntheticBlob(10_000)):
            sent += 1
    kernel.run(until=kernel.now + 10 * SECOND)
    assoc = s0.association(aid)
    delivered_not_read = sum(m.nbytes for m in s1.inbox)
    # everything delivered so far is parked in the (bounded) receive buffer,
    # plus at most a few RTO-paced zero-window probe chunks
    assert delivered_not_read <= 60_000 + 12 * DATA_PAYLOAD
    assert assoc.peer_rwnd <= DATA_PAYLOAD  # window essentially closed
    # reading reopens the window and the rest flows
    total_expected = sent
    got = pump_messages(kernel, s1, total_expected)
    assert len(got) == total_expected


def test_bidirectional_transfer():
    kernel, cluster = make_cluster()
    s0, s1, aid0 = sctp_pair(kernel, cluster)
    kernel.run(until=kernel.now + 1 * SECOND)
    server_assoc = next(iter(s1._assocs.values()))
    s0.sendmsg(aid0, 0, RealBlob(b"ping"))
    s1.sendmsg(server_assoc.assoc_id, 0, RealBlob(b"pong"))
    got0 = pump_messages(kernel, s0, 1)
    got1 = pump_messages(kernel, s1, 1)
    assert got0[0].data.to_bytes() == b"pong"
    assert got1[0].data.to_bytes() == b"ping"
