"""Protocol-invariant sanitizers: gating, per-layer checks, zero-cost proof."""

from types import SimpleNamespace

import pytest

from repro.analyze.checkers import (
    AssociationSanitizer,
    IDataSanitizer,
    KernelSanitizer,
    OptionBSanitizer,
    RPISanitizer,
    StreamOrderSanitizer,
    TCPConnectionSanitizer,
)
from repro.analyze.sanitize import (
    InvariantViolation,
    kernel_sanitizer,
    idata_sanitizer,
    option_b_sanitizer,
    rpi_sanitizer,
    sanitized,
    sanitizers_enabled,
    sctp_sanitizer,
    stream_sanitizer,
    tcp_sanitizer,
)
from repro.core.world import World, WorldConfig
from repro.transport.sctp import SCTPConfig
from repro.transport.sctp.association import Association
from repro.transport.sctp.chunks import DataChunk
from repro.transport.sctp.streams import InboundStreams
from repro.transport.tcp.connection import TCPConnection
from repro.workloads.mpbench import make_pingpong
from repro.util.blobs import BlobView, RealBlob


# ---------------------------------------------------------------------------
# enablement gating: factories return None unless opted in
# ---------------------------------------------------------------------------
def test_factories_return_none_when_disabled():
    with sanitized(False):
        assert not sanitizers_enabled()
        assert idata_sanitizer() is None
        assert kernel_sanitizer(object()) is None
        assert tcp_sanitizer() is None
        assert sctp_sanitizer() is None
        assert stream_sanitizer() is None
        assert rpi_sanitizer() is None
        assert option_b_sanitizer() is None


def test_factories_return_checkers_when_enabled():
    with sanitized(True):
        assert sanitizers_enabled()
        assert isinstance(kernel_sanitizer(object()), KernelSanitizer)
        assert isinstance(tcp_sanitizer(), TCPConnectionSanitizer)
        assert isinstance(sctp_sanitizer(), AssociationSanitizer)
        assert isinstance(stream_sanitizer(), StreamOrderSanitizer)
        assert isinstance(rpi_sanitizer(), RPISanitizer)
        assert isinstance(idata_sanitizer(), IDataSanitizer)
        assert isinstance(option_b_sanitizer(), OptionBSanitizer)


def _world_hooks(rpi, monkeypatch):
    """Every sanitizer hook of a 2-rank job on ``rpi`` (SCTP with I-DATA
    interleaving on), as ``(hook, value, checker class)`` triples: the
    kernel's, each RPI's, and those of every association, inbound-stream
    engine and TCP connection the job created."""
    created = {Association: [], InboundStreams: [], TCPConnection: []}
    for cls, instances in created.items():
        init = cls.__init__

        def recording_init(self, *args, _init=init, _instances=instances, **kwargs):
            _init(self, *args, **kwargs)
            _instances.append(self)

        monkeypatch.setattr(cls, "__init__", recording_init)
    options = SCTPConfig(interleaving=rpi == "sctp")
    world = World(WorldConfig(n_procs=2, rpi=rpi, sctp_config=options))
    world.run(make_pingpong(30 * 1024, 2, warmup=0))
    monkeypatch.undo()
    hooks = [("kernel._san", world.kernel._san, KernelSanitizer)]
    for proc in world.processes:
        hooks.append(("rpi._san", proc.rpi._san, RPISanitizer))
        if rpi == "sctp":
            hooks.append(("rpi._san_b", proc.rpi._san_b, OptionBSanitizer))
    for assoc in created[Association]:
        hooks.append(("association._san", assoc._san, AssociationSanitizer))
    for inbound in created[InboundStreams]:
        hooks.append(("inbound._san", inbound._san, StreamOrderSanitizer))
        hooks.append(("inbound._san_idata", inbound._san_idata, IDataSanitizer))
    for conn in created[TCPConnection]:
        hooks.append(("connection._san", conn._san, TCPConnectionSanitizer))
    per_stack = {
        "sctp": {"association._san", "inbound._san", "inbound._san_idata", "rpi._san_b"},
        "tcp": {"connection._san"},
    }
    assert {name for name, _, _ in hooks} == {"kernel._san", "rpi._san"} | per_stack[rpi]
    return hooks


@pytest.mark.parametrize("rpi", ["sctp", "tcp"])
def test_armed_world_holds_a_live_checker_in_every_hook(rpi, monkeypatch):
    """A factory that answered None while armed would let a
    ``REPRO_SANITIZE=1`` run pass with nothing checked."""
    with sanitized(True):
        hooks = _world_hooks(rpi, monkeypatch)
    for name, checker, cls in hooks:
        assert isinstance(checker, cls), f"{name} is {checker!r} with sanitizers on"


@pytest.mark.parametrize("rpi", ["sctp", "tcp"])
def test_disarmed_world_holds_no_checker(rpi, monkeypatch):
    with sanitized(False):
        hooks = _world_hooks(rpi, monkeypatch)
    for name, checker, _ in hooks:
        assert checker is None, f"{name} is {checker!r} with sanitizers off"


def test_sanitized_context_restores_previous_state():
    with sanitized(True):
        with sanitized(False):
            assert not sanitizers_enabled()
        assert sanitizers_enabled()


def test_flag_is_resolved_once_not_per_call(monkeypatch):
    """The environment is read when the override changes (and at import),
    never by the query itself."""
    import os

    from repro.analyze.sanitize import enable_sanitizers, reset_sanitizers

    try:
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        reset_sanitizers()  # re-resolves: the environment decides
        assert sanitizers_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        monkeypatch.setattr(os.environ, "get", None)  # any read would raise
        assert sanitizers_enabled()  # still the resolved value
        monkeypatch.undo()
        enable_sanitizers(False)
        assert not sanitizers_enabled()
        with sanitized(True):
            assert sanitizers_enabled()
        assert not sanitizers_enabled()
    finally:
        monkeypatch.undo()
        reset_sanitizers()


# ---------------------------------------------------------------------------
# kernel layer
# ---------------------------------------------------------------------------
def fake_kernel(heap, now=0, live=None):
    if live is None:
        live = len(heap)
    return SimpleNamespace(_heap=heap, _now=now, _live_events=live)


def post(when, key):
    """A fire-and-forget heap entry."""
    return (when, key, print, ())


def handle(when, key, armed=True, tracked=True):
    """A handle's heap entry: armed or idle, tracked or superseded."""
    obj = SimpleNamespace(
        deadline=when if armed else None, _entry_key=key if tracked else key + 100
    )
    return (when, key, obj, None)


def test_kernel_time_travel_trips():
    san = KernelSanitizer(fake_kernel([], now=1_000))
    san.on_fire(1_000)  # equal time is legal (same-timestamp events)
    with pytest.raises(InvariantViolation, match="monotonicity"):
        san.on_fire(999)


def test_kernel_heap_property_audit():
    good = [post(1, 0), handle(5, 1), post(3, 2)]
    KernelSanitizer(fake_kernel(good)).audit()  # valid binary min-heap
    broken = [post(5, 0), handle(1, 1)]  # parent key > child key
    with pytest.raises(InvariantViolation, match="heap integrity"):
        KernelSanitizer(fake_kernel(broken)).audit()


def test_kernel_counter_agreement_audit():
    # one post, one armed handle; a cancelled handle's entry and a
    # superseded entry are queued but not pending
    heap = [post(1, 0), handle(2, 1), handle(3, 2, armed=False), handle(4, 3, tracked=False)]
    KernelSanitizer(fake_kernel(heap, live=2)).audit()
    for wrong in (1, 3, 4):
        with pytest.raises(InvariantViolation, match="pending-events"):
            KernelSanitizer(fake_kernel(heap, live=wrong)).audit()


# ---------------------------------------------------------------------------
# TCP layer
# ---------------------------------------------------------------------------
def fake_conn(una=100, nxt=100, tail=100, fin_seq=None,
              cwnd=14_480, mss=1_448, ssthresh=1 << 30,
              fast_retransmits=0, timeouts=0, rcv_nxt=50, sacked=(),
              parked=(), out_of_order_bytes=None):
    cc = SimpleNamespace(
        cwnd=cwnd, mss=mss, ssthresh=ssthresh,
        fast_retransmits=fast_retransmits, timeouts=timeouts,
    )
    return SimpleNamespace(
        snd_una=una, snd_nxt=nxt, _fin_seq=fin_seq, cc=cc, _sacked=list(sacked),
        send_buffer=SimpleNamespace(tail_seq=tail),
        reassembly=SimpleNamespace(
            rcv_nxt=rcv_nxt,
            _segments=[(start, end, None) for start, end in parked],
            out_of_order_bytes=(
                sum(end - start for start, end in parked)
                if out_of_order_bytes is None else out_of_order_bytes
            ),
        ),
        local_addr="10.0.0.1", local_port=1, remote_addr="10.0.0.2",
        remote_port=2,
    )


def test_tcp_cumulative_ack_retreat_trips():
    san = TCPConnectionSanitizer()
    san.on_ack_processed(fake_conn(una=100))
    san.on_ack_processed(fake_conn(una=100))  # duplicate is fine
    with pytest.raises(InvariantViolation, match="cumulative-ACK"):
        san.on_ack_processed(fake_conn(una=99))


def test_tcp_ack_beyond_sent_data_trips():
    with pytest.raises(InvariantViolation, match="send-window"):
        TCPConnectionSanitizer().on_ack_processed(fake_conn(una=200, nxt=150))


def test_tcp_snd_nxt_beyond_buffer_trips_unless_fin():
    with pytest.raises(InvariantViolation, match="send-window"):
        TCPConnectionSanitizer().on_ack_processed(
            fake_conn(una=100, nxt=101, tail=100)
        )
    # the FIN legitimately occupies one sequence number past the data
    TCPConnectionSanitizer().on_ack_processed(
        fake_conn(una=100, nxt=101, tail=100, fin_seq=100)
    )


def test_tcp_cwnd_and_ssthresh_bounds():
    with pytest.raises(InvariantViolation, match="cwnd lower bound"):
        TCPConnectionSanitizer().on_ack_processed(fake_conn(cwnd=100, mss=1_448))
    with pytest.raises(InvariantViolation, match="ssthresh lower bound"):
        TCPConnectionSanitizer().on_ack_processed(
            fake_conn(ssthresh=1_000, fast_retransmits=1)
        )
    # pre-loss "infinite" ssthresh is legal
    TCPConnectionSanitizer().on_ack_processed(fake_conn(ssthresh=1 << 30))


def test_tcp_rcv_nxt_retreat_trips():
    san = TCPConnectionSanitizer()
    san.on_delivery(fake_conn(rcv_nxt=500))
    with pytest.raises(InvariantViolation, match="rcv_nxt"):
        san.on_delivery(fake_conn(rcv_nxt=499))


def test_tcp_out_of_order_count_drift_trips():
    san = TCPConnectionSanitizer()
    san.on_delivery(fake_conn(parked=((60, 80), (90, 95))))  # 25 bytes, counted
    with pytest.raises(InvariantViolation, match="out-of-order byte count"):
        san.on_delivery(fake_conn(parked=((60, 80), (90, 95)), out_of_order_bytes=20))


def test_tcp_segment_wire_size_drift_trips():
    from repro.transport.tcp.segment import ACK, TCPSegment
    from repro.util.blobs import ChunkList, SyntheticBlob

    san = TCPConnectionSanitizer()
    seg = TCPSegment(1, 2, 0, 0, ACK, 0, ChunkList([SyntheticBlob(100)]),
                     sack_blocks=((10, 20), (30, 40)))
    san.on_segment_sized(seg)  # as built: agrees with the fresh sum
    seg.sack_blocks = ((10, 20),)  # changed after it was sized
    with pytest.raises(InvariantViolation, match="segment wire size"):
        san.on_segment_sized(seg)


def test_tcp_double_fin_trips():
    san = TCPConnectionSanitizer()
    san.on_fin_accepted(fake_conn())
    with pytest.raises(InvariantViolation, match="single-FIN"):
        san.on_fin_accepted(fake_conn())


# ---------------------------------------------------------------------------
# SCTP layer
# ---------------------------------------------------------------------------
def record(tsn, nbytes=1_000, path="10.0.0.2", gap_acked=False):
    return SimpleNamespace(
        chunk=SimpleNamespace(tsn=tsn, payload=SimpleNamespace(nbytes=nbytes)),
        path_addr=path, gap_acked=gap_acked,
    )


def fake_assoc(cum=10, records=(), outstanding_bytes=None, paths=None,
               rcv_cum=0, above_cum=(), next_tsn=None):
    outstanding = {r.chunk.tsn: r for r in records}
    if next_tsn is None:  # the TSN after the last one in flight
        next_tsn = max(outstanding, default=cum) + 1
    if outstanding_bytes is None:
        outstanding_bytes = sum(
            r.chunk.payload.nbytes for r in records if not r.gap_acked
        )
    if paths is None:
        by_path = {}
        for r in records:
            if not r.gap_acked:
                by_path[r.path_addr] = (
                    by_path.get(r.path_addr, 0) + r.chunk.payload.nbytes
                )
        paths = {
            addr: SimpleNamespace(
                outstanding_bytes=nbytes, cwnd=10_000, mtu_payload=1_452
            )
            for addr, nbytes in by_path.items()
        }
    return SimpleNamespace(
        cum_tsn_acked=cum, next_tsn=next_tsn, outstanding=outstanding,
        outstanding_bytes=outstanding_bytes, paths=paths,
        rcv_cum_tsn=rcv_cum, _above_cum=list(above_cum),
    )


def test_sctp_clean_sack_state_passes():
    AssociationSanitizer().on_sack_processed(
        fake_assoc(cum=10, records=[record(11), record(12, gap_acked=True)])
    )


def test_sctp_cum_tsn_retreat_trips():
    san = AssociationSanitizer()
    san.on_sack_processed(fake_assoc(cum=10))
    with pytest.raises(InvariantViolation, match="cumulative-TSN"):
        san.on_sack_processed(fake_assoc(cum=9))


def test_sctp_outstanding_order_and_stale_tsn_trip():
    with pytest.raises(InvariantViolation, match="outstanding TSN order"):
        AssociationSanitizer().on_sack_processed(
            fake_assoc(cum=10, records=[record(12), record(11)])
        )
    with pytest.raises(InvariantViolation, match="outstanding TSN order"):
        # TSN <= cum should have been retired by the cumulative ACK
        AssociationSanitizer().on_sack_processed(
            fake_assoc(cum=10, records=[record(10)])
        )


def test_sctp_outstanding_tsn_range_trips():
    # a hole: 12 never left, yet 13 is in flight
    with pytest.raises(InvariantViolation, match="2 TSNs in flight, the last 13"):
        AssociationSanitizer().on_sack_processed(
            fake_assoc(cum=10, records=[record(11), record(13)])
        )
    # the tail: 12 was sent (next_tsn 13) but is not outstanding
    with pytest.raises(InvariantViolation, match="the last 11, but cum=10 and next_tsn=13"):
        AssociationSanitizer().on_sack_processed(
            fake_assoc(cum=10, records=[record(11)], next_tsn=13)
        )
    # the cumulative point past every TSN sent
    with pytest.raises(InvariantViolation, match="outstanding TSN range"):
        AssociationSanitizer().on_sack_processed(fake_assoc(cum=10, next_tsn=5))


def test_sctp_outstanding_bytes_mismatch_trips():
    with pytest.raises(InvariantViolation, match="outstanding-bytes"):
        AssociationSanitizer().on_sack_processed(
            fake_assoc(cum=10, records=[record(11)], outstanding_bytes=999)
        )


def test_sctp_per_path_accounting_and_cwnd_floor():
    assoc = fake_assoc(cum=10, records=[record(11, path="10.0.0.2")])
    assoc.paths["10.0.0.2"].outstanding_bytes = 5
    with pytest.raises(InvariantViolation, match="per-path outstanding"):
        AssociationSanitizer().on_sack_processed(assoc)
    assoc2 = fake_assoc(cum=10, records=[record(11, path="10.0.0.2")])
    assoc2.paths["10.0.0.2"].cwnd = 100  # below one PMTU
    with pytest.raises(InvariantViolation, match="cwnd lower bound"):
        AssociationSanitizer().on_sack_processed(assoc2)


def test_sctp_receiver_gap_set_consistency():
    san = AssociationSanitizer()
    san.on_data_received(fake_assoc(rcv_cum=5, above_cum=[(7, 8), (9, 11)]))
    with pytest.raises(InvariantViolation, match="receiver cum-TSN"):
        san.on_data_received(fake_assoc(rcv_cum=4))
    TCPConnectionSanitizer().on_ack_processed(
        fake_conn(una=7, nxt=20, tail=20, sacked=[(7, 8), (9, 11)])
    )


# lowest legal start 7 (SCTP: rcv_cum_tsn + 2; TCP: snd_una); below it, at
# cum + 1, empty, unsorted, overlapping, touching (one block held as two)
@pytest.mark.parametrize(
    "bad", [[(5, 6)], [(6, 8)], [(7, 7)], [(9, 11), (7, 8)], [(7, 10), (9, 11)], [(7, 9), (9, 11)]]
)
def test_selective_ack_range_corruption_trips(bad):
    with pytest.raises(InvariantViolation, match="gap-set"):
        AssociationSanitizer().on_data_received(fake_assoc(rcv_cum=5, above_cum=bad))
    with pytest.raises(InvariantViolation, match="SACK scoreboard"):
        TCPConnectionSanitizer().on_ack_processed(
            fake_conn(una=7, nxt=20, tail=20, sacked=bad)
        )


def test_sctp_e3_e4_gap_acked_retransmit_trips():
    san = AssociationSanitizer()
    san.on_retransmit([record(11)], "marked")  # not gap-acked: fine
    with pytest.raises(InvariantViolation, match="E3/E4"):
        san.on_retransmit([record(11, gap_acked=True)], "marked")


def _sized_packet(wire=0):
    from repro.transport.sctp.chunks import DataChunk, IDataChunk, SackChunk, SCTPPacket
    from repro.util.blobs import SyntheticBlob

    chunks = (
        SackChunk(cum_tsn=5, a_rwnd=10, gaps=((2, 3),)),
        DataChunk(tsn=6, sid=0, ssn=0, payload=SyntheticBlob(1001), wire=wire or 1020),
        IDataChunk(tsn=7, sid=1, ssn=0, payload=SyntheticBlob(3), wire=24),
    )
    return SCTPPacket(src_port=1, dst_port=2, vtag=3, chunks=chunks)


def test_sctp_caller_sized_packet_is_resummed():
    pkt = _sized_packet()
    size = 20 + 12 + 20 + 1020 + 24  # IP, common header, SACK, DATA, I-DATA
    AssociationSanitizer().on_packet_sized(pkt, size)
    with pytest.raises(InvariantViolation, match="packet wire size"):
        AssociationSanitizer().on_packet_sized(pkt, size + 4)
    with pytest.raises(InvariantViolation, match="DATA chunk wire size"):
        AssociationSanitizer().on_packet_sized(_sized_packet(wire=1016), size - 4)


def test_sctp_planted_packet_size_mismatch_trips(monkeypatch):
    """A transmit loop that sizes a packet 4 bytes long is caught at the
    first new-data packet (control packets are still summed, not passed)."""
    from repro.core import run_app
    from repro.transport.sctp.association import Association
    from repro.workloads.mpbench import make_pingpong

    transmit = Association._transmit_chunks

    def four_bytes_long(self, chunks, dest_addr, vtag=None, size=None):
        return transmit(self, chunks, dest_addr, vtag, None if size is None else size + 4)

    monkeypatch.setattr(Association, "_transmit_chunks", four_bytes_long)
    with sanitized(), pytest.raises(InvariantViolation, match="packet wire size"):
        run_app(make_pingpong(16 * 1024, 2), n_procs=2, rpi="sctp", seed=1)


def test_stream_ssn_order():
    msg = lambda sid, ssn, unordered=False: SimpleNamespace(  # noqa: E731
        sid=sid, ssn=ssn, unordered=unordered
    )
    san = StreamOrderSanitizer()
    san.on_deliver([msg(0, 0), msg(0, 1), msg(3, 0)])
    san.on_deliver([msg(0, 2), msg(1, 7, unordered=True)])  # unordered exempt
    with pytest.raises(InvariantViolation, match="SSN order"):
        san.on_deliver([msg(0, 4)])  # expected SSN 3


def test_stream_ssn_sanitizer_skips_idata_messages():
    """I-DATA messages always carry ssn=0; only the MID rules apply."""
    san = StreamOrderSanitizer()
    idata = lambda mid: SimpleNamespace(  # noqa: E731
        sid=0, ssn=0, unordered=False, mid=mid
    )
    san.on_deliver([idata(0), idata(1), idata(2)])  # ssn 0 repeats: exempt


def _idchunk(tsn, is_idata=True):
    return SimpleNamespace(tsn=tsn, is_idata=is_idata)


def test_idata_mode_exclusivity():
    san = IDataSanitizer()
    san.on_chunk(_idchunk(1))
    san.on_chunk(_idchunk(2))
    with pytest.raises(InvariantViolation, match="exclusivity"):
        san.on_chunk(_idchunk(3, is_idata=False))
    san = IDataSanitizer()
    san.on_chunk(_idchunk(1, is_idata=False))
    with pytest.raises(InvariantViolation, match="exclusivity"):
        san.on_chunk(_idchunk(2, is_idata=True))


def test_idata_fsn_contiguity():
    frag = lambda begin=False, end=False: SimpleNamespace(  # noqa: E731
        begin=begin, end=end
    )
    san = IDataSanitizer()
    san.on_assembled(0, 0, {0: frag(begin=True), 1: frag(end=True)}, 1)
    with pytest.raises(InvariantViolation, match="FSN contiguity"):
        san.on_assembled(0, 1, {0: frag(begin=True), 2: frag(end=True)}, 2)
    with pytest.raises(InvariantViolation, match="B bit"):
        san.on_assembled(0, 2, {0: frag(), 1: frag(end=True)}, 1)
    with pytest.raises(InvariantViolation, match="E bit"):
        san.on_assembled(0, 3, {0: frag(begin=True), 1: frag()}, 1)


def test_reassembly_must_tile_the_message():
    """A completed multi-fragment run hands over the message its views
    share; under the sanitizer the views must cover it exactly."""
    message = RealBlob(b"aabbcc")

    def run(*spans):
        inb = InboundStreams(1)
        last = len(spans) - 1
        for i, (offset, nbytes) in enumerate(spans):
            out = inb.on_data(
                DataChunk(i + 1, 0, 0, BlobView(message, offset, nbytes), i == 0, i == last)
            )
        return [m.data.to_bytes() for m in out]

    with sanitized():
        assert run((0, 2), (2, 2), (4, 2)) == [b"aabbcc"]
        with pytest.raises(InvariantViolation, match="tiling.*starts at byte 3"):
            run((0, 2), (3, 2), (5, 1))
        with pytest.raises(InvariantViolation, match="tiling.*cover 4 bytes"):
            run((0, 2), (2, 2))


def test_idata_per_stream_mid_order():
    msg = lambda sid, mid, unordered=False: SimpleNamespace(  # noqa: E731
        sid=sid, mid=mid, unordered=unordered
    )
    san = IDataSanitizer()
    # the first delivery anchors the expectation (wraparound seeding)
    san.on_deliver([msg(0, 0xFFFFFFFF)])
    san.on_deliver([msg(0, 0), msg(1, 7)])  # wraps; stream 1 anchors at 7
    san.on_deliver([msg(0, 1), msg(1, 8, unordered=True)])  # unordered exempt
    with pytest.raises(InvariantViolation, match="MID order"):
        san.on_deliver([msg(0, 3)])  # expected MID 2


# ---------------------------------------------------------------------------
# RPI layer
# ---------------------------------------------------------------------------
def test_rpi_state_legality():
    req = SimpleNamespace(state="rndv_wait_ack")
    RPISanitizer().expect_state(req, "rndv_wait_ack", "LONG_ACK")
    with pytest.raises(InvariantViolation, match="state legality"):
        RPISanitizer().expect_state(req, "recv_body", "body piece")


def test_rpi_ready_set_covers_readable_sockets():
    quiet = SimpleNamespace(readable=False)
    loud = SimpleNamespace(readable=True)
    RPISanitizer().expect_listed([quiet, loud], [loud], "pump")
    with pytest.raises(InvariantViolation, match="pump: namespace"):
        RPISanitizer().expect_listed([quiet, loud], [quiet], "pump")
    with pytest.raises(InvariantViolation, match="ready set covers"):
        RPISanitizer().expect_listed([loud], (), "blocking select")


def test_tcp_rpi_trips_on_a_swallowed_report():
    """A socket whose readiness reports are lost holds data the pump would
    never read; the armed RPI names it at the next inbound phase."""
    from repro.core import run_app

    async def app(comm):
        if comm.rank == 0:
            await comm.send(b"x", dest=1, tag=0)
            return None
        sock = comm.rpi._sock_by_rank[0]
        sock._route_events(lambda: None)  # planted: its reports go nowhere
        comm.rpi.poke()
        assert sock not in comm.rpi.selector.ready
        await comm.process.kernel.sleep(50_000_000)  # "x" arrives meanwhile
        return await comm.recv(source=0, tag=0)

    with sanitized(True), pytest.raises(
        InvariantViolation, match=r"rank 1 pump: <TCPSocket .* is readable but not listed"
    ):
        run_app(app, n_procs=2, rpi="tcp", seed=1, limit_ns=10**12, finalize_barrier=False)


def test_rpi_skipped_tcp_walk_finds_every_queue_stalled():
    full, free = object(), object()
    queues = {1: ["unit"], 2: [], 3: ["unit"]}
    sock_of = {1: full, 2: free, 3: free}
    RPISanitizer().expect_write_idle({1: ["unit"], 2: []}, sock_of, {full}, [full], "pump")
    RPISanitizer().expect_write_idle({4: ["unit"]}, sock_of, set(), [], "pump")  # unbound
    with pytest.raises(InvariantViolation, match="pump: the queue to peer 3 holds 1 unit"):
        RPISanitizer().expect_write_idle(queues, sock_of, {full}, [full, free], "pump")
    with pytest.raises(InvariantViolation, match="write set is the bound sockets"):
        RPISanitizer().expect_write_idle({1: ["unit"]}, sock_of, {full}, [], "pump")


def test_tcp_rpi_trips_on_a_stall_lifted_behind_its_back():
    """A socket dropped from ``Selector.stalled`` without the selector's
    lift flag would keep its queue unsent; the armed RPI names it at the
    next pump that skips the walk."""
    from repro.core import run_app
    from repro.transport.tcp import TCPConfig

    async def app(comm):
        if comm.rank == 1:
            return None
        rpi = comm.rpi
        for tag in range(4):
            comm.isend(b"x" * 60000, dest=1, tag=tag)
        rpi.poke()
        sock = rpi._sock_by_rank[1]
        assert sock in rpi.selector.stalled
        rpi.selector.stalled.discard(sock)  # planted: no lift recorded
        rpi.poke()
        return None

    with sanitized(True), pytest.raises(
        InvariantViolation,
        match=r"rank 0 pump: the queue to peer 1 holds \d+ unit\(s\) and <TCPSocket .* is not stalled",
    ):
        run_app(
            app, n_procs=2, rpi="tcp", seed=1, limit_ns=10**12, finalize_barrier=False,
            tcp_config=TCPConfig(sndbuf=72 * 1024),
        )


def test_rpi_resumes_only_when_done():
    RPISanitizer().expect_resumed_done(True, "rank 1")
    with pytest.raises(InvariantViolation, match="resumes only when done"):
        RPISanitizer().expect_resumed_done(None, "rank 1")


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_rank_resumed_before_done_trips(rpi):
    """Something other than the rank's wake resolves its blocked future:
    the rank would return from recv unfinished; the armed RPI names it."""
    from repro.core import run_app

    async def app(comm):
        kernel = comm.process.kernel
        if comm.rank == 0:
            await kernel.sleep(50_000_000)
            await comm.send(b"x", dest=1, tag=0)
            return None
        rpi_ = comm.rpi
        kernel.call_after(5_000_000, lambda: rpi_._waiter.set_result(None))  # planted
        return await comm.recv(source=0, tag=0)

    with sanitized(True), pytest.raises(
        InvariantViolation, match=r"rank 1: progress_until resumed with None"
    ):
        run_app(app, n_procs=2, rpi=rpi, seed=1, limit_ns=10**12, finalize_barrier=False)


def test_option_b_non_interleaving():
    san = OptionBSanitizer()
    a, b = object(), object()
    key = (1, 0)
    san.on_piece_sent(key, a, done=False)
    san.on_piece_sent(key, a, done=True)     # same unit finishes: fine
    san.on_piece_sent(key, b, done=False)    # next unit starts: fine
    san.on_piece_sent((1, 1), a, done=False)  # different stream: fine
    with pytest.raises(InvariantViolation, match="Option B"):
        san.on_piece_sent(key, a, done=False)  # b still mid-flight on key


# ---------------------------------------------------------------------------
# zero-cost property: enabling sanitizers must not change virtual time
# ---------------------------------------------------------------------------
def run_fig8_cell_digest():
    from repro.analyze.perturb import digest_payload, filter_schedule_sensitive
    from repro.bench.harness import run_cell_task

    rows, runs = run_cell_task(("fig8", {"size": 1024}, True))
    runs = [
        {"label": run["label"], "metrics": filter_schedule_sensitive(run["metrics"])}
        for run in runs
    ]
    return digest_payload({"rows": rows, "runs": runs})


def test_sanitizers_do_not_change_fig8_results():
    """ISSUE acceptance: sanitizers-on vs -off is bit-identical (fig8 cell)."""
    with sanitized(False):
        plain = run_fig8_cell_digest()
    with sanitized(True):
        checked = run_fig8_cell_digest()
    assert plain == checked


def test_full_stacks_run_clean_under_sanitizers():
    """A lossy end-to-end SCTP exchange trips nothing with checks armed."""
    from repro.util.blobs import RealBlob

    from ..conftest import make_cluster, sctp_pair
    from ..transport.test_sctp_transfer import pump_messages

    with sanitized(True):
        kernel, cluster = make_cluster(n_hosts=2, n_paths=2, loss_rate=0.05, seed=8)
        s0, s1, aid = sctp_pair(kernel, cluster)
        for _ in range(10):
            s0.sendmsg(aid, 0, RealBlob(b"s" * 4_000))
        msgs = pump_messages(kernel, s1, 10, limit_s=300)
    assert len(msgs) == 10


def test_simulator_startup_loads_no_other_analyze_module():
    """The kernel, both transports and both RPIs import the sanitizers;
    that must not drag the static analyzer or the perturbation tool in."""
    import subprocess
    import sys

    code = (
        "import sys, repro.core.world, repro.workloads.farm\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.analyze')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "['repro.analyze', 'repro.analyze.sanitize']"
