"""Property tests: RPI wire framing and cross-protocol equivalence."""

from hypothesis import given, settings, strategies as st

from repro.core import run_app
from repro.core.constants import FLAG_SHORT
from repro.core.envelope import Envelope

LIMIT = 600_000_000_000


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tcp_feed_reconstructs_units_from_any_segmentation(data):
    """The TCP RPI's read state machine (``TCPRPI._feed``) must recover
    exact middleware units no matter how the byte stream is chopped into
    recv() chunks."""
    from repro.core.rpi.tcp_rpi import TCPRPI, _InState
    from repro.util.blobs import ChunkList, RealBlob

    # build a wire image of several units
    messages = []
    wire = b""
    for i in range(data.draw(st.integers(1, 5))):
        body = data.draw(st.binary(min_size=0, max_size=60))
        env = Envelope(len(body), i, 0, 1, FLAG_SHORT, i)
        messages.append((env, body))
        wire += env.pack().to_bytes() + body

    # chop at arbitrary positions
    cuts = sorted(data.draw(st.lists(st.integers(0, len(wire)), max_size=8)))
    bounds = [0] + cuts + [len(wire)]
    chunks = [wire[bounds[j] : bounds[j + 1]] for j in range(len(bounds) - 1)]

    # a bare RPI with one connected (fake) socket; no world, no kernel
    rpi = TCPRPI.__new__(TCPRPI)
    sock = object()
    state = _InState()
    rpi._in_state = {sock: state}
    rpi._rank_by_sock = {sock: 1}
    received = []
    rpi._on_unit = lambda src, env, body: received.append((env, body.to_bytes()))

    for chunk in chunks:
        if chunk:
            rpi._feed(sock, ChunkList([RealBlob(chunk)]))

    assert received == messages
    assert state.buf.nbytes == 0 and state.env is None


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 1000),
    sizes=st.lists(st.integers(1, 150_000), min_size=1, max_size=5),
)
def test_tcp_and_sctp_compute_identical_application_results(seed, sizes):
    """Differential property: the transport must never change what an MPI
    program computes — only when.  Random message sizes, 2% loss."""

    async def app(comm):
        peer = 1 - comm.rank
        acc = 0
        for i, size in enumerate(sizes):
            payload = bytes([(i * 31 + comm.rank) % 256]) * min(size, 2_000)
            if comm.rank == 0:
                await comm.send(payload, dest=peer, tag=i % 7)
                echoed = (await comm.recv(source=peer, tag=i % 7)).to_bytes()
                assert echoed == payload  # echo integrity under loss
                acc += sum(echoed[:16])
            else:
                got = (await comm.recv(source=peer, tag=i % 7)).to_bytes()
                await comm.send(got, dest=peer, tag=i % 7)
                acc += sum(got[:16])
        return await comm.allreduce(acc)

    outcomes = {}
    for rpi in ("tcp", "sctp"):
        result = run_app(
            app, n_procs=2, rpi=rpi, seed=seed, loss_rate=0.02, limit_ns=LIMIT
        )
        outcomes[rpi] = result.results
    assert outcomes["tcp"] == outcomes["sctp"]
