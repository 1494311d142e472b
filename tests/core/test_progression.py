"""Progression-engine protocol behaviour: eager/rendezvous, unexpected
messages, the long-message race (§3.4), engine statistics."""

import pytest

from repro.core import EAGER_LIMIT, run_app
from repro.core.world import World, WorldConfig
from repro.util.blobs import SyntheticBlob

LIMIT = 300_000_000_000
BOTH = pytest.mark.parametrize("rpi", ["tcp", "sctp"])


@BOTH
def test_eager_vs_rendezvous_protocol_choice(rpi):
    async def app(comm):
        if comm.rank == 0:
            await comm.send(SyntheticBlob(EAGER_LIMIT), dest=1, tag=1)  # eager
            await comm.send(SyntheticBlob(EAGER_LIMIT + 1), dest=1, tag=2)  # rndv
            # snapshot before the finalize barrier adds collective traffic
            return (comm.rpi.stats.eager_sends, comm.rpi.stats.rendezvous_sends)
        await comm.recv(source=0, tag=1)
        await comm.recv(source=0, tag=2)
        return None

    world = World(WorldConfig(n_procs=2, rpi=rpi, seed=1))
    result = world.run(app, limit_ns=LIMIT)
    eager, rndv = result.results[0]
    assert eager == 1
    assert rndv == 1


@BOTH
def test_unexpected_messages_buffered_and_matched(rpi):
    async def app(comm):
        kernel = comm.process.kernel
        if comm.rank == 0:
            for t in range(5):
                await comm.send(t, dest=1, tag=t)
            return None
        await kernel.sleep(30_000_000)  # all five arrive while we sleep
        # LAM-like middleware progresses only inside MPI calls: the first
        # recv pumps everything; tag 0 matches it, tags 1-4 are unexpected
        values = [await comm.recv(source=0, tag=t) for t in range(5)]
        return (values, comm.rpi.stats.unexpected_messages)

    r = run_app(app, n_procs=2, rpi=rpi, seed=1, limit_ns=LIMIT)
    values, unexpected = r.results[1]
    assert values == list(range(5))
    assert unexpected >= 4  # tags 1-4 were buffered in the hash table


@BOTH
def test_unexpected_rendezvous_held_without_body(rpi):
    """A long message posted before the receive leaves only its envelope
    at the receiver; the 300 KB body must not travel until matched."""

    async def app(comm):
        kernel = comm.process.kernel
        if comm.rank == 0:
            req = comm.isend(SyntheticBlob(300_000), dest=1, tag=8)
            await kernel.sleep(20_000_000)
            mid_bytes = comm.rpi.stats.bytes_sent  # before the recv posts
            await comm.wait(req)
            return mid_bytes
        await kernel.sleep(50_000_000)
        blob = await comm.recv(source=0, tag=8)
        return blob.nbytes

    r = run_app(app, n_procs=2, rpi=rpi, seed=1, limit_ns=LIMIT)
    bytes_before_match, received = r.results
    assert received == 300_000
    assert bytes_before_match < 10_000  # only envelopes/acks had moved


@BOTH
def test_simultaneous_long_exchange_same_tag(rpi):
    """The paper's §3.4 race: both processes send each other long messages
    with the SAME tag (= same SCTP stream) at the same time.  Option B
    must keep the ACK from interleaving into the body."""

    async def app(comm):
        peer = 1 - comm.rank
        send = comm.isend(SyntheticBlob(250_000), dest=peer, tag=6)
        recv = comm.irecv(source=peer, tag=6)
        await comm.waitall([send, recv])
        return recv.data.nbytes

    r = run_app(app, n_procs=2, rpi=rpi, seed=1, limit_ns=LIMIT)
    assert r.results == [250_000, 250_000]


@BOTH
def test_many_interleaved_longs_and_shorts(rpi):
    async def app(comm):
        peer = 1 - comm.rank
        reqs = []
        sizes = [100, 100_000, 50, 200_000, 1_000, 70_000]
        for i, size in enumerate(sizes):
            reqs.append(comm.isend(SyntheticBlob(size), dest=peer, tag=i))
            reqs.append(comm.irecv(source=peer, tag=i))
        await comm.waitall(reqs)
        got = sorted(r.data.nbytes for r in reqs if r.kind == "recv")
        return got == sorted(sizes)

    r = run_app(app, n_procs=2, rpi=rpi, seed=2, limit_ns=LIMIT)
    assert all(r.results)


def test_sctp_option_b_no_interleave_on_stream(monkeypatch):
    """While the head unit of a (rank, stream) queue is mid-transmission,
    the next unit must not start (Option B, §3.4.2) — but other streams
    keep flowing."""
    from repro.core.envelope import Envelope

    # a tiny association send buffer forces EAGAIN mid-unit
    cfg = WorldConfig(n_procs=2, rpi="sctp", seed=1)
    world = World(cfg)
    packed = []  # every envelope serialised, in order
    pack = Envelope.pack
    monkeypatch.setattr(Envelope, "pack", lambda env: packed.append(env) or pack(env))

    async def app(comm):
        if comm.rank != 0:
            # all posted up front, so both rendezvous are acked at once
            recvs = [comm.irecv(source=0, tag=t) for t in (3, 3, 4)]
            await comm.waitall(recvs)
            return tuple(r.data.nbytes for r in recvs)
        rpi = comm.rpi
        # two units on one stream, one on another
        r1 = comm.isend(SyntheticBlob(400_000), dest=1, tag=3)
        r2 = comm.isend(SyntheticBlob(400_000), dest=1, tag=3)
        r3 = comm.isend(SyntheticBlob(1_000), dest=1, tag=4)
        # both are rendezvous sends: once the two ACKs are in, the long
        # bodies share a queue.  The first 400 KB body cannot fit the
        # 220 KB sndbuf, so the head is mid-body and blocked, and nothing
        # of the parked one has begun or been built -- its envelope is not
        # even packed, whereas the head's and the other stream's are
        while not any(len(q) == 2 for q in rpi._outq.values()):
            await rpi.advance_once()
        (head, parked), = [q for q in rpi._outq.values() if len(q) == 2]
        assert head.env_sent and head.next_size > 0
        assert not parked.env_sent  # Option B: strictly FIFO
        assert head.env in packed and parked.env not in packed
        assert r3.done and not r1.done
        await comm.waitall([r1, r2, r3])
        return True

    result = world.run(app, limit_ns=LIMIT)
    assert result.results[0] is True
    assert result.results[1] == (400_000, 400_000, 1_000)


@BOTH
def test_engine_counts_units_and_bytes(rpi):
    async def app(comm):
        if comm.rank == 0:
            await comm.send(b"x" * 1000, dest=1, tag=0)
            return comm.rpi.stats
        await comm.recv(source=0, tag=0)
        return comm.rpi.stats

    world = World(WorldConfig(n_procs=2, rpi=rpi, seed=1))
    res = world.run(app, limit_ns=LIMIT)
    sender, receiver = res.results
    assert sender.units_sent >= 1
    assert receiver.units_received >= 1
    assert receiver.bytes_received >= 1000
