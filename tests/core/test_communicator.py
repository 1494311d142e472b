"""Communicator API over both RPIs: point-to-point semantics."""

import pytest

from repro.core import ANY_SOURCE, ANY_TAG, run_app
from repro.core.request import Status
from repro.util.blobs import SyntheticBlob

BOTH_RPIS = pytest.mark.parametrize("rpi", ["tcp", "sctp"])
LIMIT = 120_000_000_000


@BOTH_RPIS
def test_blocking_send_recv(rpi):
    async def app(comm):
        if comm.rank == 0:
            await comm.send([1, 2, 3], dest=1, tag=9)
            return None
        return await comm.recv(source=0, tag=9)

    r = run_app(app, n_procs=2, rpi=rpi, seed=1, limit_ns=LIMIT)
    assert r.results[1] == [1, 2, 3]


@BOTH_RPIS
def test_nonblocking_requests_and_test(rpi):
    async def app(comm):
        if comm.rank == 0:
            req = comm.isend("payload", dest=1, tag=1)
            await comm.wait(req)
            return req.done
        req = comm.irecv(source=0, tag=1)
        polls = 0
        while not comm.test(req):
            polls += 1
            await comm.process.kernel.sleep(10_000)
        return (req.data, req.done)

    r = run_app(app, n_procs=2, rpi=rpi, seed=1, limit_ns=LIMIT)
    assert r.results[1] == ("payload", True)


@BOTH_RPIS
def test_message_order_same_trc(rpi):
    async def app(comm):
        n = 20
        if comm.rank == 0:
            for i in range(n):
                await comm.send(i, dest=1, tag=4)
            return None
        return [await comm.recv(source=0, tag=4) for _ in range(n)]

    r = run_app(app, n_procs=2, rpi=rpi, seed=2, limit_ns=LIMIT)
    assert r.results[1] == list(range(20))


@BOTH_RPIS
def test_wildcard_source_and_tag_with_status(rpi):
    async def app(comm):
        if comm.rank == 0:
            st = Status()
            values = []
            for _ in range(2):
                values.append((await comm.recv(ANY_SOURCE, ANY_TAG, status=st), st.source, st.tag))
            return sorted(values, key=lambda v: v[1])
        await comm.send(f"from{comm.rank}", dest=0, tag=comm.rank * 10)
        return None

    r = run_app(app, n_procs=3, rpi=rpi, seed=3, limit_ns=LIMIT)
    assert r.results[0] == [("from1", 1, 10), ("from2", 2, 20)]


@BOTH_RPIS
def test_waitany_and_waitall(rpi):
    async def app(comm):
        if comm.rank == 0:
            reqs = [comm.irecv(source=1, tag=t) for t in (1, 2, 3)]
            idx, req = await comm.waitany(reqs)
            await comm.waitall(reqs)
            return sorted(r.data for r in reqs)
        for t in (3, 2, 1):
            await comm.send(t * 100, dest=0, tag=t)
        return None

    r = run_app(app, n_procs=2, rpi=rpi, seed=1, limit_ns=LIMIT)
    assert r.results[0] == [100, 200, 300]


@BOTH_RPIS
def test_ssend_completes_only_when_matched(rpi):
    async def app(comm):
        kernel = comm.process.kernel
        if comm.rank == 0:
            req = comm.issend("sync-payload", dest=1, tag=7)
            await comm.wait(req)
            return kernel.now  # completion time of the synchronous send
        await kernel.sleep(40_000_000)  # receiver posts late, at t=40 ms
        post_time = kernel.now
        value = await comm.recv(source=0, tag=7)
        assert value == "sync-payload"
        return post_time

    r = run_app(app, n_procs=2, rpi=rpi, seed=1, limit_ns=LIMIT)
    ssend_done, recv_posted = r.results
    assert ssend_done >= recv_posted  # not complete before it was matched


@BOTH_RPIS
def test_standard_eager_send_completes_before_match(rpi):
    async def app(comm):
        kernel = comm.process.kernel
        if comm.rank == 0:
            req = comm.isend("eager", dest=1, tag=7)
            await comm.wait(req)
            return kernel.now
        await kernel.sleep(40_000_000)
        post_time = kernel.now
        await comm.recv(source=0, tag=7)
        return post_time

    r = run_app(app, n_procs=2, rpi=rpi, seed=1, limit_ns=LIMIT)
    send_done, recv_posted = r.results
    assert send_done < recv_posted  # eager: buffered at the receiver


@BOTH_RPIS
def test_long_message_rendezvous(rpi):
    async def app(comm):
        if comm.rank == 0:
            await comm.send(SyntheticBlob(200_000), dest=1, tag=2)
            return None
        blob = await comm.recv(source=0, tag=2)
        return blob.nbytes

    r = run_app(app, n_procs=2, rpi=rpi, seed=1, limit_ns=LIMIT)
    assert r.results[1] == 200_000
    # the engine must have used the rendezvous protocol
    # (checked via stats on rank 0)


@BOTH_RPIS
def test_probe_and_iprobe(rpi):
    async def app(comm):
        if comm.rank == 0:
            assert comm.iprobe() is None
            status = await comm.probe(source=1, tag=ANY_TAG)
            assert (status.source, status.tag) == (1, 13)
            again = comm.iprobe(source=1, tag=13)
            assert again is not None  # probe does not consume
            value = await comm.recv(source=status.source, tag=status.tag)
            assert comm.iprobe() is None  # now consumed
            return value
        await comm.send("probed", dest=0, tag=13)
        return None

    r = run_app(app, n_procs=2, rpi=rpi, seed=1, limit_ns=LIMIT)
    assert r.results[0] == "probed"


@BOTH_RPIS
def test_probe_rejects_a_source_outside_the_communicator(rpi):
    async def app(comm):
        if comm.rank == 2:
            await comm.send("from two", dest=0, tag=7)
        elif comm.rank == 0:
            await comm.probe(source=2, tag=7)  # buffered now
            for source in (-2, comm.size):  # -2 must not wrap to rank 2
                with pytest.raises(ValueError, match="outside communicator"):
                    comm.iprobe(source=source)
                with pytest.raises(ValueError, match="outside communicator"):
                    await comm.probe(source=source)
            return await comm.recv(source=2, tag=7)
        return None

    r = run_app(app, n_procs=4, rpi=rpi, seed=1, limit_ns=LIMIT)
    assert r.results[0] == "from two"


@BOTH_RPIS
def test_comm_dup_isolates_contexts(rpi):
    async def app(comm):
        comm2 = comm.dup()
        if comm.rank == 0:
            # same (dest, tag) on both communicators: contexts keep them apart
            await comm2.send("on-dup", dest=1, tag=5)
            await comm.send("on-world", dest=1, tag=5)
            return None
        world_msg = await comm.recv(source=0, tag=5)
        dup_msg = await comm2.recv(source=0, tag=5)
        return (world_msg, dup_msg)

    r = run_app(app, n_procs=2, rpi=rpi, seed=1, limit_ns=LIMIT)
    assert r.results[1] == ("on-world", "on-dup")


def test_argument_validation():
    async def app(comm):
        if comm.rank == 0:
            with pytest.raises(ValueError):
                comm.isend(b"", dest=9, tag=0)  # bad rank
            with pytest.raises(ValueError):
                comm.isend(b"", dest=0, tag=0)  # self-send
            with pytest.raises(ValueError):
                comm.isend(b"", dest=1, tag=-3)  # negative tag
            with pytest.raises(ValueError):
                await comm.waitany([])
        await comm.barrier()
        return True

    r = run_app(app, n_procs=2, rpi="sctp", seed=1, limit_ns=LIMIT)
    assert all(r.results)


@BOTH_RPIS
def test_sendrecv_exchanges_without_deadlock(rpi):
    async def app(comm):
        peer = 1 - comm.rank
        st = Status()
        got = await comm.sendrecv(
            f"from{comm.rank}", dest=peer, sendtag=3, source=peer, recvtag=3,
            status=st,
        )
        return (got, st.source)

    r = run_app(app, n_procs=2, rpi=rpi, seed=1, limit_ns=LIMIT)
    assert r.results[0] == ("from1", 1)
    assert r.results[1] == ("from0", 0)


@BOTH_RPIS
def test_comm_split_even_odd(rpi):
    async def app(comm):
        sub = await comm.split(color=comm.rank % 2, key=comm.rank)
        total = await sub.allreduce(comm.rank)
        members = await sub.allgather(comm.rank)
        return (sub.rank, sub.size, total, members)

    r = run_app(app, n_procs=6, rpi=rpi, seed=1, limit_ns=LIMIT)
    evens, odds = [0, 2, 4], [1, 3, 5]
    for world_rank, (sub_rank, sub_size, total, members) in enumerate(r.results):
        group = evens if world_rank % 2 == 0 else odds
        assert sub_size == 3
        assert sub_rank == group.index(world_rank)
        assert total == sum(group)
        assert members == group


def test_comm_split_undefined_color():
    async def app(comm):
        sub = await comm.split(color=-1 if comm.rank == 0 else 0)
        if comm.rank == 0:
            assert sub is None
            return "excluded"
        return await sub.allgather(comm.rank)

    r = run_app(app, n_procs=3, rpi="sctp", seed=1, limit_ns=LIMIT)
    assert r.results[0] == "excluded"
    assert r.results[1] == [1, 2]


def test_sub_communicator_point_to_point():
    async def app(comm):
        sub = await comm.split(color=0 if comm.rank >= 1 else 1)
        if comm.rank == 0:
            return None
        # inside sub: local ranks 0..1 map to world ranks 1..2
        if sub.rank == 0:
            await sub.send("sub-hello", dest=1, tag=2)
            return None
        st = Status()
        msg = await sub.recv(source=0, tag=2, status=st)
        return (msg, st.source)

    r = run_app(app, n_procs=3, rpi="sctp", seed=1, limit_ns=LIMIT)
    assert r.results[2] == ("sub-hello", 0)  # status reports the LOCAL rank
