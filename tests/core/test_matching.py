"""Message matching: posted receives, unexpected table, MPI ordering."""

from hypothesis import given, settings, strategies as st

from repro.core import run_app
from repro.core.constants import ANY_SOURCE, ANY_TAG, FLAG_SHORT
from repro.core.envelope import Envelope
from repro.core.matching import UnexpectedMessageTable, matches
from repro.core.request import RecvRequest
from repro.util.blobs import ChunkList, RealBlob


def env(tag=0, context=0, rank=0, length=0, seqnum=0):
    return Envelope(length, tag, context, rank, FLAG_SHORT, seqnum)


class _StubRPI:
    """The part of an RPI a request touches: rank, ids, completion count."""

    rank = 0
    completions = 0
    request_ids = 0


def recv(source=ANY_SOURCE, tag=ANY_TAG, context=0):
    return RecvRequest(_StubRPI(), source=source, tag=tag, context=context)


def body(data=b"x"):
    return ChunkList([RealBlob(data)])


# ---------------------------------------------------------------------------
# matching rules
# ---------------------------------------------------------------------------
def takes(request, tag, context, rank):
    return matches(request.source, request.tag, request.context, env(tag, context, rank))


def test_exact_match():
    r = recv(source=2, tag=5, context=1)
    assert takes(r, 5, 1, 2)
    assert not takes(r, 6, 1, 2)  # wrong tag
    assert not takes(r, 5, 2, 2)  # wrong context
    assert not takes(r, 5, 1, 3)  # wrong source


def test_wildcards():
    assert takes(recv(source=ANY_SOURCE, tag=5), 5, 0, 7)
    assert takes(recv(source=2, tag=ANY_TAG), 99, 0, 2)
    assert takes(recv(), 1, 0, 1)
    # context is never a wildcard
    assert not takes(recv(context=0), 1, 1, 1)


# ---------------------------------------------------------------------------
# posted receives: a list in posting order, scanned as each unit arrives
# ---------------------------------------------------------------------------
def test_posted_queue_matches_in_post_order():
    async def app(comm):
        if comm.rank == 0:
            for data in ("first", "second"):
                await comm.send(data, dest=1, tag=3)
            return None
        # both posted before anything arrives: the earliest posted wins
        first, second = comm.irecv(tag=ANY_TAG), comm.irecv(tag=ANY_TAG)
        await comm.waitall([second, first])
        return first.data, second.data, len(comm.rpi.posted)

    assert run_app(app, n_procs=2, seed=1).results[1] == ("first", "second", 0)


def test_posted_queue_skips_non_matching():
    async def app(comm):
        if comm.rank == 1:
            await comm.send("from one", dest=0, tag=1)
            return None
        if comm.rank == 2:
            await comm.recv(source=0, tag=9)  # rank 1's message is in by now
            await comm.send("from two", dest=0, tag=1)
            return None
        specific, wildcard = comm.irecv(source=2, tag=1), comm.irecv()
        # rank 1's message: the specific recv does not match, the wildcard does
        await comm.wait(wildcard)
        remaining = list(comm.rpi.posted)
        await comm.send(None, dest=2, tag=9)
        await comm.wait(specific)
        return wildcard.data, remaining == [specific], specific.data

    assert run_app(app, n_procs=3, seed=1).results[0] == ("from one", True, "from two")


# ---------------------------------------------------------------------------
# unexpected-message table
# ---------------------------------------------------------------------------
def test_unexpected_fifo_per_trc():
    t = UnexpectedMessageTable()
    t.add(env(tag=1, rank=0, seqnum=1), body(b"first"))
    t.add(env(tag=1, rank=0, seqnum=2), body(b"second"))
    m1 = t.match_and_remove(recv(source=0, tag=1))
    m2 = t.match_and_remove(recv(source=0, tag=1))
    assert m1.body.to_bytes() == b"first"
    assert m2.body.to_bytes() == b"second"


def test_unexpected_wildcard_takes_earliest_arrival():
    t = UnexpectedMessageTable()
    t.add(env(tag=7, rank=3), body(b"later-tag-earlier?"))
    t.add(env(tag=2, rank=1), body(b"second-arrival"))
    # wildcard receive: the first-arrived message wins, regardless of bucket
    m = t.match_and_remove(recv())
    assert m.envelope.tag == 7 and m.envelope.rank == 3


def test_unexpected_no_match_leaves_table():
    t = UnexpectedMessageTable()
    t.add(env(tag=1, rank=0), body())
    assert t.match_and_remove(recv(source=5)) is None
    assert len(t) == 1


def test_buffered_bytes_accounting():
    t = UnexpectedMessageTable()
    t.add(env(tag=1), body(b"12345"))
    t.add(env(tag=2), None)  # rendezvous envelope: no body buffered
    assert t.buffered_bytes == 5
    t.match_and_remove(recv(tag=1))
    assert t.buffered_bytes == 0
    assert t.max_buffered_bytes == 5


def test_peek_match_for_probe():
    t = UnexpectedMessageTable()
    assert t.peek_match(ANY_SOURCE, ANY_TAG, 0) is None
    t.add(env(tag=4, rank=2, length=10), body(b"0123456789"))
    peeked = t.peek_match(ANY_SOURCE, ANY_TAG, 0)
    assert peeked.tag == 4 and peeked.rank == 2 and peeked.length == 10
    assert len(t) == 1  # peek does not consume


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_same_trc_messages_never_overtake(data):
    """Property (MPI non-overtaking): for messages sharing a TRC, any mix
    of posted receives and unexpected buffering yields them in send order."""
    n = data.draw(st.integers(1, 8))
    tag = data.draw(st.integers(0, 2))
    src = data.draw(st.integers(0, 2))
    t = UnexpectedMessageTable()
    for seq in range(n):
        t.add(env(tag=tag, rank=src, seqnum=seq), body(bytes([seq])))
    got = []
    for _ in range(n):
        use_wildcard = data.draw(st.booleans())
        r = recv() if use_wildcard else recv(source=src, tag=tag)
        m = t.match_and_remove(r)
        got.append(m.envelope.seqnum)
    assert got == sorted(got)
