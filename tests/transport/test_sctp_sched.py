"""Stream-scheduler policies: ordering, stickiness, fairness ratios."""

import pytest

from repro.transport.sctp.sched import (
    SCHEDULER_NAMES,
    FCFSScheduler,
    QueuedMessage,
    make_scheduler,
)
from repro.util.blobs import SyntheticBlob

FRAG = 1452  # one PMTU payload's worth, like the association cuts


def qm(sid, nbytes, unordered=False):
    return QueuedMessage(sid, SyntheticBlob(nbytes), unordered, 0)


def drain(sched, frag=FRAG, limit=100_000):
    """Consume everything, recording (sid, take) per fragment."""
    served = []
    for _ in range(limit):
        head = sched.peek()
        if head is None:
            break
        take = min(frag, head.nbytes - head.offset)
        sched.consume(take)
        served.append((head.sid, take))
    assert sched.peek() is None
    return served


def test_make_scheduler_names_and_errors():
    for name in SCHEDULER_NAMES:
        assert make_scheduler(name, 4).name == name
    with pytest.raises(ValueError, match="fcfs"):
        make_scheduler("lifo", 4)
    with pytest.raises(ValueError):
        make_scheduler("wfq", 2, weights=(0, 1))


def test_fcfs_serves_in_push_order():
    sched = FCFSScheduler(4)
    sched.set_interleaving(True)  # FCFS never preempts regardless
    sched.push(qm(2, 3 * FRAG))
    sched.push(qm(0, FRAG))
    sched.push(qm(1, FRAG))
    assert [s for s, _ in drain(sched)] == [2, 2, 2, 0, 1]
    assert sched.interleave_switches == 0


def test_rr_is_message_sticky_without_interleaving():
    sched = make_scheduler("rr", 3)
    sched.push(qm(0, 3 * FRAG))
    sched.push(qm(1, FRAG))
    # the bulk on stream 0 keeps the wire until it completes
    assert [s for s, _ in drain(sched)] == [0, 0, 0, 1]
    assert sched.interleave_switches == 0


def test_rr_alternates_fragments_with_interleaving():
    sched = make_scheduler("rr", 3)
    sched.set_interleaving(True)
    sched.push(qm(0, 3 * FRAG))
    sched.push(qm(1, 3 * FRAG))
    assert [s for s, _ in drain(sched)] == [0, 1, 0, 1, 0, 1]
    # fragments 2-5 each leave the other message unfinished; the final
    # fragment follows a *completed* message, so it is not a switch
    assert sched.interleave_switches == 4
    assert sched.decisions == 6


def test_rr_mid_message_arrival_gets_service():
    sched = make_scheduler("rr", 2)
    sched.set_interleaving(True)
    sched.push(qm(0, 4 * FRAG))
    # consume one fragment, then a second stream shows up
    sched.consume(FRAG) if sched.peek() else None
    sched.push(qm(1, FRAG))
    assert [s for s, _ in drain(sched)] == [1, 0, 0, 0]


def test_wfq_converges_to_weight_ratios():
    """Shares are measured over a window in which every stream stays
    backlogged (drain-to-empty trivially serves everything equally)."""
    sched = make_scheduler("wfq", 3, weights=(1, 2, 4))
    sched.set_interleaving(True)
    for sid in range(3):
        for _ in range(40):
            sched.push(qm(sid, 10 * FRAG))
    served = [0, 0, 0]
    for _ in range(140):  # well short of the ~1200-fragment backlog
        head = sched.peek()
        take = min(FRAG, head.nbytes - head.offset)
        sched.consume(take)
        served[head.sid] += take
    assert all(sched._queues[sid] for sid in range(3))  # still backlogged
    total = sum(served)
    for sid, weight in enumerate((1, 2, 4)):
        share = served[sid] / total
        expect = weight / 7
        assert abs(share - expect) / expect < 0.25, (sid, share, expect)


def test_wfq_single_stream_never_stalls():
    """A sticky bulk message may overdraw its deficit arbitrarily; the
    refill loop must still hand out the next message."""
    sched = make_scheduler("wfq", 2, weights=(1, 1))
    sched.push(qm(0, 50 * FRAG))  # overdraws ~49 quanta while sticky
    sched.push(qm(0, FRAG))
    served = drain(sched)
    assert len(served) == 51


def test_wfq_zero_byte_message_completes():
    sched = make_scheduler("wfq", 2)
    sched.push(qm(1, 0))
    head = sched.peek()
    assert head.nbytes == 0
    assert sched.consume(0) is True
    assert sched.peek() is None


def test_prio_preempts_by_stream_priority():
    # lower number = more urgent; stream 2 outranks 0 and 1
    sched = make_scheduler("prio", 3, priorities=(5, 5, 1))
    sched.set_interleaving(True)
    sched.push(qm(0, 2 * FRAG))
    sched.push(qm(1, FRAG))
    sched.push(qm(2, 2 * FRAG))
    order = [s for s, _ in drain(sched)]
    assert order == [2, 2, 0, 0, 1]  # prio first, then lowest sid


def test_prio_equal_priorities_tie_break_on_sid():
    sched = make_scheduler("prio", 3)
    sched.push(qm(2, FRAG))
    sched.push(qm(1, FRAG))
    assert [s for s, _ in drain(sched)] == [1, 2]


def test_decisions_and_pending_bookkeeping():
    sched = make_scheduler("rr", 2)
    assert sched.n_pending == 0
    sched.push(qm(0, 2 * FRAG))
    sched.push(qm(1, FRAG))
    assert sched.n_pending == 2
    drain(sched)
    assert sched.n_pending == 0
    assert sched.decisions == 3
