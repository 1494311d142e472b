"""Progression-step cost budget (DESIGN §9.4): counts only, no wall clock.

One progression step must cost what is ready, not what is queued or
posted.  On the budget table's ``farm_*`` world (4 ranks, 60 tasks,
fanout 10, ten streams, 72 KiB send buffers, so the manager's send
queues block constantly):

* the SCTP RPI never makes a ``sendmsg`` call the association refuses —
  a queue head that cannot fit is passed over before anything is built
  (before the readiness rework: 20,583 refused calls, 20,793 packs for
  210 units),
* an envelope is packed exactly once per unit, on either stack,
* ``waitany``/``waitall`` read ``done`` in proportion to completions, not
  to progression steps (before: 57,757 reads on TCP, 32,666 on SCTP),
* and the progression steps per rank are the table's exactly (the
  TCP counts of the commit before the rework; on SCTP fewer by the steps
  whose pump could neither send nor read: manager 770 → 744 → 155).
"""

import pytest

from repro.core.communicator import Communicator
from repro.core.envelope import Envelope
from repro.core.world import World, WorldConfig
from repro.transport.sctp import OneToManySocket, SCTPConfig
from repro.transport.tcp import TCPConfig
from repro.workloads.farm import FarmParams, make_farm

from . import budget

SNDBUF = 72 * 1024  # just above one eager-limit piece: queues block constantly


class _CountedDone:
    """Stands in for a request inside wait*: counts reads of ``done``."""

    def __init__(self, request, tally):
        self.request = request
        self._tally = tally

    @property
    def done(self):
        self._tally["done_reads"] += 1
        return self.request.done


def _farm_counts(rpi, monkeypatch):
    tally = {"refused": 0, "packs": 0, "done_reads": 0, "scan_budget": 0}

    sendmsg = OneToManySocket.sendmsg
    pack = Envelope.pack
    waitany = Communicator.waitany
    waitall = Communicator.waitall

    def counting_sendmsg(self, *args, **kwargs):
        accepted = sendmsg(self, *args, **kwargs)
        tally["refused"] += not accepted
        return accepted

    def counting_pack(self):
        tally["packs"] += 1
        return pack(self)

    async def counting_wait(wait, comm, requests):
        before = comm.rpi.completions
        result = await wait(comm, [_CountedDone(r, tally) for r in requests])
        # one scan for the call, one more per completion it slept through
        tally["scan_budget"] += (1 + comm.rpi.completions - before) * len(requests)
        return result

    async def counting_waitany(comm, requests):
        index, proxy = await counting_wait(waitany, comm, requests)
        return index, proxy.request

    async def counting_waitall(comm, requests):
        return [p.request for p in await counting_wait(waitall, comm, requests)]

    monkeypatch.setattr(OneToManySocket, "sendmsg", counting_sendmsg)
    monkeypatch.setattr(Envelope, "pack", counting_pack)
    monkeypatch.setattr(Communicator, "waitany", counting_waitany)
    monkeypatch.setattr(Communicator, "waitall", counting_waitall)

    world = World(WorldConfig(
        n_procs=4, rpi=rpi, seed=1, num_streams=10,
        sctp_config=SCTPConfig(sndbuf=SNDBUF),
        tcp_config=TCPConfig(sndbuf=SNDBUF),
    ))
    result = world.run(make_farm(FarmParams(num_tasks=60, fanout=10)))
    assert result.results[0].tasks_done == 60
    stats = [proc.rpi.stats for proc in world.processes]
    tally["units_sent"] = sum(s.units_sent for s in stats)
    tally["advance_calls"] = [s.advance_calls for s in stats]
    return tally


@pytest.fixture(scope="module", params=["tcp", "sctp"])
def counts(request):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return request.param, _farm_counts(request.param, monkeypatch)


def test_no_refused_sendmsg(counts):
    _rpi, tally = counts
    assert tally["refused"] == 0  # TCP never calls it; SCTP asks first


def test_one_envelope_pack_per_unit(counts):
    _rpi, tally = counts
    assert tally["packs"] == tally["units_sent"] > 0


def test_done_reads_follow_completions_not_steps(counts):
    _rpi, tally = counts
    # measured 9,053 of 23,971 allowed (TCP) and 8,440 of 24,519 (SCTP);
    # a rescan on every progression step reads 57,757 / 32,666
    assert 0 < tally["done_reads"] <= tally["scan_budget"]


def test_progression_steps_unchanged(counts):
    rpi, tally = counts
    assert tally["advance_calls"] == budget.pinned(f"farm_{rpi}")["advance_calls"]
