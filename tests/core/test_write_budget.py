"""Write-readiness budget (DESIGN §9.4, "Write readiness"): counts only,
no wall clock.

A send that the transport would refuse costs no virtual time, so the
host should not make it.  On the 4-rank farm of the progression-step
budget (``tests/core/test_progress_budget.py``: 60 tasks, fanout 10, ten
streams, 72 KiB send buffers) with 1 % loss, seed 1:

* no ``TCPSocket.send`` call accepts 0 bytes: a short write lists the
  socket as stalled and the pump passes over it until the socket
  reports freed room (before: 1,864 of 2,987 calls accepted nothing;
  now 1,123 calls),
* the SCTP RPI still makes no ``sendmsg`` call the association refuses,
* and its outbound walks that send nothing are at most a fifth of what
  they were: a stalled rank's queues are passed over without reading
  its send room, and the walk does not run at all when nothing was
  queued, bound or un-stalled since the last one (before: 1,659 of
  1,838 walks sent nothing; now 97 of 276).

A walk is counted as one iteration over the RPI's ``_outq`` map.
"""

import pytest

from repro.core.rpi.sctp_rpi import SCTPRPI
from repro.core.world import World, WorldConfig
from repro.transport.sctp import OneToManySocket, SCTPConfig
from repro.transport.tcp import TCPConfig, TCPSocket
from repro.workloads.farm import FarmParams, make_farm

SNDBUF = 72 * 1024
PARENT_EMPTY_WALKS = 1_659  # SCTP walks that sent nothing, before


class _CountedWalks(dict):
    """An ``_outq`` that counts the walks over it."""

    tally = None

    def items(self):
        self.tally["walks"] += 1
        return super().items()


def _farm_counts(rpi):
    tally = {"walks": 0, "empty_walks": 0, "sendmsg": 0, "refused": 0, "sends": 0, "zero_sends": 0}
    sctp_init = SCTPRPI.__init__
    pump = SCTPRPI._pump
    sendmsg = OneToManySocket.sendmsg
    send = TCPSocket.send

    def counting_init(self, *args, **kwargs):
        sctp_init(self, *args, **kwargs)
        self._outq = _CountedWalks()
        self._outq.tally = tally

    def counting_pump(self):
        walks, sent = tally["walks"], tally["sendmsg"]
        progressed = pump(self)
        tally["empty_walks"] += tally["walks"] > walks and tally["sendmsg"] == sent
        return progressed

    def counting_sendmsg(self, *args, **kwargs):
        accepted = sendmsg(self, *args, **kwargs)
        tally["sendmsg"] += 1
        tally["refused"] += not accepted
        return accepted

    def counting_send(self, blob):
        accepted = send(self, blob)
        tally["sends"] += 1
        tally["zero_sends"] += accepted == 0
        return accepted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SCTPRPI, "__init__", counting_init)
        patch.setattr(SCTPRPI, "_pump", counting_pump)
        patch.setattr(OneToManySocket, "sendmsg", counting_sendmsg)
        patch.setattr(TCPSocket, "send", counting_send)
        world = World(WorldConfig(
            n_procs=4, rpi=rpi, seed=1, loss_rate=0.01, num_streams=10,
            sctp_config=SCTPConfig(sndbuf=SNDBUF),
            tcp_config=TCPConfig(sndbuf=SNDBUF),
        ))
        result = world.run(make_farm(FarmParams(num_tasks=60, fanout=10)))
    assert result.results[0].tasks_done == 60
    return tally


@pytest.fixture(scope="module")
def counts():
    return {rpi: _farm_counts(rpi) for rpi in ("tcp", "sctp")}


def test_no_tcp_send_accepts_zero_bytes(counts):
    tally = counts["tcp"]
    assert tally["sends"] > 0
    assert tally["zero_sends"] == 0


def test_no_refused_sendmsg(counts):
    tally = counts["sctp"]
    assert tally["sendmsg"] > 0
    assert tally["refused"] == 0


def test_sctp_walks_that_send_nothing(counts):
    tally = counts["sctp"]
    assert 0 < tally["empty_walks"] <= PARENT_EMPTY_WALKS // 5
