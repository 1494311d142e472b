"""Hop budget (DESIGN §9.3 "One call per element"): counts only, no wall
clock.

A packet pays one call per network element it crosses, plus the SCTP
work it actually needs.  On a 2-rank ping-pong of 16 KiB messages (100
round trips, no warm-up, seed 1, sanitizers off):

* ``repro.network`` calls per packet are exactly the chain: the packet is
  built (``Packet``), sent by its host (``Host.send``), passes its
  address's egress pipe (``DummynetPipe``), the uplink (``Link.send``),
  the switch (``Switch._forward``), the downlink (``Link.send``) and is
  delivered (``Host.deliver``).  Before, every packet also crossed
  ``NIC.send`` and ``NIC.receive`` (3,818 each on TCP, 3,616 on SCTP);
* ``repro.transport.sctp`` makes 17.1 calls per DATA packet (before:
  62,461 calls for 2,405 DATA packets, 26.0 each), because the send and
  SACK paths read the scheduler's head and pending count, the path's
  cwnd and the T3 timer's deadline where they are instead of through
  helper calls, pad inline, size a SACK without a padding call and test
  the gap set without ``__len__``;
* and none of this moves virtual time: the kernel fires exactly the
  events it fired before.

Only named functions are counted: comprehension frames (which CPython
3.12 inlines, PEP 709), generator expressions and lambdas are skipped,
so the pins hold on CPython 3.10 to 3.12.
"""

import cProfile
import types
from collections import Counter
from pathlib import Path

import pytest

from repro.analyze.sanitize import sanitized
from repro.core.world import World, WorldConfig
from repro.transport.sctp.chunks import DataChunk
from repro.workloads.mpbench import make_pingpong

MESSAGE = 16 * 1024
ROUND_TRIPS = 100
EVENTS = {"tcp": 15_271, "sctp": 14_464}  # the kernel events before
# calls per packet along the chain, keyed file:function; the first two
# are paid by every packet sent, the rest by every packet delivered (a
# run ends with the last packets still on the wire)
CHAIN = {
    "packet.py:__init__": 1,
    "host.py:send": 1,
    "dummynet.py:__call__": 1,
    "link.py:send": 2,
    "switch.py:_forward": 1,
    "host.py:deliver": 1,
}
SENDER_SIDE = ("packet.py:__init__", "host.py:send")
# every repro.network call while the world runs: the chain, a busy
# transmitter settling its queue (``Link._settle``), the middleware's
# per-call CPU (``HostCPU.charge``) and the ranks' address look-ups
NETWORK_CALLS = {
    "tcp": {
        "link.py:send": 7_636,
        "host.py:charge": 5_624,
        "host.py:send": 3_820,
        "packet.py:__init__": 3_820,
        "dummynet.py:__call__": 3_818,
        "host.py:deliver": 3_818,
        "switch.py:_forward": 3_818,
        "link.py:_settle": 2_402,
        "host.py:primary_address": 1,
        "topology.py:host_address": 1,
        "topology.py:address": 1,
    },
    "sctp": {
        "link.py:send": 7_232,
        "host.py:send": 3_618,
        "packet.py:__init__": 3_618,
        "dummynet.py:__call__": 3_616,
        "host.py:deliver": 3_616,
        "switch.py:_forward": 3_616,
        "link.py:_settle": 2_392,
        "host.py:charge": 410,
        "host.py:addresses": 4,
        "topology.py:host_address": 1,
        "topology.py:address": 1,
    },
}
SCTP_CALLS = 41_180
SCTP_DATA_PACKETS = 2_405


def _pingpong_counts(rpi):
    sent_data = [0]

    def count_data(direction, host, packet):
        if direction == "tx" and any(isinstance(c, DataChunk) for c in packet.payload.chunks):
            sent_data[0] += 1

    with sanitized(False):
        world = World(WorldConfig(n_procs=2, rpi=rpi, seed=1))
        if rpi == "sctp":
            for host in world.cluster.hosts:
                host.taps.append(count_data)
        profile = cProfile.Profile()
        profile.enable()
        try:
            world.run(make_pingpong(MESSAGE, ROUND_TRIPS, warmup=0))
        finally:
            profile.disable()
    calls = {"network": Counter(), "sctp": 0}
    for entry in profile.getstats():
        code = entry.code
        if not isinstance(code, types.CodeType) or code.co_name.startswith("<"):
            continue
        path = Path(code.co_filename)
        if path.parent.name == "network" and path.parent.parent.name == "repro":
            calls["network"][f"{path.name}:{code.co_name}"] += entry.callcount
        elif path.parent.name == "sctp" and path.parent.parent.name == "transport":
            calls["sctp"] += entry.callcount
    hosts = world.cluster.hosts
    return {
        "calls": calls,
        "events": world.kernel.events_processed,
        "sent": sum(h.tx_packets for h in hosts),
        "delivered": sum(h.rx_packets for h in hosts),
        "data_packets": sent_data[0],
    }


@pytest.fixture(scope="module")
def counts():
    return {rpi: _pingpong_counts(rpi) for rpi in ("tcp", "sctp")}


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_a_packet_pays_one_call_per_element(counts, rpi):
    tally = counts[rpi]
    network = tally["calls"]["network"]
    assert tally["delivered"] > 3_000  # the budget is not vacuous
    expected = {
        name: per * tally["sent" if name in SENDER_SIDE else "delivered"]
        for name, per in CHAIN.items()
    }
    assert {name: network[name] for name in CHAIN} == expected


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_network_calls_are_exactly_the_pinned_ones(counts, rpi):
    assert dict(counts[rpi]["calls"]["network"]) == NETWORK_CALLS[rpi]


def test_sctp_calls_per_data_packet(counts):
    tally = counts["sctp"]
    assert tally["data_packets"] == SCTP_DATA_PACKETS
    assert tally["calls"]["sctp"] == SCTP_CALLS  # 17.1 per DATA packet


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_kernel_events_unchanged(counts, rpi):
    assert counts[rpi]["events"] == EVENTS[rpi]
