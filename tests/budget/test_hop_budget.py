"""Hop budget (DESIGN §9.3 "One call per element"): counts only, no wall
clock.

A packet pays one call per network element it crosses, plus the SCTP
work it actually needs.  On the budget table's ``wake_*`` world (2-rank
16 KiB ping-pong, 100 round trips):

* ``repro.network`` calls per packet are exactly the chain: the packet is
  built (``Packet``), sent by its host (``Host.send``), passes its
  address's egress pipe (``DummynetPipe``), the uplink (``Link.send``),
  the switch (``Switch._forward``), the downlink (``Link.send``) and is
  delivered (``Host.deliver``).  Before, every packet also crossed
  ``NIC.send`` and ``NIC.receive`` (3,818 each on TCP, 3,616 on SCTP);
* ``repro.transport.sctp`` makes 15.3 calls per DATA packet: 36,745 for
  2,405 (62,461 before the per-packet path lost its helper calls, 41,180
  before the SCTP RPI stopped calling ``recvmsg`` with nothing to read,
  40,359 before the SACK policy ran inside ``on_packet`` (2,405
  ``_sack_policy`` calls) and a SACK was built without ``_a_rwnd`` and
  ``wire_size`` (1,209 SACKs; the named ``SackChunk.__init__`` that now
  sizes each one counts here));
* and the kernel fires exactly the events the table pins.

Named functions only (``budget.measure`` keys them the same on CPython
3.10 to 3.12, and its ``named`` layer sums skip comprehension frames,
which 3.12 inlines), so these pins hold on every interpreter.
"""

import pytest

from repro.analyze.sanitize import sanitized
from repro.core.world import World, WorldConfig
from repro.transport.sctp.chunks import DataChunk
from repro.workloads.mpbench import make_pingpong

from . import budget

BOTH = pytest.mark.parametrize("rpi", ["tcp", "sctp"])
# calls per packet along the chain; the first two are paid by every
# packet sent, the rest by every packet delivered (a run ends with the
# last packets still on the wire)
CHAIN = {
    "network/packet.py:Packet.__init__": 1,
    "network/host.py:Host.send": 1,
    "network/dummynet.py:DummynetPipe.__call__": 1,
    "network/link.py:Link.send": 2,
    "network/switch.py:Switch._forward": 1,
    "network/host.py:Host.deliver": 1,
}
SENDER_SIDE = ("network/packet.py:Packet.__init__", "network/host.py:Host.send")
# every repro.network call while the world runs: the chain, the
# middleware's per-call CPU (``HostCPU.charge``) and the ranks' address
# look-ups.  A busy transmitter settles its queue inside ``Link.send``
# (until it called ``Link._settle``: 2,402 times on TCP, 2,392 on SCTP)
NETWORK_CALLS = {
    "tcp": {
        "network/link.py:Link.send": 7_636,
        "network/host.py:HostCPU.charge": 5_624,
        "network/host.py:Host.send": 3_820,
        "network/packet.py:Packet.__init__": 3_820,
        "network/dummynet.py:DummynetPipe.__call__": 3_818,
        "network/host.py:Host.deliver": 3_818,
        "network/switch.py:Switch._forward": 3_818,
        "network/host.py:Host.primary_address": 1,
        "network/topology.py:Cluster.host_address": 1,
        "network/topology.py:ClusterConfig.address": 1,
    },
    "sctp": {
        "network/link.py:Link.send": 7_232,
        "network/host.py:Host.send": 3_618,
        "network/packet.py:Packet.__init__": 3_618,
        "network/dummynet.py:DummynetPipe.__call__": 3_616,
        "network/host.py:Host.deliver": 3_616,
        "network/switch.py:Switch._forward": 3_616,
        "network/host.py:HostCPU.charge": 410,
        "network/host.py:Host.addresses": 4,
        "network/topology.py:Cluster.host_address": 1,
        "network/topology.py:ClusterConfig.address": 1,
    },
}
SCTP_CALLS = 36_745
SCTP_DATA_PACKETS = 2_405


def _network_calls(rpi):
    functions = budget.measure(f"wake_{rpi}")["extra"]["functions"]
    return {k: n for k, n in functions.items() if k.startswith("network/") and "<" not in k}


def _sctp_data_packets():
    sent = [0]

    def count_data(direction, host, packet):
        if direction == "tx" and any(isinstance(c, DataChunk) for c in packet.payload.chunks):
            sent[0] += 1

    with sanitized(False):
        world = World(WorldConfig(n_procs=2, rpi="sctp", seed=1))
        for host in world.cluster.hosts:
            host.taps.append(count_data)
        world.run(make_pingpong(16 * 1024, 100, warmup=0))
    return sent[0]


@BOTH
def test_a_packet_pays_one_call_per_element(rpi):
    run = budget.measure(f"wake_{rpi}")
    sent, delivered = run["row"]["packets"], run["extra"]["delivered"]
    assert delivered > 3_000  # the budget is not vacuous
    network = _network_calls(rpi)
    expected = {
        name: per * (sent if name in SENDER_SIDE else delivered) for name, per in CHAIN.items()
    }
    assert {name: network.get(name, 0) for name in CHAIN} == expected


@BOTH
def test_network_calls_are_exactly_the_pinned_ones(rpi):
    assert _network_calls(rpi) == NETWORK_CALLS[rpi]


def test_sctp_calls_per_data_packet():
    assert _sctp_data_packets() == SCTP_DATA_PACKETS
    assert budget.measure("wake_sctp")["extra"]["named"]["transport.sctp"] == SCTP_CALLS


@BOTH
def test_kernel_events_unchanged(rpi):
    name = f"wake_{rpi}"
    assert budget.measure(name)["row"]["events"] == budget.pinned(name)["events"]
