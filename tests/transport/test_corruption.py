"""On-wire corruption is rejected by both stacks' integrity checks.

Paper §3.5.2: SCTP validates CRC32c and the verification tag; TCP its
16-bit checksum.  The simulation models the check's *outcome*: packets
a :class:`repro.faults.Corrupt` impairment marked arrive with
``corrupted=True`` and the endpoint must drop and count them before
demux — reliability then recovers the data via retransmission.
"""

import pytest

from repro.core.world import World, WorldConfig
from repro.faults import corruption
from repro.network import Packet
from repro.simkernel import SECOND
from repro.workloads.mpbench import make_pingpong

LIMIT_NS = 120 * SECOND


@pytest.mark.parametrize("rpi", ["sctp", "tcp"])
def test_corrupted_packets_dropped_and_recovered(rpi):
    config = WorldConfig(
        n_procs=2, rpi=rpi, seed=3, scenario=corruption(rate=0.05)
    )
    world = World(config)
    result = world.run(make_pingpong(30 * 1024, 10), limit_ns=LIMIT_NS)
    assert result.results[0] is not None, "reliability must mask corruption"
    if rpi == "sctp":
        drops = sum(ep.crc32c_drops for ep in world.endpoints)
    else:
        drops = sum(ep.checksum_drops for ep in world.endpoints)
    assert drops > 0, "the integrity check must have fired"


@pytest.mark.parametrize("rpi", ["sctp", "tcp"])
def test_corrupted_packet_never_reaches_demux(rpi):
    world = World(WorldConfig(n_procs=2, rpi=rpi))
    ep = world.endpoints[0]
    # payload is garbage on purpose: the drop must happen before parsing
    bad = Packet(
        src="10.0.0.1", dst="10.0.0.2", proto=rpi, payload=object(), wire_size=60
    )
    bad.corrupted = True
    ep.receive(bad)
    if rpi == "sctp":
        assert ep.crc32c_drops == 1
    else:
        assert ep.checksum_drops == 1
