"""Dummynet pipe: seeded Bernoulli loss."""

import pytest

from repro.network import DummynetPipe, Packet
from repro.simkernel import Kernel


def pkt(i=0):
    return Packet(src="a", dst="b", proto="t", payload=i, wire_size=100)


def test_zero_loss_passes_everything():
    k = Kernel(seed=1)
    got = []
    pipe = DummynetPipe(k, "p", loss_rate=0.0, sink=got.append)
    for i in range(100):
        pipe(pkt(i))
    assert len(got) == 100 and pipe.dropped_packets == 0


def test_loss_rate_statistics():
    k = Kernel(seed=2)
    got = []
    pipe = DummynetPipe(k, "p", loss_rate=0.1, sink=got.append)
    n = 5000
    for i in range(n):
        pipe(pkt(i))
    drop_fraction = pipe.dropped_packets / n
    assert 0.07 < drop_fraction < 0.13  # ~3 sigma around 10%


def test_same_seed_same_drops():
    def run(seed):
        k = Kernel(seed=seed)
        got = []
        pipe = DummynetPipe(k, "p", loss_rate=0.2, sink=got.append)
        for i in range(200):
            pipe(pkt(i))
        return [p.payload for p in got]

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_invalid_config_rejected():
    k = Kernel()
    with pytest.raises(ValueError):
        DummynetPipe(k, "p", loss_rate=1.1)
    with pytest.raises(ValueError):
        DummynetPipe(k, "p", loss_rate=-0.1)


def test_total_loss_allowed():
    """loss_rate=1.0 is a legal full blackhole, not a config error."""
    k = Kernel(seed=3)
    got = []
    pipe = DummynetPipe(k, "p", loss_rate=1.0, sink=got.append)
    for i in range(50):
        pipe(pkt(i))
    assert got == [] and pipe.dropped_packets == 50


def test_unconnected_pipe_raises():
    k = Kernel()
    pipe = DummynetPipe(k, "p")
    with pytest.raises(RuntimeError):
        pipe(pkt())
