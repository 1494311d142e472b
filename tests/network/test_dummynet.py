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


class _ChainOnly(DummynetPipe):
    """The same pipe without the base-only path: every packet of a lossy
    pipe runs the generic impairment chain."""

    def _rebuild_chain(self):
        super()._rebuild_chain()
        self._base_only = False


def _lossy_run(pipe_class):
    """600 packets through a 30 % pipe, with a corruption impairment
    armed for packets 200-399 and disarmed again."""
    from repro.faults import Corrupt

    k = Kernel(seed=5)
    got = []
    pipe = pipe_class(k, "p", loss_rate=0.3, sink=got.append)
    corrupt = Corrupt(rate=0.5)
    base_only = []
    for i in range(600):
        if i == 200:
            pipe.arm(corrupt)
        elif i == 400:
            pipe.disarm(corrupt)
        base_only.append(pipe._base_only)
        pipe(pkt(i))
    base = pipe._base
    outputs = {
        "delivered": [(p.payload, p.corrupted) for p in got],
        "pipe": (pipe.passed_packets, pipe.dropped_packets,
                 pipe.duplicated_packets, pipe.corrupted_packets),
        "base": (base.packets_seen, base.packets_dropped),
        "corrupt": (corrupt.packets_seen, corrupt.packets_affected),
        # the next draw of each stream: equal only after as many draws
        "next_draws": (k.rng("dummynet:p").random(), corrupt.rng.random()),
    }
    return outputs, base_only


def test_base_only_pipe_draws_and_counts_like_the_chain():
    """While nothing is armed a lossy pipe draws inline; it drops the same
    packets with the same draws and counters as the generic chain,
    before, during and after an armed window."""
    inline, inline_paths = _lossy_run(DummynetPipe)
    chained, chained_paths = _lossy_run(_ChainOnly)
    assert inline == chained
    assert inline_paths == [True] * 200 + [False] * 200 + [True] * 200
    assert not any(chained_paths)
    passed, dropped, duplicated, corrupted = inline["pipe"]
    assert passed + dropped == 600 and duplicated == 0
    assert inline["base"] == (600, dropped)
    assert 0 < corrupted == inline["corrupt"][1]


def test_clean_pipe_has_no_base_only_path():
    pipe = DummynetPipe(Kernel(seed=1), "p", loss_rate=0.0)
    assert pipe._base is None and not pipe._base_only
