"""Link: serialization, propagation, FIFO queueing, tail drop."""

import random

import pytest

from repro.network import Link, Packet
from repro.simkernel import GBIT_PER_S, Kernel


def pkt(size, payload="p"):
    return Packet(src="a", dst="b", proto="test", payload=payload, wire_size=size)


def collector(out):
    def sink(packet):
        out.append(packet)

    return sink


def test_serialization_plus_propagation():
    k = Kernel()
    got = []
    link = Link(k, "l", GBIT_PER_S, prop_delay_ns=5_000, sink=None)
    link.connect(lambda p: got.append(k.now))
    link.send(pkt(1500))  # 12 us serialize + 5 us propagate
    k.run()
    assert got == [17_000]


def test_back_to_back_packets_serialize():
    k = Kernel()
    times = []
    link = Link(k, "l", GBIT_PER_S, prop_delay_ns=0)
    link.connect(lambda p: times.append(k.now))
    link.send(pkt(1500))
    link.send(pkt(1500))
    k.run()
    assert times == [12_000, 24_000]


def test_fifo_order_preserved():
    k = Kernel()
    seen = []
    link = Link(k, "l", GBIT_PER_S, prop_delay_ns=1_000)
    link.connect(lambda p: seen.append(p.payload))
    for i in range(5):
        link.send(pkt(600, payload=i))
    k.run()
    assert seen == [0, 1, 2, 3, 4]


def test_tail_drop_when_queue_full():
    k = Kernel()
    got = []
    link = Link(k, "l", GBIT_PER_S, prop_delay_ns=0, queue_bytes=3000)
    link.connect(collector(got))
    results = [link.send(pkt(1500)) for _ in range(3)]
    assert results == [True, True, False]
    assert link.dropped_packets == 1 and link.dropped_bytes == 1500
    k.run()
    assert len(got) == 2


def test_queue_drains_and_accepts_again():
    k = Kernel()
    got = []
    link = Link(k, "l", GBIT_PER_S, prop_delay_ns=3_000, queue_bytes=1500)
    link.connect(collector(got))
    assert link.send(pkt(1500))
    assert not link.send(pkt(1500))
    # the byte count settles lazily, on read: nothing runs at 12 us
    # (serialisation end), yet a reader at 11.999/12 us sees 1500/0
    k.run(until=11_999)
    assert link.queued_bytes == 1500 and not got
    k.run(until=12_000)
    assert link.queued_bytes == 0 and not got  # still propagating
    assert link.send(pkt(1500))
    k.run()
    assert len(got) == 2
    assert k.events_processed == 2  # one event per delivered packet


def test_stats():
    k = Kernel()
    link = Link(k, "l", GBIT_PER_S, prop_delay_ns=0)
    link.connect(lambda p: None)
    link.send(pkt(100))
    link.send(pkt(200))
    k.run()
    assert link.tx_packets == 2 and link.tx_bytes == 300


def test_send_without_sink_raises():
    k = Kernel()
    link = Link(k, "l", GBIT_PER_S, prop_delay_ns=0)
    with pytest.raises(RuntimeError):
        link.send(pkt(10))


# ---------------------------------------------------------------------------
# differential test against the two-event link this one replaced
# ---------------------------------------------------------------------------
class TwoEventLink:
    """Reference oracle: the pre-fusion link, kept only here.

    One event at the end of serialisation (which settles the byte count
    and starts propagation) and a second one for the delivery.
    """

    def __init__(self, kernel, bandwidth_bps, prop_delay_ns, queue_bytes, sink):
        self.kernel = kernel
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay_ns = prop_delay_ns
        self.queue_bytes = queue_bytes
        self.sink = sink
        self._ready_at = 0
        self.queued_bytes = 0
        self.tx_packets = self.tx_bytes = 0
        self.dropped_packets = self.dropped_bytes = 0

    def send(self, packet):
        size = packet.wire_size
        if self.queued_bytes + size > self.queue_bytes:
            self.dropped_packets += 1
            self.dropped_bytes += size
            return False
        self.queued_bytes += size
        start = max(self._ready_at, self.kernel.now)
        tx_ns = (size * 8_000_000_000 + self.bandwidth_bps - 1) // self.bandwidth_bps
        self._ready_at = start + max(tx_ns, 1)
        self.tx_packets += 1
        self.tx_bytes += size
        self.kernel.post_at(self._ready_at, self._tx_complete, packet)
        return True

    def _tx_complete(self, packet):
        self.queued_bytes -= packet.wire_size
        if self.prop_delay_ns:
            self.kernel.post_after(self.prop_delay_ns, self.sink, packet)
        else:
            self.sink(packet)


def _schedule(rng, n_ops):
    """Seeded arrivals and queue reads on a 1 Gbit/s link.

    Sizes are multiples of 125 B, i.e. whole microseconds on the wire, and
    instants are whole microseconds, so arrivals keep landing exactly on
    serialisation ends, on each other, and on the tail-drop byte boundary.
    """
    ops = []
    t = 0
    for i in range(n_ops):
        t += rng.choice((0, 0, 1, 1, 2, 4, 12, 30)) * 1_000
        roll = rng.random()
        if roll < 0.75:
            ops.append((t, "send", rng.choice((125, 250, 500, 1000, 1500)), i))
        else:
            if roll >= 0.9:
                rng.random()  # keeps the draws of the seeded schedules
            ops.append((t, "read", 0, i))
    return ops


def _drive(make_link, ops):
    """Run ``ops`` through a link; everything observable, in order."""
    k = Kernel()
    log = []
    link = make_link(k, lambda p: log.append(("rx", k.now, p.payload)))

    def act(kind, arg, ident):
        if kind == "send":
            log.append(("tx", k.now, ident, link.send(pkt(arg, payload=ident))))
        else:
            log.append(("queued", k.now, link.queued_bytes))

    # Two stages, so that an action at instant T draws its tie-break
    # sequence number *at* T and therefore runs after every link event
    # due at T — the documented reading of a tie: a packet whose
    # serialisation ends at exactly ``now`` has left the queue.
    for when, kind, arg, ident in ops:
        k.post_at(when, k.post_at, when, act, kind, arg, ident)
    k.run()
    log.append(("counters", link.tx_packets, link.tx_bytes, link.dropped_packets,
                link.dropped_bytes, link.queued_bytes))
    return log


@pytest.mark.parametrize("prop_delay_ns", [0, 5_000])
@pytest.mark.parametrize("seed", range(6))
def test_matches_two_event_reference(seed, prop_delay_ns):
    ops = _schedule(random.Random(seed), 400)
    queue_bytes = 3000  # two full frames: the boundary is hit constantly

    def fused(k, sink):
        return Link(k, "l", GBIT_PER_S, prop_delay_ns, queue_bytes, sink=sink)

    def reference(k, sink):
        return TwoEventLink(k, GBIT_PER_S, prop_delay_ns, queue_bytes, sink)

    got = _drive(fused, ops)
    want = _drive(reference, ops)
    assert got == want
    kinds = {entry[0] for entry in got} | {("tx", entry[3]) for entry in got if entry[0] == "tx"}
    assert {"rx", "queued", ("tx", True), ("tx", False)} <= kinds  # not vacuous
    assert got[-1][3] > 0  # tail drops
