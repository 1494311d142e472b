"""End-to-end wiring: every layer registers into the kernel's registry,
the packet-tap bus serves both metrics and tracing, and MetricsCollector
turns collection on without touching workload signatures."""

from repro.core.world import run_app
from repro.metrics import MetricsCollector, MetricsPacketTap, MetricsRegistry
from repro.util.trace import PacketTrace


async def _exchange(comm):
    if comm.rank == 0:
        await comm.send(b"x" * 50_000, dest=1)
        await comm.recv(source=1)
    else:
        await comm.recv(source=0)
        await comm.send(b"y" * 50_000, dest=0)
    return comm.rank


def _run(rpi, **overrides):
    with MetricsCollector() as collector:
        run_app(_exchange, n_procs=2, rpi=rpi, seed=2, **overrides)
    assert len(collector.runs) == 1
    return collector.runs[0]["metrics"]


def test_world_snapshot_covers_every_layer_sctp():
    snap = _run("sctp")
    prefixes = ("kernel.", "net.link.", "host.", "net.packets.",
                "transport.sctp.", "rpi.sctp.")
    for prefix in prefixes:
        assert any(k.startswith(prefix) for k in snap), f"missing {prefix}"
    assert snap["kernel.events_processed"] > 0
    # both ends delivered one 50 KB message
    assert snap["transport.sctp.node0.messages_delivered"] >= 1
    assert snap["transport.sctp.node1.messages_delivered"] >= 1
    # the rendezvous protocol ran over the progression engine
    assert snap["rpi.sctp.rank0.units_sent"] > 0
    assert snap["rpi.sctp.rank1.units_received"] > 0


def test_world_snapshot_covers_every_layer_tcp():
    snap = _run("tcp")
    assert any(k.startswith("transport.tcp.node0.") for k in snap)
    assert snap["transport.tcp.node0.bytes_sent"] > 0
    # the shared per-host cwnd histogram recorded samples
    assert snap["transport.tcp.node0.cwnd_bytes/count"] > 0
    assert any(k.startswith("rpi.tcp.rank0.") for k in snap)


def test_loss_populates_recovery_and_hol_counters():
    snap = _run("sctp", loss_rate=0.02, num_streams=10)
    node_totals = snap["transport.sctp.node0.retransmitted_chunks"] + \
        snap["transport.sctp.node1.retransmitted_chunks"]
    assert node_totals > 0
    drops = [v for k, v in snap.items()
             if k.startswith("net.dummynet.") and k.endswith("dropped_packets")]
    assert sum(drops) > 0


def test_metrics_disabled_world_has_no_overhead_paths():
    result = run_app(_exchange, n_procs=2, rpi="sctp", seed=2)
    world = result.world
    assert not world.metrics.enabled
    assert world.metrics.snapshot() == {}
    # behaviour identical to the enabled run: same virtual duration
    with MetricsCollector():
        enabled = run_app(_exchange, n_procs=2, rpi="sctp", seed=2)
    assert enabled.duration_ns == result.duration_ns


def test_worldconfig_flag_enables_without_collector():
    result = run_app(_exchange, n_procs=2, rpi="tcp", seed=2, metrics_enabled=True)
    snap = result.world.metrics.snapshot()
    assert snap["transport.tcp.node0.connections_total"] >= 1


def test_trace_and_metrics_tap_share_the_bus():
    registry = MetricsRegistry()
    with MetricsCollector():
        result = run_app(_exchange, n_procs=2, rpi="tcp", seed=2)
    world = result.world
    # attach a second consumer pair post-hoc and replay one packet event
    trace = PacketTrace(world.kernel).attach(world.cluster.hosts)
    tap = MetricsPacketTap(registry.scope("net.packets"))
    tap.attach(world.cluster.hosts)
    host = world.cluster.hosts[0]
    assert trace._tap in host.taps and tap._tap in host.taps

    class FakePacket:
        proto = "tcp"
        src = "10.0.0.1"
        dst = "10.0.0.2"
        wire_size = 52
        payload = "fake"

    for cb in list(host.taps):
        cb("tx", host, FakePacket())
    assert trace.count(host="node0", direction="tx") >= 1
    assert registry.snapshot()["net.packets.node0.tx.tcp.packets"] == 1
