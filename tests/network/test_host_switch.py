"""Host demux, CPU serialization, switch forwarding, path failure."""

import pytest

from repro.faults import primary_blackhole
from repro.network import ClusterConfig, HostCPU, Packet, build_cluster
from repro.simkernel import MILLISECOND, Kernel


class Recorder:
    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


def test_host_protocol_demux():
    k, cluster = _cluster(k_seed=1)
    a_handler, b_handler = Recorder(), Recorder()
    cluster.hosts[1].register_protocol("a", a_handler)
    cluster.hosts[1].register_protocol("b", b_handler)
    for proto in ("a", "b", "a", "unknown"):
        cluster.hosts[0].send(
            Packet(
                src=cluster.host_address(0),
                dst=cluster.host_address(1),
                proto=proto,
                payload=None,
                wire_size=100,
            )
        )
    k.run()
    assert len(a_handler.packets) == 2
    assert len(b_handler.packets) == 1  # unknown proto silently dropped


def test_duplicate_protocol_registration_rejected():
    k, cluster = _cluster()
    cluster.hosts[0].register_protocol("x", Recorder())
    with pytest.raises(ValueError):
        cluster.hosts[0].register_protocol("x", Recorder())


def test_cpu_serializes_work():
    k = Kernel()
    cpu = HostCPU(k)
    done = []
    cpu.execute(100, done.append, "first")
    cpu.execute(50, done.append, "second")  # queues behind the first
    k.run()
    assert done == ["first", "second"]
    assert k.now == 150
    assert cpu.total_busy_ns == 150


def test_cpu_zero_cost_runs_inline():
    k = Kernel()
    cpu = HostCPU(k)
    done = []
    cpu.execute(0, done.append, 1)
    assert done == [1]  # no event needed


def test_cpu_negative_cost_rejected():
    k = Kernel()
    with pytest.raises(ValueError):
        HostCPU(k).execute(-5, lambda: None)


def test_switch_forwards_by_destination():
    k, cluster = _cluster(n_hosts=3)
    r1, r2 = Recorder(), Recorder()
    cluster.hosts[1].register_protocol("t", r1)
    cluster.hosts[2].register_protocol("t", r2)
    for dst in (1, 2, 2):
        cluster.hosts[0].send(
            Packet(
                src=cluster.host_address(0),
                dst=cluster.host_address(dst),
                proto="t",
                payload=None,
                wire_size=64,
            )
        )
    k.run()
    assert len(r1.packets) == 1 and len(r2.packets) == 2
    assert cluster.switches[0].forwarded == 3


def test_switch_drops_unroutable():
    k, cluster = _cluster()
    cluster.hosts[0].send(
        Packet(
            src=cluster.host_address(0),
            dst="10.9.9.9",
            proto="t",
            payload=None,
            wire_size=64,
        )
    )
    k.run()
    assert cluster.switches[0].unroutable == 1


def test_multihomed_addressing():
    k, cluster = _cluster(n_hosts=2, n_paths=3)
    host = cluster.hosts[0]
    assert host.addresses() == ["10.0.0.1", "10.1.0.1", "10.2.0.1"]
    assert host.primary_address == "10.0.0.1"
    with pytest.raises(ValueError):
        host.add_address("10.1.0.1", lambda packet: None)
    sink = Recorder()
    cluster.hosts[1].register_protocol("t", sink)

    def send_from(src, dst):
        host.send(Packet(src=src, dst=dst, proto="t", payload=None, wire_size=64))

    # a known source leaves on its own path's uplink; an unknown source
    # leaves on the primary path's
    send_from("10.1.0.1", cluster.host_address(1, 1))
    send_from("1.2.3.4", cluster.host_address(1, 0))
    k.run()
    uplinks = [cluster.links[f"h0p{p}->sw{p}"].tx_packets for p in range(3)]
    assert uplinks == [1, 1, 0]
    assert [pkt.src for pkt in sink.packets] == ["10.1.0.1", "1.2.3.4"]


def test_fail_and_restore_path():
    """A path fails and comes back as a blackhole window on its pipes."""
    k, cluster = _cluster(n_hosts=2, n_paths=2)
    cluster.arm_scenario(primary_blackhole(start_ns=0, duration_ns=MILLISECOND))
    sink = Recorder()
    cluster.hosts[1].register_protocol("t", sink)

    def send_on(path):
        cluster.hosts[0].send(
            Packet(
                src=cluster.host_address(0, path),
                dst=cluster.host_address(1, path),
                proto="t",
                payload=None,
                wire_size=64,
            )
        )

    send_on(0)
    send_on(1)
    k.run(until=MILLISECOND)
    assert len(sink.packets) == 1  # only path 1 delivered
    send_on(0)
    k.run()
    assert len(sink.packets) == 2


def _cluster(n_hosts=2, n_paths=1, k_seed=1):
    k = Kernel(seed=k_seed)
    return k, build_cluster(k, ClusterConfig(n_hosts=n_hosts, n_paths=n_paths))
