"""Packet tracing facility."""

from repro.util.blobs import RealBlob
from repro.util.trace import PacketTrace

from ..conftest import make_cluster, tcp_pair


def traced_exchange():
    kernel, cluster = make_cluster()
    trace = PacketTrace(kernel).attach(cluster.hosts)
    client, server, _ = tcp_pair(kernel, cluster)
    client.send(RealBlob(b"traced!"))
    kernel.run(until=kernel.now + 1_000_000_000)
    return kernel, cluster, trace


def test_records_tx_and_rx():
    kernel, cluster, trace = traced_exchange()
    assert trace.count(direction="tx") > 0
    assert trace.count(direction="rx") > 0
    # every packet received was also transmitted by someone
    assert trace.count(direction="rx") <= trace.count(direction="tx")


def test_filtering():
    kernel, cluster, trace = traced_exchange()
    assert trace.count(proto="tcp") == trace.count()
    assert trace.count(proto="sctp") == 0
    assert trace.count(host="node0") + trace.count(host="node1") == trace.count()


def test_timestamps_monotone():
    kernel, cluster, trace = traced_exchange()
    times = [e.t_ns for e in trace.entries]
    assert times == sorted(times)


def test_bytes_on_wire_accounting():
    kernel, cluster, trace = traced_exchange()
    tx_bytes = sum(e.wire_size for e in trace.select(host="node0", direction="tx"))
    assert tx_bytes > 7  # payload + headers


def test_to_text_and_format():
    kernel, cluster, trace = traced_exchange()
    text = trace.to_text(limit=5)
    assert "node0" in text and "tcp" in text
    assert len(text.splitlines()) <= 5


def test_max_entries_cap():
    kernel, cluster = make_cluster()
    trace = PacketTrace(kernel, max_entries=3).attach(cluster.hosts)
    client, server, _ = tcp_pair(kernel, cluster)
    client.send(RealBlob(b"x" * 50_000))
    kernel.run(until=kernel.now + 1_000_000_000)
    assert len(trace.entries) == 3
    assert trace.dropped > 0
    assert "truncated" in trace.to_text()
