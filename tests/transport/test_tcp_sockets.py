"""Socket facade + Selector (select() semantics, costs and the ready set)."""

from types import SimpleNamespace

import pytest

from repro.network import CostModel, Host
from repro.simkernel import SECOND, Kernel
from repro.transport.tcp import Selector
from repro.util.blobs import RealBlob, SyntheticBlob

from ..conftest import make_cluster, tcp_pair


def test_readable_writable_flags():
    kernel, cluster = make_cluster()
    client, server, _ = tcp_pair(kernel, cluster)
    assert client.writable and not client.readable
    client.send(RealBlob(b"ping"))
    kernel.run(until=kernel.now + 1 * SECOND)
    assert server.readable
    server.recv(100)
    assert not server.readable


def _selector(kernel, host):
    """A Selector whose wake callback records the virtual instants it fires."""
    woken = []
    return Selector(host, lambda: woken.append(kernel.now)), woken


def _drain(selector, sock):
    """What the TCP RPI's pump does: read until recv would block, then unlist."""
    while sock.recv(1 << 20) is not None:
        pass
    selector.ready.discard(sock)


def test_selector_immediate_when_already_ready():
    kernel, cluster = make_cluster()
    client, server, _ = tcp_pair(kernel, cluster)
    selector, woken = _selector(kernel, cluster.hosts[1])
    selector.register(server)
    _drain(selector, server)
    assert server not in selector.ready
    client.send(RealBlob(b"data"))
    kernel.run(until=kernel.now + 1 * SECOND)
    # the data's report listed the socket while nobody was selecting
    assert server in selector.ready and woken == []
    assert selector.select([]) is True
    assert woken == []


def test_selector_charges_cpu_per_call():
    kernel, cluster = make_cluster()
    client, server, _ = tcp_pair(kernel, cluster)
    host = cluster.hosts[0]
    selector, _ = _selector(kernel, host)
    busy = host.cpu.total_busy_ns
    selector.select([client])  # write set only
    assert host.cpu.total_busy_ns - busy == host.cost_model.select_cost(1)
    selector.register(client)
    busy = host.cpu.total_busy_ns
    selector.select([client])  # read set + write set
    assert host.cpu.total_busy_ns - busy == host.cost_model.select_cost(2)
    assert selector.calls == 2


def test_selector_resolves_on_readability():
    kernel, cluster = make_cluster()
    client, server, _ = tcp_pair(kernel, cluster)
    selector, woken = _selector(kernel, cluster.hosts[1])
    selector.register(server)
    _drain(selector, server)
    assert selector.select([]) is False  # blocked
    delivered = []
    report = server.conn.on_readable
    server.conn.on_readable = lambda: (delivered.append(kernel.now), report())
    client.send(RealBlob(b"data"))
    client.send(RealBlob(b"more"))
    kernel.run(until=kernel.now + 1 * SECOND)
    assert woken == delivered[:1]  # once, inside the first delivery
    assert server in selector.ready


def test_selector_writable_wake_only_for_the_write_set():
    kernel, cluster = make_cluster()
    client, server, _ = tcp_pair(kernel, cluster)
    selector, woken = _selector(kernel, cluster.hosts[0])
    selector.register(client)
    _drain(selector, client)

    def fill():
        while client.send(SyntheticBlob(64 * 1024)) > 0:
            pass
        assert not client.writable

    fill()
    assert selector.select([]) is False  # no queued output: read set only
    kernel.run(until=kernel.now + 1 * SECOND)
    assert client.writable and woken == []  # send room freed, nobody woken
    while server.recv(1 << 20) is not None:  # reopen the receive window
        pass
    fill()
    assert selector.select([client]) is False
    kernel.run(until=kernel.now + 1 * SECOND)
    assert len(woken) == 1


@pytest.mark.parametrize(
    "cm",
    [CostModel(), CostModel(select_base_ns=3_100, select_per_socket_ns=77)],
    ids=["default", "custom"],
)
def test_selector_charges_exactly_select_cost(cm):
    """Drift guard: a Selector derives its select() charge once from its
    host's cost model; for 0-64 descriptors it must charge exactly what
    ``CostModel.select_cost`` gives."""
    host = Host(Kernel(seed=1), "h", cm)
    selector = Selector(host, lambda: None)
    idle = SimpleNamespace(writable=False)
    for n in range(65):
        before = host.cpu.total_busy_ns
        assert selector.select([idle] * n) is False
        assert host.cpu.total_busy_ns - before == cm.select_cost(n)


def test_selector_unblock_and_unregister_stop_wakes():
    kernel, cluster = make_cluster()
    client, server, _ = tcp_pair(kernel, cluster)
    selector, woken = _selector(kernel, cluster.hosts[1])
    selector.register(server)
    _drain(selector, server)
    assert selector.select([]) is False
    selector.unblock()  # the owner was woken by something else
    client.send(RealBlob(b"data"))
    kernel.run(until=kernel.now + 1 * SECOND)
    assert woken == [] and server in selector.ready
    selector.unregister(server)
    assert selector.sockets == [] and server not in selector.ready
    client.send(RealBlob(b"more"))
    kernel.run(until=kernel.now + 1 * SECOND)
    assert server.readable and server not in selector.ready


def test_eof_makes_socket_readable():
    kernel, cluster = make_cluster()
    client, server, _ = tcp_pair(kernel, cluster)
    client.close()
    kernel.run(until=kernel.now + 2 * SECOND)
    assert server.readable
    assert server.recv(10).nbytes == 0  # EOF
