"""Shared fixtures/helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.network import ClusterConfig, build_cluster
from repro.simkernel import Kernel
from repro.transport.sctp import OneToManySocket, SCTPConfig, SCTPEndpoint
from repro.transport.tcp import TCPConfig, TCPEndpoint, TCPListener, TCPSocket
from repro.util.blobs import BlobView, RealBlob


def make_cluster(n_hosts=2, loss_rate=0.0, seed=1, n_paths=1, **kw):
    """A kernel + cluster pair for transport-level tests."""
    kernel = Kernel(seed=seed)
    cluster = build_cluster(
        kernel,
        ClusterConfig(
            n_hosts=n_hosts, loss_rate=loss_rate, n_paths=n_paths, **kw
        ),
    )
    return kernel, cluster


def fragments(message, *sizes):
    """``message`` (bytes) cut the way the SCTP bundler cuts a message of
    several fragments: consecutive views of ``sizes`` bytes each."""
    source = RealBlob(message)
    assert sum(sizes) == source.nbytes, "fragments must tile the message"
    views, offset = [], 0
    for size in sizes:
        views.append(BlobView(source, offset, size))
        offset += size
    return views


def tcp_pair(kernel, cluster, port=5000, config=None):
    """Two connected TCP sockets (client on host 0, server on host 1)."""
    e0 = TCPEndpoint(cluster.hosts[0], config or TCPConfig())
    e1 = TCPEndpoint(cluster.hosts[1], config or TCPConfig())
    listener = TCPListener(e1, port)
    client = TCPSocket.connect(e0, cluster.host_address(1), port, config=config)
    accept_fut = listener.accept()
    connect_fut = client.connected()
    kernel.run_until(connect_fut, limit=60_000_000_000)
    kernel.run_until(accept_fut, limit=60_000_000_000)
    server = accept_fut.result()
    return client, server, (e0, e1, listener)


def sctp_pair(kernel, cluster, port=6000, config=None):
    """Two one-to-many SCTP sockets with an established association.

    Returns (client_sock, server_sock, client_assoc_id)."""
    cfg = config or SCTPConfig()
    e0 = SCTPEndpoint(cluster.hosts[0], cfg)
    e1 = SCTPEndpoint(cluster.hosts[1], cfg)
    s0 = OneToManySocket(e0, port, cfg)
    s1 = OneToManySocket(e1, port, cfg)
    fut = s0.connect(cluster.host_address(1), port)
    assoc_id = kernel.run_until(fut, limit=60_000_000_000)
    return s0, s1, assoc_id


def drain(kernel, limit_ns=60_000_000_000):
    """Run the kernel until quiescent or the limit."""
    kernel.run(until=kernel.now + limit_ns)


@pytest.fixture
def kernel():
    """A fresh deterministic kernel."""
    return Kernel(seed=1)
