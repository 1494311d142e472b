"""Cluster builder structure and configuration."""

import pytest

from repro.network import ClusterConfig, build_cluster
from repro.simkernel import Kernel


def test_default_matches_paper_testbed():
    cfg = ClusterConfig()
    assert cfg.n_hosts == 8
    assert cfg.bandwidth_bps == 1_000_000_000


def test_structure_counts():
    k = Kernel()
    c = build_cluster(k, ClusterConfig(n_hosts=4, n_paths=2))
    assert len(c.hosts) == 4
    assert len(c.switches) == 2
    assert len(c.pipes) == 8  # one egress pipe per host per path
    assert len(c.links) == 16  # up+down per host per path
    for h in c.hosts:
        assert len(h.addresses()) == 2


def test_deterministic_addressing():
    cfg = ClusterConfig()
    assert cfg.address(0) == "10.0.0.1"
    assert cfg.address(7, path=2) == "10.2.0.8"
    k = Kernel()
    c = build_cluster(k, ClusterConfig(n_hosts=3, n_paths=2))
    assert c.host_address(2, 1) == "10.1.0.3"


def test_invalid_configs_rejected():
    k = Kernel()
    with pytest.raises(ValueError):
        build_cluster(k, ClusterConfig(n_hosts=0))
    with pytest.raises(ValueError):
        build_cluster(k, ClusterConfig(n_paths=0))


def test_total_dropped_counts_pipe_drops():
    from repro.network import Packet

    k = Kernel(seed=3)
    c = build_cluster(k, ClusterConfig(n_hosts=2, loss_rate=0.5))
    for i in range(100):
        c.hosts[0].send(
            Packet(
                src=c.host_address(0),
                dst=c.host_address(1),
                proto="t",
                payload=i,
                wire_size=64,
            )
        )
    k.run()
    assert 20 < c.total_dropped() < 80
