"""Cluster topology builder.

Reproduces the paper's testbed in one call: N hosts, each with
``n_paths`` gigabit interfaces (one address each), one switch per path
(so multihomed paths are fully independent), full-duplex links, and a
Dummynet loss pipe on every host egress.  The paper used 8 nodes, 3 NICs
each, 1 Gbit/s, and loss rates of 0%, 1%, 2%; those are the defaults
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..simkernel import GBIT_PER_S, Kernel, MICROSECOND

if TYPE_CHECKING:  # avoid an import cycle: faults imports network.packet
    from ..faults.scenario import ArmedScenario, FaultScenario
from .costmodel import CostModel
from .dummynet import DummynetPipe
from .host import Host
from .link import Link
from .switch import Switch


@dataclass
class ClusterConfig:
    """Knobs for :func:`build_cluster`; defaults mirror the paper's setup."""

    n_hosts: int = 8
    n_paths: int = 1  # the paper's comparison benches run single-homed
    # Pod structure (datacenter-style): hosts are split into ``n_pods``
    # contiguous groups, each with its own switch per path, and the pod
    # switches of one path form a full mesh of trunk links.  ``n_pods=1``
    # reproduces the paper's flat single-switch testbed exactly (same
    # component names, same wiring).  Pods are also the sharding unit for
    # conservative parallel DES: the trunks are the only links crossing
    # pod boundaries, so their propagation delay is the PDES lookahead.
    n_pods: int = 1
    bandwidth_bps: int = GBIT_PER_S
    prop_delay_ns: int = 5 * MICROSECOND  # host <-> switch, one way
    # Per-output-port buffering.  Must exceed n_hosts * rcvbuf (220 KiB) so
    # an 8-way incast bounded by receive windows never tail-drops: the
    # paper's testbed showed no loss at 0% Dummynet loss, so ours must not
    # invent any.
    queue_bytes: int = 2 * 1024 * 1024
    # Dummynet ``plr`` on every host egress pipe, fixed for the run; every
    # other fault is a repro.faults scenario armed on the same pipes
    loss_rate: float = 0.0
    cost_model: CostModel = field(default_factory=CostModel)

    def address(self, host_index: int, path: int = 0) -> str:
        """Deterministic addressing: path p, host h -> ``10.p.0.(h+1)``."""
        return f"10.{path}.0.{host_index + 1}"

    def pod_of(self, host_index: int) -> int:
        """Pod of a host: contiguous balanced partition of the host range."""
        return host_index * self.n_pods // self.n_hosts

    def switch_name(self, path: int, pod: int) -> str:
        """Switch naming; flat clusters keep the historical ``sw{p}``."""
        if self.n_pods == 1:
            return f"sw{path}"
        return f"sw{path}pod{pod}"


@dataclass
class Cluster:
    """The assembled testbed."""

    config: ClusterConfig
    kernel: Kernel
    hosts: List[Host]
    switches: List[Switch]
    pipes: Dict[str, DummynetPipe]  # keyed by "h{host}p{path}"
    links: Dict[str, Link]

    def host_address(self, host_index: int, path: int = 0) -> str:
        """Address of host ``host_index`` on ``path``."""
        return self.config.address(host_index, path)

    def arm_scenario(self, scenario: "FaultScenario") -> "ArmedScenario":
        """Arm a fault-injection timeline onto this cluster's egress pipes."""
        return scenario.arm(self.kernel, self.pipes)


def build_cluster(kernel: Kernel, config: Optional[ClusterConfig] = None) -> Cluster:
    """Assemble hosts, switches, links and loss pipes per ``config``."""
    cfg = config or ClusterConfig()
    if cfg.n_hosts < 1:
        raise ValueError("cluster needs at least one host")
    if cfg.n_paths < 1:
        raise ValueError("cluster needs at least one path")
    if not 1 <= cfg.n_pods <= cfg.n_hosts:
        raise ValueError(f"n_pods must be in [1, n_hosts]: {cfg.n_pods}")

    hosts = [Host(kernel, f"node{h}", cfg.cost_model) for h in range(cfg.n_hosts)]
    switches: List[Switch] = []
    pipes: Dict[str, DummynetPipe] = {}
    links: Dict[str, Link] = {}

    for p in range(cfg.n_paths):
        pod_switches: List[Switch] = []
        for pod in range(cfg.n_pods):
            name = cfg.switch_name(p, pod)
            switch = Switch(name)
            switches.append(switch)
            pod_switches.append(switch)
            sw_scope = kernel.metrics.scope(f"net.switch.{name}")
            sw_scope.probe("forwarded", lambda s=switch: s.forwarded)
            sw_scope.probe("unroutable", lambda s=switch: s.unroutable)
        for h, host in enumerate(hosts):
            switch = pod_switches[cfg.pod_of(h)]
            addr = cfg.address(h, p)
            up = Link(
                kernel,
                f"h{h}p{p}->{switch.name}",
                cfg.bandwidth_bps,
                cfg.prop_delay_ns,
                cfg.queue_bytes,
                sink=switch.ingress(),
            )
            down = Link(
                kernel,
                f"{switch.name}->h{h}p{p}",
                cfg.bandwidth_bps,
                cfg.prop_delay_ns,
                cfg.queue_bytes,
                sink=host.deliver,
            )
            links[up.name] = up
            links[down.name] = down
            switch.attach(addr, down)

            pipe = DummynetPipe(
                kernel,
                f"h{h}p{p}",
                loss_rate=cfg.loss_rate,
                sink=up.send,
            )
            pipes[f"h{h}p{p}"] = pipe
            host.add_address(addr, pipe)
        # full-mesh trunks between the pod switches of this path: the
        # sending pod's switch routes every address of the remote pod
        # down one trunk link (Switch.attach maps many addrs -> one Link)
        for a, src_sw in enumerate(pod_switches):
            for b, dst_sw in enumerate(pod_switches):
                if a == b:
                    continue
                trunk = Link(
                    kernel,
                    f"{src_sw.name}->{dst_sw.name}",
                    cfg.bandwidth_bps,
                    cfg.prop_delay_ns,
                    cfg.queue_bytes,
                    sink=dst_sw.ingress(),
                )
                links[trunk.name] = trunk
                for h in range(cfg.n_hosts):
                    if cfg.pod_of(h) == b:
                        src_sw.attach(cfg.address(h, p), trunk)

    return Cluster(
        config=cfg,
        kernel=kernel,
        hosts=hosts,
        switches=switches,
        pipes=pipes,
        links=links,
    )
