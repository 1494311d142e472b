"""World bootstrap: cluster + endpoints + MPI processes in one call.

:func:`run_app` is the entry point every example, test, and benchmark
uses: it builds the paper's testbed (8 nodes, gigabit switch, Dummynet
loss), starts one coroutine per rank, runs MPI_Init (connection setup /
association setup + barrier), executes the application, and reports
virtual wall-clock time plus per-layer statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..metrics import MetricsPacketTap, MetricsRegistry, active_collector
from ..network import ClusterConfig, CostModel, build_cluster
from ..simkernel import Future, GBIT_PER_S, Kernel, MICROSECOND, wait_all
from ..transport.sctp import SCTPConfig, SCTPEndpoint
from ..transport.tcp import TCPConfig, TCPEndpoint
from .communicator import Communicator
from .constants import EAGER_LIMIT, WORLD_CONTEXT
from .rpi.sctp_rpi import SCTPRPI
from .rpi.tcp_rpi import TCPRPI


@dataclass
class WorldConfig:
    """Everything needed to stand up one experiment."""

    n_procs: int = 8
    rpi: str = "sctp"  # "sctp" | "tcp"
    seed: int = 0
    loss_rate: float = 0.0  # Dummynet plr on every host egress pipe
    n_paths: int = 1
    # datacenter-style pod topology (1 = the paper's flat single switch);
    # pods are also the sharding unit for parallel DES (repro.simkernel.pdes)
    n_pods: int = 1
    bandwidth_bps: int = GBIT_PER_S
    prop_delay_ns: int = 5 * MICROSECOND
    cost_model: CostModel = field(default_factory=CostModel)
    num_streams: int = 10  # SCTP RPI stream pool (1 = ablation module)
    eager_limit: int = EAGER_LIMIT
    # RFC 8260 message interleaving (I-DATA) + stream scheduling policy;
    # the scheduler runs either way, but only "fcfs" matches legacy DATA
    # transmission order bit-for-bit
    interleaving: bool = False
    scheduler: str = "fcfs"  # "fcfs" | "rr" | "wfq" | "prio"
    tcp_config: TCPConfig = field(default_factory=TCPConfig)
    sctp_config: SCTPConfig = field(default_factory=SCTPConfig)
    compute_rate_flops: float = 1.0e9  # virtual node speed for NPB kernels
    finalize_barrier: bool = True
    # force metric collection on; an enclosing MetricsCollector also enables
    metrics_enabled: bool = False
    # fault-injection timeline (repro.faults.FaultScenario), armed onto the
    # same host egress pipes before any process starts; None = healthy
    # network.  With loss_rate, the only way to impair the network
    scenario: Optional[Any] = None


@dataclass
class WorldResult:
    """What an experiment run returns."""

    results: List[Any]
    duration_ns: int  # MPI_Init end -> last app() return (virtual time)
    total_ns: int  # includes init
    world: "World"

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9


class MPIProcess:
    """One simulated MPI process pinned to one host."""

    def __init__(self, world: "World", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.config.n_procs
        self.kernel = world.kernel
        self.host = world.cluster.hosts[rank]
        self.tcp_endpoint = world.tcp_endpoints[rank]
        self.sctp_endpoint = world.sctp_endpoints[rank]
        if world.config.rpi == "tcp":
            self.rpi = TCPRPI(self, eager_limit=world.config.eager_limit)
        elif world.config.rpi == "sctp":
            self.rpi = SCTPRPI(
                self,
                num_streams=world.config.num_streams,
                eager_limit=world.config.eager_limit,
                interleaving=world.config.interleaving,
                scheduler=world.config.scheduler,
            )
        else:
            raise ValueError(f"unknown rpi {world.config.rpi!r}")

    def addr_of(self, rank: int, path: int = 0) -> str:
        """Primary (or path-``path``) address of a peer rank."""
        return self.world.cluster.host_address(rank, path)

    def compute(self, seconds: float) -> Future:
        """Charge application compute time to this host's CPU."""
        ns = max(0, int(round(seconds * 1e9)))
        fut = Future(name=f"compute-{self.rank}")
        self.host.cpu.execute(ns, fut.set_result, None)
        return fut

    def compute_flops(self, flops: float) -> Future:
        """Compute time derived from an operation count (NPB kernels)."""
        return self.compute(flops / self.world.config.compute_rate_flops)


class World:
    """A full experiment: cluster, transports, processes."""

    def __init__(self, config: Optional[WorldConfig] = None) -> None:
        self.config = config or WorldConfig()
        cfg = self.config
        self._collector = active_collector()
        enabled = cfg.metrics_enabled or self._collector is not None
        self.kernel = Kernel(seed=cfg.seed, metrics=MetricsRegistry(enabled=enabled))
        self.cluster = build_cluster(
            self.kernel,
            ClusterConfig(
                n_hosts=cfg.n_procs,
                n_paths=cfg.n_paths,
                n_pods=cfg.n_pods,
                bandwidth_bps=cfg.bandwidth_bps,
                prop_delay_ns=cfg.prop_delay_ns,
                loss_rate=cfg.loss_rate,
                cost_model=cfg.cost_model,
            ),
        )
        self.tcp_config = cfg.tcp_config
        self.sctp_config = cfg.sctp_config
        self.tcp_endpoints = [
            TCPEndpoint(host, cfg.tcp_config) for host in self.cluster.hosts
        ]
        self.sctp_endpoints = [
            SCTPEndpoint(host, cfg.sctp_config) for host in self.cluster.hosts
        ]
        # arm faults before processes exist so t=0 events see every packet
        self.armed_scenario = (
            self.cluster.arm_scenario(cfg.scenario) if cfg.scenario is not None else None
        )
        self.processes = [MPIProcess(self, r) for r in range(cfg.n_procs)]
        self._init_done_ns = 0
        self._app_done_ns: Dict[int, int] = {}
        if enabled:
            self._packet_tap = MetricsPacketTap(self.kernel.metrics.scope("net.packets"))
            self._packet_tap.attach(self.cluster.hosts)
        else:
            self._packet_tap = None

    @property
    def metrics(self) -> MetricsRegistry:
        """The kernel-owned registry every layer registered into."""
        return self.kernel.metrics

    def communicator(self, rank: int) -> Communicator:
        """COMM_WORLD for one rank (used by the per-rank main)."""
        return Communicator(self.processes[rank], cid=WORLD_CONTEXT)

    async def _main(self, rank: int, app: Callable, args: tuple) -> Any:
        proc = self.processes[rank]
        await proc.rpi.init()
        self._init_done_ns = max(self._init_done_ns, self.kernel.now)
        comm = self.communicator(rank)
        result = await app(comm, *args)
        self._app_done_ns[rank] = self.kernel.now
        if self.config.finalize_barrier:
            await comm.barrier()
        proc.rpi.finalize()
        return result

    def spawn_ranks(self, app: Callable, args: tuple, ranks: List[int]) -> List[Any]:
        """Start the per-rank mains for a subset of ranks (PDES sharding).

        The returned tasks are in ``ranks`` order.  The world is built in
        full either way — every shard holds identical replicas of every
        host/endpoint — but only the ranks a shard *owns* actually run.
        """
        return [
            self.kernel.spawn(self._main(rank, app, args), name=f"rank{rank}")
            for rank in ranks
        ]

    def run(self, app: Callable, *args: Any, limit_ns: Optional[int] = None) -> WorldResult:
        """Run ``app(comm, *args)`` on every rank to completion."""
        tasks = self.spawn_ranks(app, args, list(range(self.config.n_procs)))
        done = wait_all(tasks)
        results = self.kernel.run_until(done, limit=limit_ns)
        last_app_done = max(self._app_done_ns.values())
        if self._collector is not None:
            cfg = self.config
            label = (
                f"rpi={cfg.rpi} n_procs={cfg.n_procs} loss={cfg.loss_rate}"
                f" seed={cfg.seed} streams={cfg.num_streams} paths={cfg.n_paths}"
            )
            if cfg.scenario is not None:
                label += f" scenario={cfg.scenario.name}"
            self._collector.add(label, self.kernel.metrics.snapshot())
        return WorldResult(
            results=results,
            duration_ns=last_app_done - self._init_done_ns,
            total_ns=last_app_done,
            world=self,
        )

    # -- diagnostics ---------------------------------------------------------
    def rpi_stats(self, rank: int):
        """Progression-engine counters of one rank."""
        return self.processes[rank].rpi.stats


def run_app(
    app: Callable,
    *args: Any,
    config: Optional[WorldConfig] = None,
    limit_ns: Optional[int] = None,
    **config_overrides: Any,
) -> WorldResult:
    """One-call experiment: build a world, run ``app`` on every rank.

    ``config_overrides`` are WorldConfig fields, e.g.
    ``run_app(pingpong, rpi="tcp", loss_rate=0.01, seed=3)``.
    """
    if config is None:
        config = WorldConfig(**config_overrides)
    elif config_overrides:
        raise ValueError("pass either config or keyword overrides, not both")
    world = World(config)
    return world.run(app, *args, limit_ns=limit_ns)
