"""World bootstrap: cluster + endpoints + MPI processes in one call.

:func:`run_app` is the entry point every example, test, and benchmark
uses: it builds the paper's testbed (8 nodes, gigabit switch, Dummynet
loss), starts one coroutine per rank, runs MPI_Init (connection setup /
association setup + barrier), executes the application, and reports
virtual wall-clock time plus per-layer statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..metrics import MetricsPacketTap, MetricsRegistry, active_collector
from ..network import ClusterConfig, CostModel, build_cluster
from ..simkernel import Future, GBIT_PER_S, Kernel, MICROSECOND, wait_all
from ..transport.base import SCTPConfig, TCPConfig
from .communicator import Communicator
from .constants import EAGER_LIMIT, WORLD_CONTEXT


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
    eager_limit: int = EAGER_LIMIT  # also the SCTP RPI's long-body piece size
    tcp_config: TCPConfig = field(default_factory=TCPConfig)
    # the SCTP RPI's association options (RFC 8260 interleaving, stream
    # scheduler, buffers, ...); the RPI overrides only the stream counts
    sctp_config: SCTPConfig = field(default_factory=SCTPConfig)
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


# A stack is (endpoint factory: host -> endpoint, RPI class).  Each loader
# imports its transport and RPI itself, so a world loads only the stack its
# config names (LAM loads one RPI per job, §2.2.1).  An RPI reads what it
# needs of the config from ``process.world.config``.
Stack = Tuple[Callable[[Any], Any], Callable[["MPIProcess"], Any]]


def _tcp_stack(cfg: WorldConfig) -> Stack:
    from ..transport.tcp import TCPEndpoint
    from .rpi.tcp_rpi import TCPRPI

    return partial(TCPEndpoint, default_config=cfg.tcp_config), TCPRPI


def _sctp_stack(cfg: WorldConfig) -> Stack:
    from ..transport.sctp import SCTPEndpoint
    from .rpi.sctp_rpi import SCTPRPI

    return partial(SCTPEndpoint, default_config=cfg.sctp_config), SCTPRPI


#: ``WorldConfig.rpi`` -> the loader of that stack
STACKS: Dict[str, Callable[[WorldConfig], Stack]] = {"sctp": _sctp_stack, "tcp": _tcp_stack}


#: virtual node speed for the NPB kernels' operation counts
COMPUTE_RATE_FLOPS = 1.0e9


class MPIProcess:
    """One simulated MPI process pinned to one host."""

    def __init__(
        self, world: "World", rank: int, rpi_class: Callable[["MPIProcess"], Any]
    ) -> None:
        self.world = world
        self.rank = rank
        self.size = world.config.n_procs
        self.kernel = world.kernel
        self.host = world.cluster.hosts[rank]
        self.endpoint = world.endpoints[rank]  # the one transport the RPI uses
        self.rpi = rpi_class(self)

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
        return self.compute(flops / COMPUTE_RATE_FLOPS)


class World:
    """A full experiment: cluster, one transport stack, processes."""

    def __init__(self, config: Optional[WorldConfig] = None) -> None:
        self.config = config or WorldConfig()
        cfg = self.config
        # resolve the stack first: an unknown rpi fails before anything is built
        loader = STACKS.get(cfg.rpi)
        if loader is None:
            raise ValueError(f"unknown rpi {cfg.rpi!r}: expected one of {sorted(STACKS)}")
        make_endpoint, rpi_class = loader(cfg)
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
        # one endpoint per host, of the configured stack only
        self.endpoints = [make_endpoint(host) for host in self.cluster.hosts]
        # arm faults before processes exist so t=0 events see every packet
        self.armed_scenario = (
            self.cluster.arm_scenario(cfg.scenario) if cfg.scenario is not None else None
        )
        self.processes = [MPIProcess(self, r, rpi_class) for r in range(cfg.n_procs)]
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


def run_app(
    app: Callable, *args: Any, limit_ns: Optional[int] = None, **world: Any
) -> WorldResult:
    """One-call experiment: build a world, run ``app`` on every rank.

    ``world`` are WorldConfig fields, e.g.
    ``run_app(pingpong, rpi="tcp", loss_rate=0.01, seed=3)``; a caller
    that already holds a config calls ``World(config).run``.
    """
    return World(WorldConfig(**world)).run(app, *args, limit_ns=limit_ns)
