"""The CPU model's charges: what is charged where, and in which order
(DESIGN §2, ``CostModel``).

* Drift guard: the middleware CPU charge both RPIs inline is the cost
  model's, for every byte count one socket call can move.
* Order: on a real ping-pong, per packet at ``Host.send`` /
  ``Host.deliver`` (inlined there, no ``HostCPU.charge`` call), per socket
  call in each RPI after the call returns (so the packets a call emits
  leave before the CPU has paid for the copy), and per ``select()``.
"""

from collections import deque
from types import SimpleNamespace

import pytest

from repro.core import WorldConfig
from repro.core.rpi.sctp_rpi import _SctpOutUnit
from repro.core.rpi.tcp_rpi import _OutUnit
from repro.core.world import World
from repro.network import CostModel
from repro.network.host import Host, HostCPU
from repro.transport.sctp import OneToManySocket
from repro.transport.tcp import Selector, TCPSocket
from repro.util.blobs import ChunkList, SyntheticBlob
from repro.workloads.mpbench import make_pingpong

# every size up to 2 KiB, then a stride coprime to 1024 (so every
# remainder of the per-KiB division is hit) up to 256 KiB
SIZES = sorted(set(range(2049)) | set(range(0, 256 * 1024 + 1, 257)) | {256 * 1024})

# the stacks' terms swapped and made odd: a charge that read the other
# stack's terms, or rounded differently, gives a different number
SWAPPED = CostModel(
    tcp_syscall_ns=40_001, tcp_middleware_per_kib_ns=5_201,
    sctp_syscall_ns=1_499, sctp_middleware_per_kib_ns=10_999,
)


def _rank0_rpi(rpi, cm):
    world = World(WorldConfig(n_procs=2, rpi=rpi, cost_model=cm))
    rpi = world.processes[0].rpi
    rpi._san = None  # the stub sockets below are not the sanitizer's business
    return rpi


def _charged(rpi, step, *args):
    before = rpi.host.cpu.total_busy_ns
    step(*args)
    return rpi.host.cpu.total_busy_ns - before


def _blob(n):
    return ChunkList([SyntheticBlob(n)])


class _TcpStub:
    """A socket with one chunk to read that takes every write whole; no
    EOF or error is left to read once it is drained."""

    chunk = None
    conn = SimpleNamespace(_eof=False)
    closed_error = None

    def recv(self, _max):
        chunk, self.chunk = self.chunk, None
        return chunk

    def send(self, piece):
        return piece.nbytes


@pytest.mark.parametrize("cm", [CostModel(), SWAPPED], ids=["default", "swapped"])
def test_tcp_rpi_charges_exactly_the_cost_model(cm):
    """Per socket read and per socket write, for every byte count a call
    can move (a 0-byte read is EOF and a 0-byte write is never made)."""
    rpi = _rank0_rpi("tcp", cm)
    sock = _TcpStub()
    rpi.selector = SimpleNamespace(ready=set(), sockets=[sock], stalled=set(), lifted=False)
    rpi._feed = lambda sock, chunk: None
    rpi._sock_by_rank[1] = sock
    for n in SIZES[1:]:
        sock.chunk = _blob(n)
        rpi.selector.ready = {sock}
        assert _charged(rpi, rpi._pump) == cm.middleware_io_cost("tcp", n)
        rpi._outq[1].append(_OutUnit(_blob(n)))
        rpi._walk_due = True  # the queue was filled behind the RPI's back
        assert _charged(rpi, rpi._pump) == cm.middleware_io_cost("tcp", n)


@pytest.mark.parametrize("cm", [CostModel(), SWAPPED], ids=["default", "swapped"])
def test_sctp_rpi_charges_exactly_the_cost_model(cm):
    """Per recvmsg and per sendmsg piece, for every message size (a
    0-byte piece is never sent: the unit is out)."""
    rpi = _rank0_rpi("sctp", cm)
    rpi._san_b = None
    inbox = deque()
    rpi.sock = SimpleNamespace(
        inbox=inbox,
        recvmsg=inbox.popleft,
        sendmsg=lambda assoc_id, stream, wire: True,
        send_room=lambda assoc_id: 1 << 30,
    )
    rpi._dispatch = lambda msg: None
    rpi._assoc_by_rank[1] = 1
    for n in SIZES:
        inbox.append(SimpleNamespace(nbytes=n))
        rpi._walk_due = False
        assert _charged(rpi, rpi._pump) == cm.middleware_io_cost("sctp", n)
        if n:
            rpi._outq[(1, 0)] = deque([_SctpOutUnit(None, _blob(n), n, env_sent=True)])
            rpi._walk_due = True
            assert _charged(rpi, rpi._pump) == cm.middleware_io_cost("sctp", n)


# -- the order of the charges on a real run ----------------------------------
SOCKET_CALLS = {
    "tcp": ((TCPSocket, "send"), (TCPSocket, "recv")),
    "sctp": ((OneToManySocket, "sendmsg"), (OneToManySocket, "recvmsg")),
}


def _moved(name, result, args):
    """Bytes a socket call moved (0: refused, nothing to read, or EOF)."""
    if name == "send":
        return result
    if name == "sendmsg":
        return args[2].nbytes if result else 0
    return 0 if result is None else result.nbytes  # recv / recvmsg


def _charge_log(rpi, message_size, round_trips):
    """Every CPU charge of a 2-rank ping-pong, in order, with what made it."""
    log = []
    depth = [0]  # inside a socket call, select() or a per-packet charge
    with pytest.MonkeyPatch.context() as patch:
        charge = HostCPU.charge

        def logged_charge(cpu, cost_ns):
            log.append(("charge", depth[0], cost_ns))
            return charge(cpu, cost_ns)

        patch.setattr(HostCPU, "charge", logged_charge)

        def logged_packet(name, fn):
            def wrapper(host, packet):
                before = host.cpu.total_busy_ns
                log.append((name, packet.proto, packet.wire_size))
                depth[0] += 1
                try:
                    fn(host, packet)
                finally:
                    depth[0] -= 1
                log.append((name + "_paid", host.cpu.total_busy_ns - before))

            return wrapper

        for name in ("send", "deliver"):
            patch.setattr(Host, name, logged_packet(name, getattr(Host, name)))

        def logged_call(name, fn):
            def wrapper(sock, *args):
                depth[0] += 1
                try:
                    result = fn(sock, *args)
                finally:
                    depth[0] -= 1
                log.append(("returned", name, _moved(name, result, args), depth[0]))
                return result

            return wrapper

        for cls, name in SOCKET_CALLS[rpi]:
            patch.setattr(cls, name, logged_call(name, getattr(cls, name)))
        select = Selector.select

        def logged_select(selector, write_sockets):
            log.append(("select", len(selector.sockets) + len(write_sockets)))
            depth[0] += 1
            try:
                return select(selector, write_sockets)
            finally:
                depth[0] -= 1

        patch.setattr(Selector, "select", logged_select)
        # built after the patches: hosts and links bind their sinks
        world = World(WorldConfig(n_procs=2, rpi=rpi, seed=1))
        world.run(make_pingpong(message_size, round_trips, warmup=0))
    return log, world.config.cost_model


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
@pytest.mark.parametrize("size", [64, 16 * 1024])
def test_charges_are_per_packet_then_per_call_after_it_returns(rpi, size):
    log, cm = _charge_log(rpi, size, round_trips=10)
    seen = {"packet": 0, "call": 0, "select": 0}
    for i, entry in enumerate(log):
        if entry[0] in ("send", "deliver"):
            # per packet: paid inside Host.send / Host.deliver, without a
            # HostCPU.charge call (nested work, e.g. a synchronous demux,
            # pays its own charges, logged between the two entries)
            _what, proto, wire_size = entry
            end = next(j for j in range(i + 1, len(log)) if log[j][0] == entry[0] + "_paid")
            nested = sum(e[2] for e in log[i + 1:end] if e[0] == "charge")
            cost = (cm.packet_send_cost if entry[0] == "send" else cm.packet_recv_cost)(
                proto, wire_size
            )
            assert log[end][1] - nested == cost > 0
            seen["packet"] += 1
        elif entry[0] == "returned":
            _what, name, moved, depth = entry
            following = log[i + 1] if i + 1 < len(log) else None
            if moved:
                # per socket call: the RPI charges right after it returns
                cost = cm.middleware_io_cost(rpi, moved)
                assert following == ("charge", depth, cost), (name, following)
                seen["call"] += 1
            else:  # a call that moved nothing costs nothing
                assert following is None or following[:2] != ("charge", depth)
        elif entry[0] == "select":
            # per select(): charged once, inside it, first thing
            assert log[i + 1][0] == "charge"
            assert log[i + 1][2] == cm.select_cost(entry[1])
            seen["select"] += 1
        elif entry[0] == "charge":
            # nothing else charges the CPU
            before = log[i - 1]
            assert before[0] == "select" or (
                before[0] == "returned" and before[3] == entry[1]
            ), before
    assert seen["packet"] > 4 * 10 and seen["call"] >= 4 * 10
    assert (seen["select"] > 0) == (rpi == "tcp")  # the SCTP RPI never selects
