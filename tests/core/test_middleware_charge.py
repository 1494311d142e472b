"""Drift guard: the middleware CPU charge both RPIs inline is the cost model's."""

from types import SimpleNamespace

import pytest

from repro.core import WorldConfig
from repro.core.rpi.sctp_rpi import _SctpOutUnit
from repro.core.rpi.tcp_rpi import _OutUnit
from repro.core.world import World
from repro.network import CostModel
from repro.util.blobs import ChunkList, SyntheticBlob

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
    rpi.selector = SimpleNamespace(ready=set(), sockets=[sock])
    rpi._feed = lambda sock, chunk: None
    for n in SIZES[1:]:
        sock.chunk = _blob(n)
        rpi.selector.ready = {sock}
        assert _charged(rpi, rpi._pump) == cm.middleware_io_cost("tcp", n)
        unit = _OutUnit(_blob(n))
        assert _charged(rpi, rpi._send_some, sock, unit) == cm.middleware_io_cost("tcp", n)


@pytest.mark.parametrize("cm", [CostModel(), SWAPPED], ids=["default", "swapped"])
def test_sctp_rpi_charges_exactly_the_cost_model(cm):
    """Per recvmsg and per sendmsg piece, for every message size."""
    rpi = _rank0_rpi("sctp", cm)
    rpi._san_b = None
    inbox = []
    rpi.sock = SimpleNamespace(
        recvmsg=lambda: inbox.pop() if inbox else None,
        sendmsg=lambda assoc_id, stream, wire: True,
    )
    rpi._dispatch = lambda msg: None
    for n in SIZES:
        inbox.append(SimpleNamespace(nbytes=n))
        rpi._walk_due = False
        assert _charged(rpi, rpi._pump) == cm.middleware_io_cost("sctp", n)
        unit = _SctpOutUnit(None, _blob(n), n, env_sent=True)
        assert _charged(rpi, rpi._send_piece, 1, 0, unit) == cm.middleware_io_cost("sctp", n)
