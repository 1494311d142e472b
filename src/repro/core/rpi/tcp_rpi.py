"""LAM-TCP RPI: one socket per peer, select()-driven (the baseline).

Faithful to §2.2/§3 of the paper:

* a fully connected mesh of N-1 TCP sockets per process, built during
  MPI_Init by ``connect``/``accept`` (rank i actively connects to all
  higher ranks; a HELLO envelope identifies the peer on the passive side),
* readiness discovered by ``select()`` over all descriptors — whose CPU
  cost grows linearly with the socket count (§3.3, [20]),
* per-socket read state machine: because TCP delivers bytes strictly in
  order, only **one** incoming message per peer can be in flight, so one
  (envelope, body-progress) pair per socket suffices (§3.2.4) — this is
  exactly the head-of-line blocking the SCTP module removes,
* per-peer FIFO write queues: all tags/contexts to the same peer share
  one byte stream; a socket whose send buffer a write filled is passed
  over until it reports freed room (the write side of ``select()``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional

from ...transport.tcp import Selector, TCPListener, TCPSocket
from ...util.blobs import ChunkList
from ..constants import FLAG_HELLO, MPI_BASE_PORT
from ..envelope import ENVELOPE_SIZE, Envelope
from .base import BaseRPI

#: bytes asked of the socket per recv call (LAM posts the whole buffer)
RECV_CHUNK = 220 * 1024


@dataclass(slots=True)
class _OutUnit:
    """One queued middleware unit: envelope + body as a single byte run."""

    wire: ChunkList
    on_sent: Optional[Callable[[], None]] = None
    offset: int = 0  # bytes of ``wire`` the socket has taken


class _InState:
    """Read state machine for one socket (one in-flight message max)."""

    __slots__ = ("buf", "env")

    def __init__(self) -> None:
        self.buf = ChunkList()
        self.env: Optional[Envelope] = None


class TCPRPI(BaseRPI):
    """LAM's TCP request progression module."""

    name = "tcp"

    def __init__(self, process, eager_limit=None, port: int = MPI_BASE_PORT) -> None:
        super().__init__(process, **({} if eager_limit is None else {"eager_limit": eager_limit}))
        self.port = port
        self.endpoint = process.tcp_endpoint
        # the selector ends a blocked select() itself before it wakes the
        # rank, so it calls the base wake, without this class's unblock()
        self.selector = Selector(self.host, super().wake)
        # per-chunk hot path: prebind the middleware cost coefficients
        # (fixed for the host's lifetime) so _pump/_send_some do integer
        # arithmetic instead of a cost-model method call per socket op
        cm = self.host.cost_model
        self._mw_base_ns = cm.tcp_syscall_ns
        self._mw_per_kib_ns = cm.tcp_middleware_per_kib_ns
        self._sock_by_rank: Dict[int, TCPSocket] = {}
        self._rank_by_sock: Dict[TCPSocket, int] = {}
        self._in_state: Dict[TCPSocket, _InState] = {}
        self._outq: Dict[int, Deque[_OutUnit]] = {
            r: deque() for r in range(self.size) if r != self.rank
        }
        self._queued_units = 0  # units in _outq, over every queue
        self._listener: Optional[TCPListener] = None

    # ------------------------------------------------------------------
    # init / finalize
    # ------------------------------------------------------------------
    async def init(self) -> None:
        """Build the full socket mesh (MPI_Init).

        TCP's connect/accept ordering makes an explicit barrier
        unnecessary (§3.4, last paragraph)."""
        self._listener = TCPListener(self.endpoint, self.port)

        async def acceptor() -> None:
            for _ in range(self.rank):  # every lower rank dials us
                sock = await self._listener.accept()
                self._register_socket(sock)
                self.wake()

        accept_task = self.kernel.spawn(acceptor(), name=f"mpi-accept-{self.rank}")

        for peer in range(self.rank + 1, self.size):
            sock = TCPSocket.connect(
                self.endpoint,
                self.process.addr_of(peer),
                self.port,
                config=self.process.world.tcp_config,
            )
            await sock.connected()
            self._register_socket(sock, rank=peer)
            self.send_control(peer, FLAG_HELLO)

        # wait until every lower rank has said hello
        await self.progress_until(lambda: len(self._sock_by_rank) >= self.size - 1)
        await accept_task

    def finalize(self) -> None:
        """Close the mesh."""
        if self._listener is not None:
            self._listener.close()
        for sock in self.selector.sockets:
            sock.close()

    def _register_socket(self, sock: TCPSocket, rank: Optional[int] = None) -> None:
        self.selector.register(sock)
        self._in_state[sock] = _InState()
        if rank is not None:
            self._bind(sock, rank)

    def _bind(self, sock: TCPSocket, rank: int) -> None:
        self._sock_by_rank[rank] = sock
        self._rank_by_sock[sock] = rank

    # ------------------------------------------------------------------
    # transport plumbing
    # ------------------------------------------------------------------
    def _enqueue_unit(self, dest, env, body, on_sent=None) -> None:
        wire = ChunkList([env.pack()])
        if body is not None:
            wire.extend(body)
        self._outq[dest].append(_OutUnit(wire, on_sent))
        self._queued_units += 1
        self.stats.units_sent += 1
        self.stats.bytes_sent += wire.nbytes

    def _pump(self) -> bool:
        progressed = False
        # inbound: drain the sockets that may be readable, in registration
        # order; every readable socket is among them (Selector.ready)
        ready = self.selector.ready
        if self._san is not None:
            self._san.expect_listed(self.selector.sockets, ready, f"rank {self.rank} pump")
        if ready:
            for sock in list(self.selector.sockets):
                if sock not in ready:
                    continue
                while True:
                    chunk = sock.recv(RECV_CHUNK)
                    if chunk is None:
                        ready.discard(sock)
                        break
                    nbytes = chunk.nbytes  # _feed may take from the run
                    if nbytes == 0:
                        # EOF/teardown: a finished peer closed its side; stop
                        # watching or select() would spin on it forever
                        self._retire_socket(sock)
                        break
                    self.host.cpu.charge(
                        self._mw_base_ns + self._mw_per_kib_ns * nbytes // 1024
                    )
                    self._feed(sock, chunk)
                    progressed = True
                    if nbytes < RECV_CHUNK:
                        # a short read drained the receive buffer; nothing new
                        # can arrive synchronously, so skip the would-block call
                        break
        if not self._queued_units:
            return progressed
        # outbound: flush per-peer FIFO queues, passing over the sockets
        # whose send buffer is still full (Selector.stalled): their send
        # would accept nothing
        stalled = self.selector.stalled
        if self._san is not None:
            self._san.expect_full(stalled, f"rank {self.rank} pump")
        for rank, queue in self._outq.items():
            if not queue:
                continue
            sock = self._sock_by_rank.get(rank)
            if sock is None or sock in stalled:
                continue  # peer not connected yet (only during init), or full
            while queue:
                unit = queue[0]
                if self._send_some(sock, unit) > 0:
                    progressed = True
                if unit.offset >= unit.wire.nbytes:
                    queue.popleft()
                    self._queued_units -= 1
                    if unit.on_sent is not None:
                        unit.on_sent()
                else:
                    stalled.add(sock)  # the send buffer is full
                    break
        return progressed

    def _retire_socket(self, sock: TCPSocket) -> None:
        self.selector.unregister(sock)
        rank = self._rank_by_sock.pop(sock, None)
        if rank is not None:
            self._sock_by_rank.pop(rank, None)
        self._in_state.pop(sock, None)

    def _send_some(self, sock: TCPSocket, unit: _OutUnit) -> int:
        """Write ``unit`` until it is out or the send buffer is full."""
        sent = 0
        wire = unit.wire
        while unit.offset < wire.nbytes:
            piece = wire.piece_at(unit.offset)
            accepted = sock.send(piece)
            if accepted:
                self.host.cpu.charge(
                    self._mw_base_ns + self._mw_per_kib_ns * accepted // 1024
                )
                unit.offset += accepted
                sent += accepted
            if accepted < piece.nbytes:
                break  # a short write filled the buffer: the next would take 0
        return sent

    def _feed(self, sock: TCPSocket, chunk: ChunkList) -> None:
        state = self._in_state[sock]
        if state.buf.nbytes:
            state.buf.extend(chunk)
        else:
            state.buf = chunk  # the socket handed this run over: adopt it
        while True:
            if state.env is None:
                if state.buf.nbytes < ENVELOPE_SIZE:
                    return
                state.env = Envelope.unpack(state.buf.take(ENVELOPE_SIZE).to_bytes())
            body_len = state.env.wire_body_length()
            if state.buf.nbytes < body_len:
                return
            body = state.buf.take(body_len)
            env, state.env = state.env, None
            if sock not in self._rank_by_sock:
                if env.kind() != FLAG_HELLO:
                    raise RuntimeError(
                        f"rank {self.rank}: first unit on a socket must be "
                        f"HELLO, got {env!r}"
                    )
                self._bind(sock, env.rank)
            self._on_unit(env.rank, env, body)

    def _must_block(self) -> bool:
        if self._woken:
            self._woken = False
            return False
        write_socks = [
            self._sock_by_rank[r]
            for r, q in self._outq.items()
            if q and r in self._sock_by_rank
        ] if self._queued_units else []
        if self.selector.select(write_socks):
            return False
        if self._san is not None:
            self._san.expect_listed(self.selector.sockets, (), f"rank {self.rank} blocking select")
        # the selector wakes the rank on the first event select() would
        # have returned for; so does anything else that wakes the rank
        return True

    def wake(self) -> None:
        if self._waiter is not None:
            self.selector.unblock()  # whoever woke the rank ends its select()
        super().wake()

    def outstanding_output(self) -> int:
        """Bytes still queued toward peers (diagnostics)."""
        return sum(
            sum(u.wire.nbytes - u.offset for u in q) for q in self._outq.values()
        )
