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
from typing import Callable, Deque, Dict, Optional, Tuple

from ...transport.tcp import Selector, TCPListener, TCPSocket
from ...util.blobs import ChunkList
from ..constants import FLAG_HELLO, KIND_MASK, MPI_BASE_PORT
from ..envelope import ENVELOPE_SIZE, INLINE_BODY_KINDS, Envelope, envelope_of, unpack_fields
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

    __slots__ = ("buf", "env", "body_len")

    def __init__(self) -> None:
        self.buf = ChunkList()
        self.env: Optional[Envelope] = None
        self.body_len = 0  # wire body bytes ``env`` announces


class TCPRPI(BaseRPI):
    """LAM's TCP request progression module."""

    name = "tcp"

    def __init__(self, process) -> None:
        super().__init__(process)
        self.endpoint = process.endpoint
        # the selector ends a blocked select() itself before it wakes the
        # rank, so it calls the base wake, without this class's unblock()
        self.selector = Selector(self.host, super().wake)
        # per-chunk hot path: prebind the middleware cost coefficients
        # (fixed for the host's lifetime) so _pump does integer
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
        # write readiness: whether anything since the last outbound walk
        # (a unit queued, a rank bound) may let a queue progress; a socket
        # leaving Selector.stalled raises the selector's ``lifted`` instead.
        # After a walk every non-empty queue is unbound or stalled, and
        # ``_write_socks`` (select()'s write set) lists the bound ones
        self._walk_due = False
        self._write_socks: Tuple[TCPSocket, ...] = ()
        self._listener: Optional[TCPListener] = None

    # ------------------------------------------------------------------
    # init / finalize
    # ------------------------------------------------------------------
    async def init(self) -> None:
        """Build the full socket mesh (MPI_Init).

        TCP's connect/accept ordering makes an explicit barrier
        unnecessary (§3.4, last paragraph)."""
        self._listener = TCPListener(self.endpoint, MPI_BASE_PORT)

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
                MPI_BASE_PORT,
                config=self.process.world.config.tcp_config,
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
        if self._outq[rank]:  # units queued before the peer was known
            self._walk_due = True

    # ------------------------------------------------------------------
    # transport plumbing
    # ------------------------------------------------------------------
    def _enqueue_unit(self, dest, env, body, on_sent=None) -> None:
        # envelope and body as one byte run, built once
        wire = ChunkList([env.pack()] if body is None else [env.pack(), *body.pieces])
        self._outq[dest].append(_OutUnit(wire, on_sent))
        self._walk_due = True
        self.stats.units_sent += 1
        self.stats.bytes_sent += wire.nbytes

    def _pump(self) -> bool:
        progressed = False
        # inbound: drain the sockets that may be readable, in registration
        # order; every readable socket is among them (Selector.ready)
        selector = self.selector
        ready = selector.ready
        if self._san is not None:
            self._san.expect_listed(selector.sockets, ready, f"rank {self.rank} pump")
        if ready:
            # retiring a socket rebuilds the tuple: this walk holds still
            for sock in selector.sockets:
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
                        # a short read drained the receive buffer and nothing
                        # new arrives synchronously: unless EOF or an error is
                        # left to read, the next recv would block, so unlist
                        if not sock.conn._eof and sock.closed_error is None:
                            ready.discard(sock)
                        break
        if not self._walk_due and not selector.lifted:
            # nothing was queued, bound or un-stalled since the last walk:
            # every non-empty queue is still unbound or stalled
            if self._san is not None:
                self._san.expect_write_idle(
                    self._outq, self._sock_by_rank, selector.stalled,
                    self._write_socks, f"rank {self.rank} pump",
                )
            return progressed
        # outbound: flush per-peer FIFO queues, passing over the sockets
        # whose send buffer is still full (Selector.stalled): their send
        # would accept nothing
        stalled = selector.stalled
        if self._san is not None:
            self._san.expect_full(stalled, f"rank {self.rank} pump")
        write_socks = ()  # select()'s write set: bound sockets with output
        for rank, queue in self._outq.items():
            if not queue:
                continue
            sock = self._sock_by_rank.get(rank)
            if sock is None:
                continue  # peer not connected yet (only during init)
            if sock in stalled:
                write_socks += (sock,)  # full: its send would take nothing
                continue
            while queue:
                unit = queue[0]
                wire = unit.wire
                # write the unit a piece at a time, until it is out or a
                # short write filled the send buffer (the next would take 0)
                while unit.offset < wire.nbytes:
                    piece = wire.piece_at(unit.offset)
                    accepted = sock.send(piece)
                    if accepted:
                        self.host.cpu.charge(
                            self._mw_base_ns + self._mw_per_kib_ns * accepted // 1024
                        )
                        unit.offset += accepted
                        progressed = True
                    if accepted < piece.nbytes:
                        break
                if unit.offset >= wire.nbytes:
                    queue.popleft()
                    if unit.on_sent is not None:
                        unit.on_sent()
                else:
                    stalled.add(sock)  # the send buffer is full
                    write_socks += (sock,)
                    break
        # not before the walk: one that raises (a closed connection) is
        # due again, so the next pump raises too, as it always did
        self._write_socks = write_socks
        self._walk_due = selector.lifted = False
        return progressed

    def _retire_socket(self, sock: TCPSocket) -> None:
        self.selector.unregister(sock)
        rank = self._rank_by_sock.pop(sock, None)
        if rank is not None:
            self._sock_by_rank.pop(rank, None)
        self._in_state.pop(sock, None)

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
                state.env = env = envelope_of(
                    unpack_fields(state.buf.take(ENVELOPE_SIZE).to_bytes())
                )
                # the body bytes that follow this envelope on the wire
                state.body_len = env.length if env.flags & KIND_MASK in INLINE_BODY_KINDS else 0
            if state.buf.nbytes < state.body_len:
                return
            body = state.buf.take(state.body_len)
            env, state.env = state.env, None
            if sock not in self._rank_by_sock:
                if env.flags & KIND_MASK != FLAG_HELLO:
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
        # the walk that last changed the queues built the write set (this
        # step's pump ran the walk if one was due)
        if self.selector.select(self._write_socks):
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
