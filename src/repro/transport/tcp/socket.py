"""Non-blocking socket facade over :class:`TCPConnection`.

This is the API surface LAM's TCP RPI uses: non-blocking ``send``/``recv``
that return "would block" instead of waiting, plus a :class:`Selector`
mimicking ``select()`` — including its linear-in-descriptors CPU cost,
which the paper (citing [20]) identifies as a scalability liability of the
socket-per-peer design.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Sequence, Set, Tuple

from ...simkernel import Future
from ...util.blobs import Blob, ChunkList
from .connection import CLOSE_WAIT, ESTABLISHED, TCPConfig, TCPConnection, _noop
from .endpoint import ListenerHooks, TCPEndpoint


class TCPSocket:
    """One connected (or connecting) TCP socket, non-blocking semantics."""

    def __init__(self, conn: TCPConnection) -> None:
        self.conn = conn
        self._connect_future: Optional[Future] = None
        # readiness events go to the one Selector this socket is registered
        # with (see _route_events); nobody listens until then
        self._report: Callable[[], None] = _noop
        self.closed_error: Optional[str] = None
        conn.on_established = self._on_established
        conn.on_closed = self._on_closed

    # -- establishment -----------------------------------------------------
    @classmethod
    def connect(
        cls,
        endpoint: TCPEndpoint,
        remote_addr: str,
        remote_port: int,
        config: Optional[TCPConfig] = None,
    ) -> "TCPSocket":
        """Start an active open; await :meth:`connected` for completion."""
        conn = endpoint.connect(remote_addr, remote_port, config=config)
        return cls(conn)

    def connected(self) -> Future:
        """Future resolving (to self) when the handshake completes."""
        fut = Future(name=f"connect:{self.conn.remote_addr}:{self.conn.remote_port}")
        if self.conn.state == "ESTABLISHED":
            fut.set_result(self)
        elif self.closed_error is not None:
            fut.set_exception(ConnectionError(self.closed_error))
        else:
            self._connect_future = fut
        return fut

    def _on_established(self) -> None:
        if self._connect_future is not None and not self._connect_future.done():
            self._connect_future.set_result(self)
        self._report()

    def _on_closed(self, error: Optional[str]) -> None:
        self.closed_error = error
        if self._connect_future is not None and not self._connect_future.done():
            self._connect_future.set_exception(
                ConnectionError(error or "connection closed")
            )
        self._report()

    # -- data ---------------------------------------------------------------
    def send(self, blob: Blob) -> int:
        """Queue bytes; returns bytes accepted, 0 when the call would block."""
        if self.closed_error is not None:
            raise BrokenPipeError(self.closed_error)
        return self.conn.app_write(blob)

    def recv(self, nbytes: int) -> Optional[ChunkList]:
        """Read up to ``nbytes``; None = would block; empty ChunkList = EOF."""
        conn = self.conn
        if conn._ready.nbytes > 0:  # == app_readable_bytes(), sans the call
            return conn.app_read(nbytes)
        # nothing buffered: eof_pending is _eof
        if conn._eof or self.closed_error is not None:
            return ChunkList()
        return None

    def close(self) -> None:
        """Half-close the sending direction (FIN after pending data)."""
        self.conn.app_close()

    def abort(self) -> None:
        """Hard reset."""
        self.conn.abort()

    # -- readiness ------------------------------------------------------------
    @property
    def readable(self) -> bool:
        """Data buffered, EOF reached, or connection dead."""
        conn = self.conn
        return (
            conn._ready.nbytes > 0  # == app_readable_bytes(), sans the call
            or conn.eof_pending
            or self.closed_error is not None
        )

    @property
    def writable(self) -> bool:
        """Send buffer has room (or the socket is dead: writes will raise).
        A half-closed socket (the peer's FIN arrived, ``CLOSE_WAIT``) still
        takes bytes, so it is writable too, as under ``select()``."""
        return self.closed_error is not None or self.conn.writable_bytes() > 0

    @property
    def send_blocked(self) -> bool:
        """A ``send`` now would accept nothing (rather than take bytes or
        raise): the connection takes writes and its send buffer is full.
        Implies ``not writable``."""
        conn = self.conn
        return (
            self.closed_error is None
            and conn.state in (ESTABLISHED, CLOSE_WAIT)
            and not conn._fin_queued
            and conn.send_buffer.free <= 0
        )

    def _route_events(self, report: Callable[[], None]) -> None:
        """Send every readiness event (data delivered, EOF, close,
        established, send room freed) to ``report``; ``_noop`` stops them."""
        self._report = report
        self.conn.on_readable = report
        self.conn.on_writable = report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TCPSocket {self.conn!r}>"


class TCPListener:
    """Listening socket with an accept queue."""

    def __init__(
        self,
        endpoint: TCPEndpoint,
        port: int,
        config: Optional[TCPConfig] = None,
    ) -> None:
        self.endpoint = endpoint
        self.port = port
        self._backlog: List[TCPSocket] = []
        self._acceptors: List[Future] = []
        endpoint.listen(port, ListenerHooks(self._on_new_connection, config))

    def _on_new_connection(self, conn: TCPConnection) -> None:
        sock = TCPSocket(conn)

        def when_established() -> None:
            sock._report()
            while self._acceptors:
                fut = self._acceptors.pop(0)
                if not fut.done():
                    fut.set_result(sock)
                    return
            self._backlog.append(sock)

        conn.on_established = when_established

    def accept(self) -> Future:
        """Future resolving to the next fully established TCPSocket."""
        fut = Future(name=f"accept:{self.port}")
        if self._backlog:
            fut.set_result(self._backlog.pop(0))
        else:
            self._acceptors.append(fut)
        return fut

    def close(self) -> None:
        """Stop listening (queued-but-unaccepted connections stay alive)."""
        self.endpoint.unlisten(self.port)


class Selector:
    """``select()`` over the registered TCPSockets, with modelled CPU cost.

    Every :meth:`select` charges the paper's linear-in-descriptors price
    (``CostModel.select_cost``) for the registered sockets (the read set)
    plus the write set.  The implementation is edge-triggered: each
    registered socket reports its readiness events here, and ``ready``
    holds the sockets that may be readable.  A socket joins it when
    registered or when it reports while readable, and leaves only when its
    reader finds it drained and discards it (a ``recv`` would block, or a
    short read left neither data, EOF nor an error to read):
    ``sock.readable => sock in ready``.  A task woken by a report resumes
    inline, inside it (:class:`~repro.simkernel.futures.Task`), so
    ``ready`` is exact then.

    The charge's two terms are derived once, when the selector is built,
    from the host's frozen cost model (``select_cost`` at 0 and 1 sockets);
    the read set's part is kept as sockets are registered and unregistered.

    ``stalled`` is the write-side mirror: the sockets whose last write left
    a unit unfinished, added by the writer after a short write.  A socket
    leaves it when it reports while ``send`` could take bytes again (an ACK
    freed room, or the connection closed) or is unregistered: ``sock in
    stalled => sock.send_blocked``, which implies ``not sock.writable``.
    The writer passes over listed sockets, and so does ``select()``'s
    writability test (a listed socket is not writable); its write set and
    charge do not depend on the list.  ``lifted`` records that a socket
    left the list since the writer last cleared it, so the writer walks
    its queues again only when one may take bytes.
    """

    def __init__(self, host, wake: Callable[[], None]) -> None:
        self.host = host
        self._wake = wake
        # the read set, in registration order; a new tuple on every
        # (un)registration, so a walk over it holds still while it runs
        self.sockets: Tuple[TCPSocket, ...] = ()
        self.ready: Set[TCPSocket] = set()
        self.stalled: Set[TCPSocket] = set()
        self.lifted = False  # a socket left ``stalled``; the writer clears it
        # write set of the select() the owner is blocked in; None when not
        self._blocked_writes: Optional[Sequence[TCPSocket]] = None
        self.calls = 0
        cost_model = host.cost_model
        base = cost_model.select_cost(0)
        self._charge_per_socket_ns = cost_model.select_cost(1) - base
        # select_cost(len(sockets)), kept as sockets are (un)registered
        self._read_set_charge_ns = base

    def register(self, sock: TCPSocket) -> None:
        """Watch ``sock`` for reading from now on (it may be readable)."""
        self.sockets += (sock,)
        self._read_set_charge_ns += self._charge_per_socket_ns
        self.ready.add(sock)
        sock._route_events(partial(self._socket_event, sock))

    def unregister(self, sock: TCPSocket) -> None:
        """Stop watching ``sock`` and ignore its further events."""
        sockets = list(self.sockets)
        sockets.remove(sock)
        self.sockets = tuple(sockets)
        self._read_set_charge_ns -= self._charge_per_socket_ns
        self.ready.discard(sock)
        if sock in self.stalled:
            self.stalled.discard(sock)
            self.lifted = True
        sock._route_events(_noop)

    def select(self, write_sockets: Sequence[TCPSocket]) -> bool:
        """One ``select()`` over every registered socket for reading and
        ``write_sockets`` for writing; charges its CPU cost.

        True when a socket is ready now.  Otherwise the owner is blocked:
        the first event that would have made ``select()`` return — a
        registered socket becoming readable, or one of ``write_sockets``
        writable — calls ``wake`` once.  :meth:`unblock` ends the wait
        early (the owner was woken by something else).
        """
        self.calls += 1
        charge = self._read_set_charge_ns  # == select_cost(), sans the call
        if write_sockets:
            charge += self._charge_per_socket_ns * len(write_sockets)
        self.host.cpu.charge(charge)
        ready = self.ready
        for sock in self.sockets:
            if sock in ready and sock.readable:
                return True
        stalled = self.stalled
        for sock in write_sockets:
            # sock in stalled => send_blocked => not writable: not asked
            if sock not in stalled and sock.writable:
                return True
        self._blocked_writes = write_sockets
        return False

    def unblock(self) -> None:
        """The owner is no longer blocked: events stop waking it."""
        self._blocked_writes = None

    def _socket_event(self, sock: TCPSocket) -> None:
        """``sock`` reported: list it if readable, unlist it from
        ``stalled`` if it can take bytes; wake a blocked owner if
        ``select()`` would now return for it."""
        stalled = self.stalled
        if stalled and sock in stalled and not sock.send_blocked:
            stalled.discard(sock)
            self.lifted = True
        blocked_writes = self._blocked_writes
        conn = sock.conn
        # == sock.readable, sans the property calls (with nothing buffered,
        # eof_pending is _eof)
        if conn._ready.nbytes > 0 or conn._eof or sock.closed_error is not None:
            self.ready.add(sock)
        elif blocked_writes is None or sock not in blocked_writes or not sock.writable:
            return
        if blocked_writes is not None:
            self._blocked_writes = None
            self._wake()
