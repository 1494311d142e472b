"""The one-to-many (UDP-like) SCTP socket.

It is the heart of the paper's scalability story (§3.1/§3.3): a *single*
descriptor receives whole, framed messages from every association; the
application learns the association id and stream number only after
reading — exactly the two-level demultiplexing the SCTP RPI performs.
No ``select()`` over N descriptors, no per-peer socket state.

``recvmsg`` is non-blocking and returns ``None`` when nothing is queued
(the RPI's EAGAIN); ``sendmsg`` returns False when the association's send
buffer cannot take the whole message.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from ...simkernel import Future
from ...util.blobs import Blob, ChunkList
from .association import SHUTDOWN_STATES, Association, SCTPConfig
from .endpoint import ListenerHooks, SCTPEndpoint
from .streams import AssembledMessage


class ReceivedMessage:
    """What ``recvmsg`` hands the application (sctp_recvmsg's out-params)."""

    __slots__ = ("assoc_id", "stream", "ssn", "ppid", "data", "unordered")

    def __init__(self, assoc_id: int, message: AssembledMessage) -> None:
        self.assoc_id = assoc_id
        self.stream = message.sid
        self.ssn = message.ssn
        self.ppid = message.ppid
        self.data: ChunkList = message.data
        self.unordered = message.unordered

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReceivedMessage assoc={self.assoc_id} sid={self.stream} "
            f"ssn={self.ssn} {self.nbytes}B>"
        )


class OneToManySocket:
    """SOCK_SEQPACKET-style socket: one descriptor, many associations."""

    def __init__(
        self,
        endpoint: SCTPEndpoint,
        port: Optional[int] = None,
        config: Optional[SCTPConfig] = None,
    ) -> None:
        self.endpoint = endpoint
        self.kernel = endpoint.kernel
        self.config = config or endpoint.default_config
        self.port = port if port is not None else endpoint.allocate_port()
        self._assocs: Dict[int, Association] = {}
        self._by_peer: Dict[tuple, int] = {}  # (addr, port) -> assoc_id
        # delivered messages in arrival order (the paper: "messages are
        # received by the application in the order they arrive"); the
        # owner may test it for emptiness, ``recvmsg`` alone takes from it
        self.inbox: Deque[ReceivedMessage] = deque()
        self.closed = False
        # notification hooks
        self.on_readable: Callable[[], None] = _noop
        self.on_writable: Callable[[int], None] = _noop1
        # whether the owner reads any freed send room; while false, an
        # association reports it only once it reaches the need set with
        # ``report_room_at`` (none set: never)
        self.writable_wanted = True
        self.on_assoc_up: Callable[[int], None] = _noop1
        # the association entered a SHUTDOWN state: ``send_room`` stops
        # predicting refusals (``sendmsg`` raises instead)
        self.on_assoc_shutdown: Callable[[int], None] = _noop1
        self.on_assoc_down: Callable[[int, Optional[str]], None] = _noop2
        endpoint.listen(self.port, ListenerHooks(self._adopt, self.config))

    # -- association management ----------------------------------------------
    def _adopt(self, assoc: Association) -> None:
        """Install hooks on an association (inbound or locally created)."""
        self._assocs[assoc.assoc_id] = assoc
        self._by_peer[(assoc.primary_addr, assoc.peer_port)] = assoc.assoc_id
        assoc.on_message = lambda msg, a=assoc: self._deliver(a, msg)
        assoc.on_writable = lambda a=assoc: self.on_writable(a.assoc_id)
        assoc.writable_gate = self
        assoc.writable_need = assoc.config.sndbuf + 1  # more than can free up
        assoc.on_established = lambda a=assoc: self.on_assoc_up(a.assoc_id)
        assoc.on_shutting_down = lambda a=assoc: self.on_assoc_shutdown(a.assoc_id)
        assoc.on_closed = lambda err, a=assoc: self._assoc_closed(a, err)

    def connect(self, peer_addr: str, peer_port: int) -> Future:
        """Explicitly set up an association; future resolves to assoc_id.

        (One-to-many sockets also connect implicitly on sendmsg, but the
        MPI middleware connects explicitly during MPI_Init — §3.4.)
        """
        existing = self._by_peer.get((peer_addr, peer_port))
        fut = Future(name=f"sctp-connect:{peer_addr}:{peer_port}")
        if existing is not None:
            fut.set_result(existing)
            return fut
        assoc = self.endpoint.create_association(
            peer_addr, peer_port, local_port=self.port, config=self.config
        )
        self._adopt(assoc)

        prev_up = self.on_assoc_up

        def once_up(assoc_id: int) -> None:
            if assoc_id == assoc.assoc_id and not fut.done():
                fut.set_result(assoc_id)
            prev_up(assoc_id)

        def once_down(assoc_id: int, err: Optional[str]) -> None:
            if assoc_id == assoc.assoc_id and not fut.done():
                fut.set_exception(ConnectionError(err or "association failed"))

        assoc.on_established = lambda: once_up(assoc.assoc_id)
        prev_closed = assoc.on_closed
        assoc.on_closed = lambda err: (once_down(assoc.assoc_id, err), prev_closed(err))[-1]
        assoc.connect()
        return fut

    def report_room_at(self, assoc_id: int, nbytes: int) -> None:
        """While ``writable_wanted`` is off, report freed send room on
        ``assoc_id`` only once it reaches ``nbytes``."""
        self._assocs[assoc_id].writable_need = nbytes

    def association(self, assoc_id: int) -> Association:  # repro: allow[AN107] — test seam
        """Look up an owned association by id."""
        return self._assocs[assoc_id]

    def _assoc_closed(self, assoc: Association, error: Optional[str]) -> None:
        self._assocs.pop(assoc.assoc_id, None)
        self._by_peer.pop((assoc.primary_addr, assoc.peer_port), None)
        self.on_assoc_down(assoc.assoc_id, error)

    # -- data ----------------------------------------------------------------------
    def sendmsg(
        self,
        assoc_id: int,
        stream: int,
        payload: Blob,
        unordered: bool = False,
        ppid: int = 0,
    ) -> bool:
        """Queue one whole message; False = would block (EAGAIN).

        Raises ``MessageTooBig`` above the sctp_sendmsg limit and
        ``ValueError`` for a stream the association does not have.
        """
        if self.closed:
            raise OSError("socket closed")
        return self._assocs[assoc_id].send_message(
            stream, payload, unordered=unordered, ppid=ppid
        )

    def sndbuf_free(self, assoc_id: int) -> int:
        """Free send-buffer space on one association."""
        return self._assocs[assoc_id].sndbuf_free()

    def send_room(self, assoc_id: int) -> int:
        """Largest payload ``sendmsg`` would not refuse (answer False) now.

        Lets a caller pass over a message that cannot be accepted without
        building it.  Only the refusal is predicted: where ``sendmsg``
        raises instead (socket closed, association shutting down) nothing
        is refused, the sendmsg limit is reported, and the caller makes
        the call that raises.
        """
        assoc = self._assocs[assoc_id]
        if self.closed or assoc.state in SHUTDOWN_STATES:
            return assoc.config.max_message_size
        return assoc.sndbuf_free()

    def recvmsg(self) -> Optional[ReceivedMessage]:
        """Next whole message in arrival order, or None (would block)."""
        if not self.inbox:
            return None
        msg = self.inbox.popleft()
        # the application has taken the data: re-open the peer's window
        assoc = self._assocs.get(msg.assoc_id)
        if assoc is not None:
            assoc.credit_receive_buffer(msg.nbytes)
        return msg

    @property
    def readable(self) -> bool:
        """Whether recvmsg would return a message right now."""
        return bool(self.inbox)

    def _deliver(self, assoc: Association, message: AssembledMessage) -> None:
        self.inbox.append(ReceivedMessage(assoc.assoc_id, message))
        self.on_readable()

    # -- teardown ---------------------------------------------------------------
    def close(self) -> None:
        """Gracefully shut down every association and stop listening."""
        self.closed = True
        self.endpoint.unlisten(self.port)
        for assoc in list(self._assocs.values()):
            assoc.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OneToManySocket port={self.port} assocs={len(self._assocs)}>"


def _noop() -> None:
    return None


def _noop1(_a) -> None:
    return None


def _noop2(_a, _b) -> None:
    return None
