"""MPI request objects and completion status.

A :class:`Request` is what ``isend``/``irecv`` return; the progression
engine moves it through its protocol states and marks it ``done`` (a
failure is kept in ``error``).  Nothing awaits a request: the wait calls
progress the engine until ``done`` is set, then re-raise ``error``.
``Status`` mirrors MPI_Status: actual source, tag and byte count —
essential with wildcards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..util.blobs import ChunkList
from .constants import ANY_SOURCE, ANY_TAG

# request protocol states
S_INIT = "init"
S_SENDING = "sending"  # body being handed to the transport
S_RNDV_WAIT_ACK = "rndv_wait_ack"  # long send: envelope out, awaiting ack
S_SSEND_WAIT_ACK = "ssend_wait_ack"  # sync short: body out, awaiting ack
S_RECV_POSTED = "recv_posted"
S_RECV_BODY = "recv_body"  # long recv: ack sent, body arriving
S_DONE = "done"


@dataclass(slots=True)
class Status:
    """Completion information (MPI_Status)."""

    source: int = -1
    tag: int = -1
    length: int = 0


class Request:
    """One in-flight communication request.

    Ids and the completion count live on the owning rank's RPI, so they
    restart with every world and nothing process-global is written.
    """

    __slots__ = ("kind", "rpi", "id", "state", "done", "error", "status", "data")

    def __init__(self, kind: str, rpi, status: Status) -> None:
        self.kind = kind  # "send" | "recv"
        self.rpi = rpi  # the owning rank's progression engine
        self.id = rpi.next_request_id()
        self.state = S_INIT
        self.done = False  # set by complete()/fail(), never cleared
        self.error: Optional[BaseException] = None  # set by fail()
        self.status = status
        self.data: Any = None  # decoded payload (recv side)

    def complete(self, data: Any = None) -> None:
        """Mark done and tell the rank's waiters something completed."""
        if self.done:
            return
        self.state = S_DONE
        self.done = True
        self.data = data
        self.rpi.completions += 1

    def fail(self, exc: BaseException) -> None:
        """Complete the request with an error."""
        if self.done:
            return
        self.state = S_DONE
        self.done = True
        self.error = exc
        self.rpi.completions += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Request r{self.rpi.rank}#{self.id} {self.kind} {self.state}>"


class SendRequest(Request):
    """Outgoing message: payload plus protocol bookkeeping."""

    __slots__ = (
        "dest", "tag", "context", "body", "flags_extra", "synchronous", "seqnum"
    )

    def __init__(
        self,
        rpi,
        dest: int,
        tag: int,
        context: int,
        body: ChunkList,
        flags_extra: int,
        synchronous: bool,
        seqnum: int,
    ) -> None:
        super().__init__("send", rpi, Status(rpi.rank, tag, body.nbytes))
        self.dest = dest
        self.tag = tag
        self.context = context
        self.body = body
        self.flags_extra = flags_extra
        self.synchronous = synchronous
        self.seqnum = seqnum


class RecvRequest(Request):
    """Posted receive: matching criteria plus an accumulation buffer."""

    __slots__ = (
        "source", "tag", "context", "body", "expected_length", "body_flags",
        "matched_source", "matched_seqnum",
    )

    def __init__(self, rpi, source: int, tag: int, context: int) -> None:
        super().__init__("recv", rpi, Status())
        self.source = source  # may be ANY_SOURCE
        self.tag = tag  # may be ANY_TAG
        self.context = context
        self.body: Optional[ChunkList] = None  # a rendezvous body's pieces
        self.expected_length: Optional[int] = None
        self.body_flags = 0
        self.matched_source: Optional[int] = None
        self.matched_seqnum: Optional[int] = None

    def matches(self, env_tag: int, env_context: int, env_rank: int) -> bool:
        """MPI matching rule with wildcards."""
        if self.context != env_context:
            return False
        if self.source != ANY_SOURCE and self.source != env_rank:
            return False
        if self.tag != ANY_TAG and self.tag != env_tag:
            return False
        return True
