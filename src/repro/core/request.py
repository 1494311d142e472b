"""MPI request objects and completion status.

A :class:`Request` is what ``isend``/``irecv`` return; the progression
engine moves it through its protocol states and marks it ``done``.
Nothing awaits a request: the wait calls progress the engine until
``done`` is set.  A request never fails: an error in the engine raises
out of the pump, and so out of the blocked MPI call (DESIGN §9.4).
``Status`` mirrors MPI_Status: actual source, tag and byte count —
essential with wildcards.

A request is built in one frame: its constructor draws its id (and a
send its sequence number) from the owning rank's RPI itself.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Optional

from ..util.blobs import ChunkList
from .constants import FLAG_PICKLED

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

    Ids, sequence numbers and the completion count live on the owning
    rank's RPI, so they restart with every world and nothing
    process-global is written.
    """

    __slots__ = ("rpi", "id", "state", "done", "data")

    kind: str  # "send" | "recv", set by each subclass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Request r{self.rpi.rank}#{self.id} {self.kind} {self.state}>"


class SendRequest(Request):
    """Outgoing message: payload plus protocol bookkeeping."""

    __slots__ = ("dest", "tag", "context", "body", "flags_extra", "synchronous", "seqnum")

    kind = "send"

    def __init__(
        self,
        rpi,
        dest: int,
        tag: int,
        context: int,
        body: ChunkList,
        flags_extra: int,
        synchronous: bool,
    ) -> None:
        rpi.request_ids += 1
        self.id = rpi.request_ids
        rpi.seq += 1
        self.seqnum = rpi.seq  # sender-unique: pairs ACKs and bodies with it
        self.rpi = rpi
        self.state = S_INIT
        self.done = False  # set by complete(), never cleared
        self.data = None
        self.dest = dest
        self.tag = tag
        self.context = context
        self.body = body
        self.flags_extra = flags_extra
        self.synchronous = synchronous

    @property
    def status(self) -> Status:
        """What a send reports: this rank, the tag and the body size."""
        return Status(self.rpi.rank, self.tag, self.body.nbytes)

    def complete(self) -> None:
        """Mark done and tell the rank's waiters something completed."""
        if self.done:
            return
        self.state = S_DONE
        self.done = True
        self.rpi.completions += 1


class RecvRequest(Request):
    """Posted receive: matching criteria plus an accumulation buffer."""

    __slots__ = ("source", "tag", "context", "env", "body")

    kind = "recv"

    def __init__(self, rpi, source: int, tag: int, context: int) -> None:
        rpi.request_ids += 1
        self.id = rpi.request_ids
        self.rpi = rpi
        self.state = S_INIT
        self.done = False  # set by deliver(), never cleared
        self.data: Any = None  # the decoded payload
        self.source = source  # may be ANY_SOURCE
        self.tag = tag  # may be ANY_TAG
        self.context = context
        self.env = None  # the envelope matched: eager, or a rendezvous's
        self.body: Optional[ChunkList] = None  # a rendezvous body's pieces

    @property
    def status(self) -> Status:
        """Source, tag and length of the message matched (empty before)."""
        env = self.env
        return Status() if env is None else Status(env.rank, env.tag, env.length)

    def deliver(self, env, body: ChunkList) -> None:
        """Complete with the message ``env`` announced: ``body`` decoded
        (unpickled when the sender pickled it)."""
        self.env = env
        self.data = pickle.loads(body.to_bytes()) if env.flags & FLAG_PICKLED else body
        self.state = S_DONE
        self.done = True
        self.rpi.completions += 1
