"""The application-facing MPI API (mpi4py naming conventions).

All calls run inside a single per-process coroutine; blocking operations
(``send``/``recv``/``wait*``) drive the RPI's progression engine, exactly
like LAM's single-threaded middleware progresses requests inside blocking
MPI calls.  Non-blocking calls (``isend``/``irecv``) return
:class:`~repro.core.request.Request` objects.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..simkernel import Future
from .constants import ANY_SOURCE, ANY_TAG, pt2pt_context
from .payload import encode_payload
from .request import RecvRequest, Request, SendRequest, Status


class Communicator:
    """An MPI communicator bound to one simulated process."""

    def __init__(self, process, cid: int = 0) -> None:
        self.process = process
        self.rpi = process.rpi
        self.cid = cid
        self.rank = process.rank
        self.size = process.size
        self.context = pt2pt_context(cid)  # fixed for the communicator's life
        # this communicator's rank -> world rank (COMM_WORLD: the identity)
        self.world_ranks: Sequence[int] = range(self.size)
        self._next_child_cid = cid * 64 + 1  # deterministic dup() numbering

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def isend(self, data: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking standard send (eager or rendezvous by size)."""
        return self._isend(data, dest, tag, False)

    def issend(self, data: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking synchronous send (completes only when matched)."""
        return self._isend(data, dest, tag, True)

    def _isend(self, data: Any, dest: int, tag: int, synchronous: bool) -> Request:
        if not 0 <= dest < self.size or dest == self.rank:
            self._reject_peer(dest)
        if tag < 0:
            raise ValueError(f"send tags must be non-negative, got {tag}")
        body, extra = encode_payload(data)
        rpi = self.rpi
        req = SendRequest(
            rpi, self.world_ranks[dest], tag, self.context, body, extra, synchronous
        )
        rpi.start_send(req)
        return req

    async def send(self, data: Any, dest: int, tag: int = 0) -> None:
        """Blocking standard send."""
        # wait(), inline in send/recv: no coroutine for a finished request
        request = self._isend(data, dest, tag, False)
        if not request.done:
            await self.rpi.progress_until(lambda: request.done)

    async def ssend(  # repro: allow[AN107] — public MPI API
        self, data: Any, dest: int, tag: int = 0
    ) -> None:
        """Blocking synchronous send."""
        await self.wait(self.issend(data, dest, tag))

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; wildcards allowed."""
        if source != ANY_SOURCE:
            if not 0 <= source < self.size or source == self.rank:
                self._reject_peer(source)
            source = self.world_ranks[source]
        req = RecvRequest(self.rpi, source, tag, self.context)
        self.rpi.post_recv(req)
        return req

    async def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Blocking receive; returns the decoded payload."""
        req = self.irecv(source, tag)
        if not req.done:
            await self.rpi.progress_until(lambda: req.done)
        if status is not None:
            self._copy_status(req, status)
        return req.data

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    async def wait(self, request: Request) -> Request:
        """Progress the middleware until ``request`` completes."""
        if not request.done:
            await self.rpi.progress_until(lambda: request.done)
        return request

    async def _next_completion(self) -> None:
        """Progress until some request of this rank completes.

        Between completions no ``done`` flag changes, so ``waitall`` and
        ``waitany`` look at their lists again only after this returns."""
        rpi = self.rpi
        seen = rpi.completions
        await rpi.progress_until(lambda: rpi.completions != seen)

    async def waitall(self, requests: Sequence[Request]) -> List[Request]:
        """MPI_Waitall."""
        for request in requests:  # a cursor: finished ones are not re-read
            while not request.done:
                await self._next_completion()
        return list(requests)

    async def waitany(self, requests: Sequence[Request]) -> Tuple[int, Request]:
        """MPI_Waitany: index and request of the first completion."""
        if not requests:
            raise ValueError("waitany() needs at least one request")
        while True:
            for i, request in enumerate(requests):
                if request.done:
                    return i, request
            await self._next_completion()

    def test(self, request: Request) -> bool:  # repro: allow[AN107] — public MPI API
        """MPI_Test: one non-blocking progression step, then check."""
        if not request.done:
            self.rpi.poke()
        return request.done

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def iprobe(  # repro: allow[AN107] — public MPI API
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Optional[Status]:
        """Non-blocking probe of the unexpected-message table."""
        self.rpi.poke()
        return self._peek(source, tag)

    async def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Blocking probe."""

        def found() -> bool:  # each check pumps first, as iprobe does
            self.rpi.poke()
            return self._peek(source, tag) is not None

        await self.rpi.progress_until(found)
        return self._peek(source, tag)

    def _peek(self, source: int, tag: int) -> Optional[Status]:
        """The unexpected message a probe would report now, if any."""
        if source != ANY_SOURCE:
            if not 0 <= source < self.size:
                self._reject_peer(source)
            source = self.world_ranks[source]
        env = self.rpi.unexpected.peek_match(source, tag, self.context)
        if env is None:
            return None
        return Status(source=self.world_ranks.index(env.rank), tag=env.tag, length=env.length)

    # ------------------------------------------------------------------
    # collectives (implementations in collectives.py)
    # ------------------------------------------------------------------
    async def barrier(self) -> None:
        """MPI_Barrier."""
        from . import collectives

        await collectives.barrier(self)

    async def bcast(self, data: Any, root: int = 0) -> Any:
        """MPI_Bcast; returns the broadcast value on every rank."""
        from . import collectives

        return await collectives.bcast(self, data, root)

    async def reduce(self, value: Any, op=None, root: int = 0) -> Any:
        """MPI_Reduce; result on root, None elsewhere."""
        from . import collectives

        return await collectives.reduce(self, value, op, root)

    async def allreduce(self, value: Any, op=None) -> Any:
        """MPI_Allreduce."""
        from . import collectives

        return await collectives.allreduce(self, value, op)

    async def gather(self, value: Any, root: int = 0) -> Optional[List[Any]]:
        """MPI_Gather; list on root, None elsewhere."""
        from . import collectives

        return await collectives.gather(self, value, root)

    async def scatter(self, values: Optional[Sequence[Any]], root: int = 0) -> Any:
        """MPI_Scatter; ``values`` significant only on root."""
        from . import collectives

        return await collectives.scatter(self, values, root)

    async def allgather(self, value: Any) -> List[Any]:
        """MPI_Allgather."""
        from . import collectives

        return await collectives.allgather(self, value)

    async def alltoall(self, values: Sequence[Any]) -> List[Any]:
        """MPI_Alltoall (one item per destination rank)."""
        from . import collectives

        return await collectives.alltoall(self, values)

    async def scan(self, value: Any, op=None) -> Any:
        """MPI_Scan (inclusive prefix reduction)."""
        from . import collectives

        return await collectives.scan(self, value, op)

    async def sendrecv(  # repro: allow[AN107] — public MPI API
        self,
        senddata: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """MPI_Sendrecv: simultaneous, deadlock-free exchange."""
        send_req = self.isend(senddata, dest, sendtag)
        recv_req = self.irecv(source, recvtag)
        await self.waitall([send_req, recv_req])
        if status is not None:
            self._copy_status(recv_req, status)
        return recv_req.data

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    async def split(self, color: int, key: int = 0) -> Optional["Communicator"]:
        """MPI_Comm_split: partition by ``color``, order by ``(key, rank)``.

        Returns None for ``color < 0`` (MPI_UNDEFINED).  Must be called
        collectively.  The sub-communicator maps onto the same processes
        with a fresh context id and remapped ranks.
        """
        triples = await self.allgather((color, key, self.rank))
        child_cid = self._next_child_cid
        self._next_child_cid += 1
        if color < 0:
            return None
        members = sorted(
            (k, r) for c, k, r in triples if c == color
        )
        world_ranks = [r for _, r in members]
        return _SubCommunicator(self.process, child_cid, world_ranks)

    def dup(self) -> "Communicator":
        """Duplicate the communicator with a fresh context id.

        Must be called collectively (like MPI_Comm_dup); the deterministic
        numbering keeps contexts consistent across ranks.
        """
        child = Communicator(self.process, cid=self._next_child_cid)
        self._next_child_cid += 1
        return child

    def compute(self, seconds: float) -> Future:
        """Model ``seconds`` of application computation on this host's CPU."""
        return self.process.compute(seconds)

    def _copy_status(self, req: RecvRequest, status: Status) -> None:
        """Report a finished receive in ``status``, in this communicator's ranks."""
        matched = req.status
        status.source = self.world_ranks.index(matched.source)
        status.tag = matched.tag
        status.length = matched.length

    def _reject_peer(self, rank: int) -> None:
        """Raise for a peer rank a point-to-point call cannot address."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside communicator of size {self.size}")
        raise ValueError("self-sends are not supported by these RPIs")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator cid={self.cid} rank={self.rank}/{self.size}>"


class _SubCommunicator(Communicator):
    """A communicator over a subset of world ranks (from split())."""

    def __init__(self, process, cid: int, world_ranks) -> None:
        super().__init__(process, cid=cid)
        self.world_ranks = list(world_ranks)
        self.rank = self.world_ranks.index(process.rank)
        self.size = len(self.world_ranks)
        self._next_child_cid = cid * 64 + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SubCommunicator cid={self.cid} rank={self.rank}/{self.size} "
            f"world={self.world_ranks}>"
        )
