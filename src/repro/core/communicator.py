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
        self._next_child_cid = cid * 64 + 1  # deterministic dup() numbering

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def isend(self, data: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking standard send (eager or rendezvous by size)."""
        return self._isend(data, dest, tag, synchronous=False)

    def issend(self, data: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking synchronous send (completes only when matched)."""
        return self._isend(data, dest, tag, synchronous=True)

    def _isend(self, data: Any, dest: int, tag: int, synchronous: bool) -> Request:
        self._check_peer(dest)
        self._check_tag(tag)
        body, extra = encode_payload(data)
        rpi = self.rpi
        req = SendRequest(
            rpi, self._to_world(dest), tag, pt2pt_context(self.cid), body,
            extra, synchronous, rpi.next_seq(),
        )
        rpi.start_send(req)
        return req

    async def send(self, data: Any, dest: int, tag: int = 0) -> None:
        """Blocking standard send."""
        # wait(), inline in send/recv: no coroutine for a finished request
        request = self.isend(data, dest, tag)
        if not request.done:
            await self.rpi.progress_until(lambda: request.done)
        if request.error is not None:
            raise request.error

    async def ssend(self, data: Any, dest: int, tag: int = 0) -> None:
        """Blocking synchronous send."""
        await self.wait(self.issend(data, dest, tag))

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; wildcards allowed."""
        if source != ANY_SOURCE:
            self._check_peer(source)
            source = self._to_world(source)
        req = RecvRequest(self.rpi, source, tag, pt2pt_context(self.cid))
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
        if req.error is not None:
            raise req.error
        if status is not None:
            status.source = self._from_world(req.status.source)
            status.tag = req.status.tag
            status.length = req.status.length
        return req.data

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    async def wait(self, request: Request) -> Request:
        """Progress the middleware until ``request`` completes."""
        if not request.done:
            await self.rpi.progress_until(lambda: request.done)
        if request.error is not None:
            raise request.error
        return request

    async def _next_completion(self) -> None:
        """Progress until some request of this rank completes or fails.

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
        for request in requests:
            if request.error is not None:
                raise request.error
        return list(requests)

    async def waitany(self, requests: Sequence[Request]) -> Tuple[int, Request]:
        """MPI_Waitany: index and request of the first completion."""
        if not requests:
            raise ValueError("waitany() needs at least one request")
        while True:
            for i, request in enumerate(requests):
                if request.done:
                    if request.error is not None:
                        raise request.error
                    return i, request
            await self._next_completion()

    def test(self, request: Request) -> bool:
        """MPI_Test: one non-blocking progression step, then check."""
        if not request.done:
            self.rpi.poke()
        return request.done

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
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
            source = self._to_world(source)
        env = self.rpi.unexpected.peek_match(source, tag, pt2pt_context(self.cid))
        if env is None:
            return None
        return Status(source=self._from_world(env.rank), tag=env.tag, length=env.length)

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

    async def sendrecv(
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
            status.source = self._from_world(recv_req.status.source)
            status.tag = recv_req.status.tag
            status.length = recv_req.status.length
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

    def _to_world(self, local_rank: int) -> int:
        """Translate this communicator's rank numbering to world ranks."""
        return local_rank

    def _from_world(self, world_rank: int) -> int:
        """Inverse of :meth:`_to_world`."""
        return world_rank

    def _check_peer(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside communicator of size {self.size}")
        if rank == self.rank:
            raise ValueError("self-sends are not supported by these RPIs")

    @staticmethod
    def _check_tag(tag: int) -> None:
        if tag < 0:
            raise ValueError(f"send tags must be non-negative, got {tag}")

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

    def _to_world(self, local_rank: int) -> int:
        return self.world_ranks[local_rank]

    def _from_world(self, world_rank: int) -> int:
        return self.world_ranks.index(world_rank)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SubCommunicator cid={self.cid} rank={self.rank}/{self.size} "
            f"world={self.world_ranks}>"
        )
