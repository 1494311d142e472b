"""Collectives built on point-to-point, LAM-style (§2.2.2 last line).

Binomial trees for bcast/reduce/barrier, linear fan-in/out for
gather/scatter, pairwise non-blocking exchange for alltoall.  Collective
traffic uses the communicator's *collective* context, so it can never
match user point-to-point receives, and relies on MPI's rule that
collectives are invoked in the same order on every rank.
"""

from __future__ import annotations

import operator
from typing import Any, List, Optional, Sequence

from .constants import collective_context
from .payload import encode_payload
from .request import RecvRequest, SendRequest

# per-operation tags inside the collective context
TAG_BARRIER = 1
TAG_BCAST = 2
TAG_REDUCE = 3
TAG_GATHER = 4
TAG_SCATTER = 5
TAG_ALLGATHER = 6
TAG_ALLTOALL = 7
TAG_SCAN = 8


def _coll_isend(comm, data: Any, dest: int, tag: int) -> SendRequest:
    body, extra = encode_payload(data)
    req = SendRequest(
        rpi=comm.rpi,
        dest=comm.world_ranks[dest],
        tag=tag,
        context=collective_context(comm.cid),
        body=body,
        flags_extra=extra,
        synchronous=False,
    )
    comm.rpi.start_send(req)
    return req


def _coll_irecv(comm, source: int, tag: int) -> RecvRequest:
    req = RecvRequest(
        rpi=comm.rpi,
        source=comm.world_ranks[source],
        tag=tag,
        context=collective_context(comm.cid),
    )
    comm.rpi.post_recv(req)
    return req


async def _coll_send(comm, data: Any, dest: int, tag: int) -> None:
    await comm.wait(_coll_isend(comm, data, dest, tag))


async def _coll_recv(comm, source: int, tag: int) -> Any:
    req = _coll_irecv(comm, source, tag)
    await comm.wait(req)
    return req.data


async def bcast(comm, data: Any, root: int = 0) -> Any:
    """Binomial-tree broadcast; returns the value on every rank."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return data
    relative = (rank - root) % size
    mask = 1
    while mask < size:
        if relative & mask:
            src = (rank - mask) % size
            data = await _coll_recv(comm, src, TAG_BCAST)
            break
        mask <<= 1
    mask >>= 1
    pending = []
    while mask > 0:
        if relative + mask < size:
            dst = (rank + mask) % size
            pending.append(_coll_isend(comm, data, dst, TAG_BCAST))
        mask >>= 1
    await comm.waitall(pending)
    return data


async def reduce(comm, value: Any, op=None, root: int = 0) -> Any:
    """Binomial-tree reduction; result on root, None elsewhere.

    ``op`` must be commutative+associative (default: ``operator.add``).
    """
    op = op or operator.add
    size, rank = comm.size, comm.rank
    if size == 1:
        return value
    relative = (rank - root) % size
    acc = value
    mask = 1
    while mask < size:
        if relative & mask:
            dst = (rank - mask) % size
            await _coll_send(comm, acc, dst, TAG_REDUCE)
            return None
        partner = relative | mask
        if partner < size:
            src = (rank + mask) % size
            acc = op(acc, await _coll_recv(comm, src, TAG_REDUCE))
        mask <<= 1
    return acc


async def allreduce(comm, value: Any, op=None) -> Any:
    """Reduce to rank 0, then broadcast (LAM's default algorithm)."""
    total = await reduce(comm, value, op, root=0)
    return await bcast(comm, total, root=0)


async def barrier(comm) -> None:
    """Fan-in to rank 0, fan-out — a barrier is an allreduce of nothing."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    children: List[int] = []
    parent = None
    mask = 1
    while mask < size:
        if rank & mask:
            parent = rank - mask
            await _coll_send(comm, None, parent, TAG_BARRIER)
            break
        partner = rank | mask
        if partner < size:
            await _coll_recv(comm, partner, TAG_BARRIER)
            children.append(partner)
        mask <<= 1
    if parent is not None:
        await _coll_recv(comm, parent, TAG_BARRIER)
    for child in reversed(children):
        await _coll_send(comm, None, child, TAG_BARRIER)


async def gather(comm, value: Any, root: int = 0) -> Optional[List[Any]]:
    """Linear gather to root."""
    size, rank = comm.size, comm.rank
    if rank != root:
        await _coll_send(comm, value, root, TAG_GATHER)
        return None
    out: List[Any] = [None] * size
    out[rank] = value
    requests = {
        src: _coll_irecv(comm, src, TAG_GATHER) for src in range(size) if src != root
    }
    await comm.waitall(list(requests.values()))
    for src, req in requests.items():
        out[src] = req.data
    return out


async def scatter(comm, values: Optional[Sequence[Any]], root: int = 0) -> Any:
    """Linear scatter from root."""
    size, rank = comm.size, comm.rank
    if rank == root:
        if values is None or len(values) != size:
            raise ValueError(f"scatter root needs exactly {size} values")
        pending = [
            _coll_isend(comm, values[dst], dst, TAG_SCATTER)
            for dst in range(size)
            if dst != root
        ]
        await comm.waitall(pending)
        return values[rank]
    return await _coll_recv(comm, root, TAG_SCATTER)


async def allgather(comm, value: Any) -> List[Any]:
    """Gather to rank 0, then broadcast the list."""
    gathered = await gather(comm, value, root=0)
    return await bcast(comm, gathered, root=0)


async def alltoall(comm, values: Sequence[Any]) -> List[Any]:
    """Pairwise non-blocking exchange (one item per destination)."""
    size, rank = comm.size, comm.rank
    if len(values) != size:
        raise ValueError(f"alltoall needs exactly {size} values")
    out: List[Any] = [None] * size
    out[rank] = values[rank]
    recvs = {
        src: _coll_irecv(comm, src, TAG_ALLTOALL) for src in range(size) if src != rank
    }
    sends = [
        _coll_isend(comm, values[dst], dst, TAG_ALLTOALL)
        for dst in range(size)
        if dst != rank
    ]
    await comm.waitall(list(recvs.values()) + sends)
    for src, req in recvs.items():
        out[src] = req.data
    return out


async def scan(comm, value: Any, op=None) -> Any:
    """Inclusive prefix reduction, linear pipeline."""
    op = op or operator.add
    acc = value
    if comm.rank > 0:
        prev = await _coll_recv(comm, comm.rank - 1, TAG_SCAN)
        acc = op(prev, value)
    if comm.rank < comm.size - 1:
        await _coll_send(comm, acc, comm.rank + 1, TAG_SCAN)
    return acc
