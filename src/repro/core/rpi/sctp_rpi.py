"""The paper's SCTP RPI: one-to-many socket, streams, Option B.

This is the module the paper contributes (§3).  Design points, each
mapped to the paper section it implements:

* **one socket, many associations** (§3.1/§3.3): a single one-to-many
  SCTP socket; associations are mapped to ranks via a HELLO envelope;
  no ``select()`` — the RPI simply tries ``sctp_recvmsg``/``sctp_sendmsg``
  and advances other requests on EAGAIN.  A refused ``sctp_sendmsg``
  costs no virtual time, so the simulator does not make the call: the
  pump reads each association's send room and passes over a queue head
  that cannot fit, before packing or slicing anything, and remembers the
  association as stalled until the transport reports room for the
  smallest head it refused (write readiness, DESIGN §9.4),
* **TRC -> stream mapping** (§3.2.1): messages hash (context, tag) onto a
  fixed pool of stream numbers (10 by default), so differently-tagged
  messages from the same peer are delivered independently —
  ``WorldConfig(num_streams=1)`` builds the single-stream ablation module
  of §4.2.2,
* **two-level demultiplexing** (§3.1): association id -> rank, then stream
  number -> per-stream receive state,
* **per-stream state** (§3.2.4): long bodies arrive as a series of SCTP
  messages on one stream; a (rank, stream) continuation record routes
  them to the right request — valid only because of
* **Option B** (§3.4.2): a second middleware message is never started on
  a (peer, stream) while another is still being written to it; each
  (rank, stream) has a FIFO queue and only the head transmits, while
  *other* streams/associations keep making progress,
* **long message re-fragmentation** (§3.4/§3.6): sctp_sendmsg can take at
  most a send-buffer-sized message, so the RPI splits long bodies into
  eager-limit-sized pieces on the same stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ...analyze.sanitize import option_b_sanitizer
from ...transport.sctp import OneToManySocket
from ...util.blobs import ChunkList
from ..constants import (
    FLAG_BARRIER_GO,
    FLAG_BARRIER_READY,
    FLAG_HELLO,
    FLAG_LONG_BODY,
    KIND_MASK,
    MPI_BASE_PORT,
)
from ..envelope import ENVELOPE_SIZE, Envelope, envelope_of, unpack_fields
from .base import BaseRPI


@dataclass(slots=True)
class _SctpOutUnit:
    """One middleware unit, transmitted as 1..N SCTP messages."""

    env: Envelope
    body: ChunkList
    next_size: int  # wire bytes of the next piece; 0 once the unit is out
    on_sent: Optional[Callable[[], None]] = None
    env_sent: bool = False
    body_offset: int = 0


class SCTPRPI(BaseRPI):
    """The paper's LAM-SCTP request progression module."""

    name = "sctp"

    def __init__(self, process) -> None:
        super().__init__(process)
        cfg = process.world.config
        if cfg.num_streams < 1:
            raise ValueError("need at least one stream")
        self.num_streams = cfg.num_streams
        self.endpoint = process.endpoint
        # the world's association config with this module's stream pool
        self.sctp_config = replace(
            cfg.sctp_config, n_out_streams=cfg.num_streams, n_in_streams=cfg.num_streams
        )
        # a long body goes out in eager-limit-sized pieces, each one
        # sctp_sendmsg, which takes at most a send buffer (§3.4)
        self._msg_limit = self.sctp_config.max_message_size
        if self.eager_limit + ENVELOPE_SIZE > self._msg_limit:
            raise ValueError("eager limit exceeds the sctp_sendmsg limit")
        self.sock: Optional[OneToManySocket] = None
        self._rank_by_assoc: Dict[int, int] = {}
        self._assoc_by_rank: Dict[int, int] = {}
        self._outq: Dict[Tuple[int, int], Deque[_SctpOutUnit]] = {}
        # write readiness: rank -> smallest next piece its send room refused
        # on the last walk (every head of that rank is bigger than the room,
        # until on_writable lifts it), and whether anything since that walk
        # (a unit queued, a rank bound, a stall lifted) may let one progress.
        # Freed send room is of use only then, or once it lifts a stall, so
        # the socket reports only that: ``sock.writable_wanted`` is set with
        # ``_walk_due`` and cleared after a walk, and each stall recorded
        # sets its association's need (``report_room_at``)
        self._stalled: Dict[int, int] = {}
        self._walk_due = False
        # (rank, stream) -> [seqnum, remaining_bytes] continuation state
        self._rx_cont: Dict[Tuple[int, int], List[int]] = {}
        self._barrier_ready = 0
        self._barrier_go = False
        # per-message hot path: prebind the middleware cost coefficients
        # (fixed for the host's lifetime) so _pump does integer
        # arithmetic instead of a cost-model call per socket op
        cm = self.host.cost_model
        self._mw_base_ns = cm.sctp_syscall_ns
        self._mw_per_kib_ns = cm.sctp_middleware_per_kib_ns
        self.set_control_sink(self._handle_control)
        # Option B non-interleaving sanitizer; None unless REPRO_SANITIZE on
        self._san_b = option_b_sanitizer()

    # ------------------------------------------------------------------
    # init / finalize
    # ------------------------------------------------------------------
    async def init(self) -> None:
        """Set up associations with every peer, then barrier (§3.4).

        One-to-many sockets need no accept(); the explicit barrier makes
        sure no rank starts sending before everyone's associations exist."""
        self.sock = OneToManySocket(self.endpoint, MPI_BASE_PORT, self.sctp_config)
        self.sock.on_readable = self.wake
        self.sock.on_writable = self._on_writable
        self.sock.on_assoc_up = self._on_assoc_up
        # a shutting-down or closed association stops refusing (sendmsg
        # raises instead): lift its stall so the next walk raises where
        # it always did, but wake nobody, as nothing did before
        self.sock.on_assoc_shutdown = self._unstall
        self.sock.on_assoc_down = lambda assoc_id, _error: self._unstall(assoc_id)

        for peer in range(self.rank + 1, self.size):
            assoc_id = await self.sock.connect(self.process.addr_of(peer), MPI_BASE_PORT)
            self._bind(assoc_id, peer)
            self.send_control(peer, FLAG_HELLO)

        # lower ranks connect to us; their HELLOs bind assoc -> rank
        await self.progress_until(lambda: len(self._assoc_by_rank) >= self.size - 1)

        # association-setup barrier (§3.4, final paragraph)
        if self.rank == 0:
            await self.progress_until(lambda: self._barrier_ready >= self.size - 1)
            for peer in range(1, self.size):
                self.send_control(peer, FLAG_BARRIER_GO)
            await self.progress_until(lambda: self.outstanding_output() == 0)
        else:
            self.send_control(0, FLAG_BARRIER_READY)
            await self.progress_until(lambda: self._barrier_go)

    def finalize(self) -> None:
        """Gracefully shut every association down."""
        if self.sock is not None:
            self.sock.close()

    def _bind(self, assoc_id: int, rank: int) -> None:
        self._rank_by_assoc[assoc_id] = rank
        self._assoc_by_rank[rank] = assoc_id
        self._walk_due = self.sock.writable_wanted = True

    def _on_assoc_up(self, _assoc_id: int) -> None:
        self._walk_due = self.sock.writable_wanted = True
        self.wake()

    def _on_writable(self, assoc_id: int) -> None:
        """Freed send room wakes the rank only when its pump can use it:
        the room now takes the rank's smallest stalled head, or a walk is
        already due (a stall lifted by a shutdown).  Any other wake finds
        nothing to send, and inbound data wakes through on_readable.  The
        socket calls this only then (a stall lifted by an enqueue or a
        shutdown may leave a need behind: a call that does nothing)."""
        stalled = self._stalled
        if stalled:
            rank = self._rank_by_assoc.get(assoc_id)
            need = stalled.get(rank)
            if need is not None and self.sock.send_room(assoc_id) >= need:
                del stalled[rank]
                self._walk_due = True
        if self._walk_due:
            self.wake()

    def _unstall(self, assoc_id: int) -> None:
        if self._stalled.pop(self._rank_by_assoc.get(assoc_id), None) is not None:
            self._walk_due = self.sock.writable_wanted = True

    def _handle_control(self, src_rank: int, env: Envelope) -> None:
        kind = env.flags & KIND_MASK
        if kind == FLAG_BARRIER_READY:
            self._barrier_ready += 1
        elif kind == FLAG_BARRIER_GO:
            self._barrier_go = True

    # ------------------------------------------------------------------
    # transport plumbing
    # ------------------------------------------------------------------
    def _enqueue_unit(self, dest, env, body, on_sent=None) -> None:
        # stream mapping (§3.2.1): a (context, tag) pair hashes onto the
        # fixed stream pool, so one TRC always travels one stream
        key = (dest, (env.context * 31 + env.tag) % self.num_streams)
        if body is None:
            body = ChunkList()
        nbytes = body.nbytes
        eager_limit = self.eager_limit
        unit = _SctpOutUnit(
            env, body, ENVELOPE_SIZE + (nbytes if nbytes < eager_limit else eager_limit), on_sent
        )
        try:
            self._outq[key].append(unit)
        except KeyError:  # the (rank, stream) pair's first unit
            self._outq[key] = deque((unit,))
        self._stalled.pop(dest, None)  # the new head may be smaller
        self._walk_due = True
        if self.sock is not None:  # (a unit queued before init finds none)
            self.sock.writable_wanted = True
        self.stats.units_sent += 1
        self.stats.bytes_sent += ENVELOPE_SIZE + nbytes

    def _pump(self) -> bool:
        progressed = False
        sock = self.sock
        # inbound: drain the one socket, calling recvmsg only while it has
        # a message to return (its inbox is non-empty: sock.readable, sans
        # the property call); a call that would return None costs nothing
        if sock is not None:
            inbox = sock.inbox
            while inbox:
                msg = sock.recvmsg()
                self.host.cpu.charge(
                    self._mw_base_ns + self._mw_per_kib_ns * msg.nbytes // 1024
                )
                self._dispatch(msg)
                progressed = True
        stalled = self._stalled
        if self._san is not None:
            self._san.expect_refused(
                stalled, lambda r: sock.send_room(self._assoc_by_rank[r]),
                f"rank {self.rank} pump",
            )
        if not self._walk_due:
            return progressed  # every queued head is stalled (or none is queued)
        # outbound: only the head of each (rank, stream) queue may write
        # (Option B).  A head whose next piece exceeds the association's
        # send room is exactly what sendmsg would refuse (EAGAIN): it is
        # passed over before anything is built, the rank is recorded as
        # stalled on the smallest such piece, and the other streams and
        # associations go on.  A rank stalled before this walk is passed
        # over without reading its room: none of its heads fits.  An
        # oversize piece is never passed over, so MessageTooBig surfaces.
        limit = self._msg_limit
        assoc_by_rank = self._assoc_by_rank
        room: Dict[int, int] = {}  # rank -> send room, read once per walk
        for (rank, stream), queue in self._outq.items():
            if not queue:
                continue
            assoc_id = assoc_by_rank.get(rank)
            if assoc_id is None:
                continue  # association still coming up (init)
            free = room.get(rank)
            if free is None:
                if rank in stalled:
                    continue
                free = room[rank] = sock.send_room(assoc_id)
            while queue:
                unit = queue[0]
                size = unit.next_size
                if free < size <= limit:
                    refused = True
                else:
                    # build the unit's next piece and hand it to sendmsg
                    body = unit.body
                    if unit.env_sent:
                        end = unit.body_offset + size
                        wire = body.slice(unit.body_offset, end)
                    else:
                        end = size - ENVELOPE_SIZE
                        if not end:
                            wire = ChunkList([unit.env.pack()])
                        else:
                            head = body if end == body.nbytes else body.slice(0, end)
                            wire = ChunkList([unit.env.pack(), *head.pieces])
                    # sendmsg stays the authority on EAGAIN; the admission
                    # test above is meant to agree with it, and the
                    # sanitizer checks that
                    refused = not sock.sendmsg(assoc_id, stream, wire)
                    if refused and self._san_b is not None:
                        self._san_b.on_admitted_piece_refused((assoc_id, stream), size)
                if refused:
                    if size < stalled.get(rank, limit + 1):
                        stalled[rank] = size
                        sock.report_room_at(assoc_id, size)
                    break
                self.host.cpu.charge(self._mw_base_ns + self._mw_per_kib_ns * size // 1024)
                unit.env_sent = True
                unit.body_offset = end
                left = body.nbytes - end
                unit.next_size = left if left < self.eager_limit else self.eager_limit
                if self._san_b is not None:
                    self._san_b.on_piece_sent((assoc_id, stream), unit, unit.next_size == 0)
                progressed = True
                free = room[rank] = sock.send_room(assoc_id)
                if unit.next_size == 0:
                    queue.popleft()
                    if unit.on_sent is not None:
                        unit.on_sent()
        # not before the walk: one that raises (a shut-down association)
        # is due again, so the next pump raises too, as it always did
        self._walk_due = sock.writable_wanted = False
        return progressed

    def _dispatch(self, msg) -> None:
        rank = self._rank_by_assoc.get(msg.assoc_id)
        key = (rank, msg.stream)
        cont = self._rx_cont.get(key)
        if cont is not None:
            # continuation piece of an in-progress long body (§3.2.4);
            # Option B guarantees nothing else can appear on this stream.
            seqnum, remaining = cont
            if msg.nbytes > remaining:
                raise RuntimeError(
                    f"rank {self.rank}: stream {key} continuation overflow"
                )
            cont[1] = remaining - msg.nbytes
            if cont[1] == 0:
                del self._rx_cont[key]
            self._on_body_piece(rank, seqnum, msg.data)
            return

        body = msg.data  # the socket handed the message over: take from it
        env = envelope_of(unpack_fields(body.take(ENVELOPE_SIZE).to_bytes()))
        kind = env.flags & KIND_MASK
        if rank is None:
            # first unit on an inbound association must identify the peer
            if kind != FLAG_HELLO:
                raise RuntimeError(
                    f"rank {self.rank}: first unit on assoc {msg.assoc_id} "
                    f"must be HELLO, got {env!r}"
                )
            self._bind(msg.assoc_id, env.rank)
            rank = env.rank
        if kind == FLAG_LONG_BODY and env.length > body.nbytes:
            self._rx_cont[(rank, msg.stream)] = [env.seqnum, env.length - body.nbytes]
        self._on_unit(rank, env, body)

    def outstanding_output(self) -> int:
        """Bytes still queued toward peers (diagnostics)."""
        total = 0
        for queue in self._outq.values():
            for unit in queue:
                total += unit.body.nbytes - unit.body_offset
                if not unit.env_sent:
                    total += ENVELOPE_SIZE
        return total
