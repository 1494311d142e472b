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
  ``num_streams=1`` builds the single-stream ablation module of §4.2.2,
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
    MPI_BASE_PORT,
)
from ..envelope import ENVELOPE_SIZE, Envelope
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

    def __init__(
        self,
        process,
        num_streams: int = 10,
        eager_limit=None,
        long_piece_size: Optional[int] = None,
        port: int = MPI_BASE_PORT,
        interleaving: bool = False,
        scheduler: str = "fcfs",
    ) -> None:
        super().__init__(process, **({} if eager_limit is None else {"eager_limit": eager_limit}))
        if num_streams < 1:
            raise ValueError("need at least one stream")
        self.num_streams = num_streams
        # pieces of a long body per sctp_sendmsg; must not exceed the
        # send buffer (the sctp_sendmsg limit, §3.4)
        self.long_piece_size = long_piece_size or self.eager_limit
        self.port = port
        self.endpoint = process.sctp_endpoint
        # the world's association config with this module's stream pool
        # and its RFC 8260 interleaving + stream-scheduler options
        self.sctp_config = replace(
            process.world.sctp_config,
            interleaving=interleaving,
            scheduler=scheduler,
            n_out_streams=num_streams,
            n_in_streams=num_streams,
        )
        self._msg_limit = self.sctp_config.max_message_size
        if self.long_piece_size + ENVELOPE_SIZE > self._msg_limit:
            raise ValueError("long piece size exceeds the sctp_sendmsg limit")
        self.sock: Optional[OneToManySocket] = None
        self._rank_by_assoc: Dict[int, int] = {}
        self._assoc_by_rank: Dict[int, int] = {}
        self._outq: Dict[Tuple[int, int], Deque[_SctpOutUnit]] = {}
        # write readiness: rank -> smallest next piece its send room refused
        # on the last walk (every head of that rank is bigger than the room,
        # until on_writable lifts it), and whether anything since that walk
        # (a unit queued, a rank bound, a stall lifted) may let one progress
        self._stalled: Dict[int, int] = {}
        self._walk_due = False
        # (rank, stream) -> [seqnum, remaining_bytes] continuation state
        self._rx_cont: Dict[Tuple[int, int], List[int]] = {}
        self._barrier_ready = 0
        self._barrier_go = False
        # per-message hot path: prebind the middleware cost coefficients
        # (fixed for the host's lifetime) so _pump/_transmit_some do
        # integer arithmetic instead of a cost-model call per socket op
        cm = self.host.cost_model
        self._mw_base_ns = cm.sctp_syscall_ns
        self._mw_per_kib_ns = cm.sctp_middleware_per_kib_ns
        self.set_control_sink(self._handle_control)
        # Option B non-interleaving sanitizer; None unless REPRO_SANITIZE on
        self._san_b = option_b_sanitizer()

    # ------------------------------------------------------------------
    # stream mapping (§3.2.1)
    # ------------------------------------------------------------------
    def stream_for(self, context: int, tag: int) -> int:
        """Map a (context, tag) pair onto the fixed stream pool."""
        return (context * 31 + tag) % self.num_streams

    # ------------------------------------------------------------------
    # init / finalize
    # ------------------------------------------------------------------
    async def init(self) -> None:
        """Set up associations with every peer, then barrier (§3.4).

        One-to-many sockets need no accept(); the explicit barrier makes
        sure no rank starts sending before everyone's associations exist."""
        self.sock = OneToManySocket(self.endpoint, self.port, self.sctp_config)
        self.sock.on_readable = self.wake
        self.sock.on_writable = self._on_writable
        self.sock.on_assoc_up = self._on_assoc_up
        # a shutting-down or closed association stops refusing (sendmsg
        # raises instead): lift its stall so the next walk raises where
        # it always did, but wake nobody, as nothing did before
        self.sock.on_assoc_shutdown = self._unstall
        self.sock.on_assoc_down = lambda assoc_id, _error: self._unstall(assoc_id)

        for peer in range(self.rank + 1, self.size):
            assoc_id = await self.sock.connect(self.process.addr_of(peer), self.port)
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
        self._walk_due = True

    def _on_assoc_up(self, _assoc_id: int) -> None:
        self._walk_due = True
        self.wake()

    def _on_writable(self, assoc_id: int) -> None:
        """Freed send room wakes the rank only when its pump can use it:
        the room now takes the rank's smallest stalled head, or a walk is
        already due (a stall lifted by a shutdown).  Any other wake finds
        nothing to send, and inbound data wakes through on_readable."""
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
            self._walk_due = True

    def _handle_control(self, src_rank: int, env: Envelope) -> None:
        kind = env.kind()
        if kind == FLAG_BARRIER_READY:
            self._barrier_ready += 1
        elif kind == FLAG_BARRIER_GO:
            self._barrier_go = True

    # ------------------------------------------------------------------
    # transport plumbing
    # ------------------------------------------------------------------
    def _enqueue_unit(self, dest, env, body, on_sent=None) -> None:
        stream = self.stream_for(env.context, env.tag)
        if body is None:
            body = ChunkList()
        first = ENVELOPE_SIZE + min(self.long_piece_size, body.nbytes)
        self._outq.setdefault((dest, stream), deque()).append(
            _SctpOutUnit(env, body, first, on_sent)
        )
        self._stalled.pop(dest, None)  # the new head may be smaller
        self._walk_due = True
        self.stats.units_sent += 1
        self.stats.bytes_sent += ENVELOPE_SIZE + body.nbytes

    def _pump(self) -> bool:
        progressed = False
        sock = self.sock
        # inbound: drain the one socket
        while True:
            msg = sock.recvmsg() if sock is not None else None
            if msg is None:
                break
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
                if free < size <= limit or not self._send_piece(assoc_id, stream, unit):
                    if size < stalled.get(rank, limit + 1):
                        stalled[rank] = size
                    break
                progressed = True
                free = room[rank] = sock.send_room(assoc_id)
                if unit.next_size == 0:
                    queue.popleft()
                    if unit.on_sent is not None:
                        unit.on_sent()
        # not before the walk: one that raises (a shut-down association)
        # is due again, so the next pump raises too, as it always did
        self._walk_due = False
        return progressed

    def _send_piece(self, assoc_id: int, stream: int, unit: _SctpOutUnit) -> bool:
        """Build the unit's next piece and hand it to sendmsg."""
        size = unit.next_size
        if unit.env_sent:
            end = unit.body_offset + size
            wire = unit.body.slice(unit.body_offset, end)
        else:
            end = size - ENVELOPE_SIZE
            wire = ChunkList([unit.env.pack()])
            if end:
                body = unit.body
                wire.extend(body if end == body.nbytes else body.slice(0, end))
        if not self.sock.sendmsg(assoc_id, stream, wire):
            # sendmsg stays the authority on EAGAIN; _pump's admission
            # test is meant to agree with it and the sanitizer checks that
            if self._san_b is not None:
                self._san_b.on_admitted_piece_refused((assoc_id, stream), size)
            return False
        self.host.cpu.charge(self._mw_base_ns + self._mw_per_kib_ns * size // 1024)
        unit.env_sent = True
        unit.body_offset = end
        unit.next_size = min(self.long_piece_size, unit.body.nbytes - end)
        if self._san_b is not None:
            self._san_b.on_piece_sent((assoc_id, stream), unit, unit.next_size == 0)
        return True

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
        env = Envelope.unpack(body.take(ENVELOPE_SIZE).to_bytes())
        if rank is None:
            # first unit on an inbound association must identify the peer
            if env.kind() != FLAG_HELLO:
                raise RuntimeError(
                    f"rank {self.rank}: first unit on assoc {msg.assoc_id} "
                    f"must be HELLO, got {env!r}"
                )
            self._bind(msg.assoc_id, env.rank)
            rank = env.rank
        if env.kind() == FLAG_LONG_BODY and env.length > body.nbytes:
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
