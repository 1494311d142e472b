"""Transport-independent request progression engine.

Implements LAM's message delivery protocol (§2.2.2) once, for both RPIs:

* **short** (≤ 64 KiB): eager send — envelope + body travel immediately;
  the send completes when the transport has taken the last byte,
* **long**: rendezvous — envelope only; the receiver answers with an ACK
  once a matching receive is posted; the sender then ships a second
  envelope followed by the body,
* **synchronous short**: eager body, but completion requires the
  receiver's ACK (sent when the message is *matched*, not merely buffered),
* unexpected messages go to the hash table; every newly posted receive
  checks that table first.

Concrete RPIs supply transport plumbing: ``_enqueue_unit`` to queue one
middleware unit (envelope + optional body) toward a rank, ``_pump`` to
move queued/inbound data, and ``_must_block`` to decide whether an idle
step blocks: False consumes a pending :meth:`~BaseRPI.wake` (or, on TCP,
a ``select()`` that found something ready).  A blocked rank resumes only
once what it waits for is done (:meth:`~BaseRPI.progress_until`).
Inbound traffic re-enters through :meth:`_on_unit` / :meth:`_on_body_piece`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional, Tuple

from ...analyze.sanitize import rpi_sanitizer
from ...simkernel import Future
from ...util.blobs import ChunkList
from ..constants import (
    EAGER_LIMIT,
    FLAG_BARRIER_GO,
    FLAG_BARRIER_READY,
    FLAG_HELLO,
    FLAG_LONG_ACK,
    FLAG_LONG_BODY,
    FLAG_LONG_RNDV,
    FLAG_SHORT,
    FLAG_SSEND,
    FLAG_SSEND_ACK,
)
from ..envelope import Envelope
from ..matching import PostedReceiveQueue, UnexpectedMessageTable
from ..payload import decode_payload
from ..request import (
    RecvRequest,
    S_RECV_BODY,
    S_RECV_POSTED,
    S_RNDV_WAIT_ACK,
    S_SENDING,
    S_SSEND_WAIT_ACK,
    SendRequest,
)


@dataclass
class RPIStats:
    """Progression-engine counters (tests + benchmark diagnostics)."""

    eager_sends: int = 0
    rendezvous_sends: int = 0
    ssends: int = 0
    unexpected_messages: int = 0
    expected_messages: int = 0
    units_sent: int = 0
    units_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    advance_calls: int = 0


RPI_STAT_FIELDS = tuple(f.name for f in fields(RPIStats))


class BaseRPI:
    """Shared protocol engine; subclass per transport."""

    name = "base"

    def __init__(self, process, eager_limit: int = EAGER_LIMIT) -> None:
        self.process = process
        self.kernel = process.kernel
        self.host = process.host
        self.rank = process.rank
        self.size = process.size
        self.eager_limit = eager_limit
        self.stats = RPIStats()

        self.posted = PostedReceiveQueue()
        self.unexpected = UnexpectedMessageTable()
        # sends parked waiting for a peer ACK, keyed by our seqnum
        self._sends_awaiting_ack: Dict[int, SendRequest] = {}
        # receives whose long body is arriving, keyed by (src, seqnum)
        self._recvs_awaiting_body: Dict[Tuple[int, int], RecvRequest] = {}
        self._seq = 0
        self._request_ids = 0
        # requests of this rank completed or failed so far; the waiters in
        # Communicator rescan their lists only when this has moved
        self.completions = 0
        # a blocked progress_until's future and predicate: wake() steps on
        # its behalf and resolves the future only once the predicate holds;
        # with no rank blocked, wake() sets _woken for the next idle step
        # (level-triggered)
        self._waiter: Optional[Future] = None
        self._until: Optional[Callable[[], bool]] = None
        self._woken = False
        self._waiter_name = f"rpi-wake-{self.rank}"
        # init-time control hook (world install: hello/barrier bookkeeping)
        self._control_sink: Optional[Callable[[int, Envelope], None]] = None
        # rendezvous state-machine sanitizer; None unless REPRO_SANITIZE is on
        self._san = rpi_sanitizer()

        # metrics: pull probes over the stats dataclass plus the matching
        # structures whose depth explains buffering behaviour (§2.2.2)
        scope = self.kernel.metrics.scope(f"rpi.{self.name}.rank{self.rank}")
        for name in RPI_STAT_FIELDS:
            scope.probe(name, lambda n=name: getattr(self.stats, n))
        scope.probe("unexpected_depth", lambda: len(self.unexpected))
        scope.probe(
            "unexpected_buffered_bytes", lambda: self.unexpected.buffered_bytes
        )
        scope.probe(
            "unexpected_max_buffered_bytes",
            lambda: self.unexpected.max_buffered_bytes,
        )
        scope.probe("posted_receives", lambda: len(self.posted))
        scope.probe("sends_awaiting_ack", lambda: len(self._sends_awaiting_ack))
        scope.probe("recvs_awaiting_body", lambda: len(self._recvs_awaiting_body))

    # ------------------------------------------------------------------
    # abstract transport interface
    # ------------------------------------------------------------------
    async def init(self) -> None:
        """Establish connectivity with every peer (MPI_Init's job)."""
        raise NotImplementedError

    def finalize(self) -> None:
        """Tear connections down (MPI_Finalize's job)."""
        raise NotImplementedError

    def _enqueue_unit(
        self,
        dest: int,
        env: Envelope,
        body: Optional[ChunkList],
        on_sent: Optional[Callable[[], None]] = None,
    ) -> None:
        """Queue one middleware unit toward ``dest``; transport-specific."""
        raise NotImplementedError

    def _pump(self) -> bool:
        """Move queued/inbound data without blocking; True if progressed."""
        raise NotImplementedError

    def _must_block(self) -> bool:
        """Whether an idle step blocks; False consumes a pending wake."""
        if self._woken:
            self._woken = False
            return False
        return True

    # ------------------------------------------------------------------
    # progression entry points used by the Communicator
    # ------------------------------------------------------------------
    def next_seq(self) -> int:
        """Sender-unique sequence number for ACK/body pairing."""
        self._seq += 1
        return self._seq

    def next_request_id(self) -> int:
        """Request ids restart at 1 per rank per world."""
        self._request_ids += 1
        return self._request_ids

    def poke(self) -> bool:
        """One non-blocking progression step (MPI_Test's pump)."""
        return self._pump()

    async def progress_until(self, done: Callable[[], bool]) -> None:
        """Progress until ``done()`` holds: the one way a rank blocks.

        Each step counts one ``advance_calls``, pumps, and when idle
        either pumps again (a wake was pending, or ``select()`` found
        something ready) or blocks.  A blocked rank's steps then run
        inside :meth:`wake`, at the instant and in the order they ran
        when every wake resumed the rank, and the rank resumes only once
        ``done()`` holds, or with the exception a pump raised."""
        if self._steps(done):
            return
        self._until = done
        self._waiter = waiter = Future(self._waiter_name)
        try:
            resumed = await waiter
        finally:
            self._until = None
        if self._san is not None:
            self._san.expect_resumed_done(resumed, f"rank {self.rank}")

    def _steps(self, done: Callable[[], bool]) -> bool:
        """Run progression steps until ``done()`` (True) or one must
        block (False)."""
        pump = self._pump
        stats = self.stats
        while not done():
            stats.advance_calls += 1
            if pump():
                continue
            if self._must_block():
                return False
            pump()
        return True

    def wake(self) -> None:
        """Release a blocked :meth:`progress_until` (transport callbacks).

        The blocked rank's post-wake pump and further steps run here; a
        step that must block again keeps the same future armed, so the
        rank resumes only when what it waits for is done.  A wake that
        arrives while no rank is blocked is not lost: the next step that
        would block pumps again instead."""
        waiter = self._waiter
        if waiter is None:
            self._woken = True
            return
        self._waiter = None
        done = self._until
        if done is None:  # its rank was cancelled while blocked
            waiter.set_result(None)
            return
        try:
            self._pump()
            if not self._steps(done):
                self._waiter = waiter  # still blocked: the same wait goes on
                return
        except Exception as exc:  # surfaces at the rank's await
            waiter.set_exception(exc)
            return
        waiter.set_result(True)

    # ------------------------------------------------------------------
    # send side
    # ------------------------------------------------------------------
    def start_send(self, req: SendRequest) -> None:
        """Begin progressing a send request (isend)."""
        nbytes = req.body.nbytes
        if req.synchronous and nbytes <= self.eager_limit:
            self.stats.ssends += 1
            env = Envelope(
                nbytes, req.tag, req.context, self.rank,
                FLAG_SSEND | req.flags_extra, req.seqnum,
            )
            req.state = S_SSEND_WAIT_ACK
            self._sends_awaiting_ack[req.seqnum] = req
            self._enqueue_unit(req.dest, env, req.body)
        elif nbytes <= self.eager_limit:
            self.stats.eager_sends += 1
            env = Envelope(
                nbytes, req.tag, req.context, self.rank,
                FLAG_SHORT | req.flags_extra, req.seqnum,
            )
            req.state = S_SENDING
            self._enqueue_unit(req.dest, env, req.body, on_sent=req.complete)
        else:
            self.stats.rendezvous_sends += 1
            env = Envelope(
                nbytes, req.tag, req.context, self.rank,
                FLAG_LONG_RNDV | req.flags_extra, req.seqnum,
            )
            req.state = S_RNDV_WAIT_ACK
            self._sends_awaiting_ack[req.seqnum] = req
            self._enqueue_unit(req.dest, env, None)
        self._pump()

    def _start_long_body(self, req: SendRequest) -> None:
        env = Envelope(
            req.body.nbytes, req.tag, req.context, self.rank,
            FLAG_LONG_BODY | req.flags_extra, req.seqnum,
        )
        req.state = S_SENDING
        self._enqueue_unit(req.dest, env, req.body, on_sent=req.complete)

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------
    def post_recv(self, req: RecvRequest) -> None:
        """Post a receive; checks the unexpected table first (§2.2.2)."""
        req.state = S_RECV_POSTED
        msg = self.unexpected.match_and_remove(req)
        if msg is None:
            self.posted.add(req)
            self._pump()
            return
        env = msg.envelope
        kind = env.kind()
        if kind == FLAG_SHORT:
            self._deliver_complete(req, env, msg.body)
        elif kind == FLAG_SSEND:
            self._deliver_complete(req, env, msg.body)
            self._send_ack(env, FLAG_SSEND_ACK)
        elif kind == FLAG_LONG_RNDV:
            self._accept_rendezvous(req, env)
        else:  # pragma: no cover - table only ever holds the kinds above
            raise AssertionError(f"unexpected kind {kind:#x} in table")

    def _accept_rendezvous(self, req: RecvRequest, env: Envelope) -> None:
        if self._san is not None:
            self._san.expect_state(req, S_RECV_POSTED, "LONG_RNDV envelope")
        req.state = S_RECV_BODY
        req.body = ChunkList()
        req.expected_length = env.length
        req.body_flags = env.flags
        req.matched_source = env.rank
        req.matched_seqnum = env.seqnum
        self._recvs_awaiting_body[(env.rank, env.seqnum)] = req
        self._send_ack(env, FLAG_LONG_ACK)

    def _send_ack(self, env: Envelope, ack_kind: int) -> None:
        """ACKs echo the sender's tag/context/seqnum so it can pair them;
        they travel the same TRC (hence the same SCTP stream)."""
        ack = Envelope(0, env.tag, env.context, self.rank, ack_kind, env.seqnum)
        self._enqueue_unit(env.rank, ack, None)

    def _deliver_complete(
        self, req: RecvRequest, env: Envelope, body: Optional[ChunkList]
    ) -> None:
        req.status.source = env.rank
        req.status.tag = env.tag
        req.status.length = env.length
        data = decode_payload(body if body is not None else ChunkList(), env.flags)
        req.complete(data)

    # ------------------------------------------------------------------
    # inbound units (called by transport subclasses)
    # ------------------------------------------------------------------
    def _on_unit(self, src_rank: int, env: Envelope, body: ChunkList) -> None:
        """Process one inbound middleware unit."""
        self.stats.units_received += 1
        self.stats.bytes_received += body.nbytes
        kind = env.kind()
        if kind in (FLAG_HELLO, FLAG_BARRIER_READY, FLAG_BARRIER_GO):
            if self._control_sink is not None:
                self._control_sink(src_rank, env)
            return
        if kind == FLAG_SHORT:
            self._on_eager(env, body, synchronous=False)
        elif kind == FLAG_SSEND:
            self._on_eager(env, body, synchronous=True)
        elif kind == FLAG_LONG_RNDV:
            req = self.posted.match_and_remove(env)
            if req is None:
                self.stats.unexpected_messages += 1
                self.unexpected.add(env, None)
            else:
                self.stats.expected_messages += 1
                self._accept_rendezvous(req, env)
        elif kind == FLAG_LONG_ACK:
            req = self._sends_awaiting_ack.pop(env.seqnum, None)
            if req is not None:
                if self._san is not None:
                    self._san.expect_state(req, S_RNDV_WAIT_ACK, "LONG_ACK")
                self._start_long_body(req)
        elif kind == FLAG_SSEND_ACK:
            req = self._sends_awaiting_ack.pop(env.seqnum, None)
            if req is not None:
                if self._san is not None:
                    self._san.expect_state(req, S_SSEND_WAIT_ACK, "SSEND_ACK")
                req.complete()
        elif kind == FLAG_LONG_BODY:
            key = (env.rank, env.seqnum)
            req = self._recvs_awaiting_body.get(key)
            if req is None:
                raise RuntimeError(
                    f"rank {self.rank}: LONG_BODY for unknown rendezvous {key}"
                )
            self._append_body(key, req, body)
        else:
            raise RuntimeError(f"rank {self.rank}: bad envelope kind {kind:#x}")

    def _on_eager(self, env: Envelope, body: ChunkList, synchronous: bool) -> None:
        req = self.posted.match_and_remove(env)
        if req is None:
            self.stats.unexpected_messages += 1
            self.unexpected.add(env, body)
            return  # ssend ACK waits until the message is matched
        self.stats.expected_messages += 1
        self._deliver_complete(req, env, body)
        if synchronous:
            self._send_ack(env, FLAG_SSEND_ACK)

    def _on_body_piece(self, src_rank: int, seqnum: int, piece: ChunkList) -> None:
        """Continuation of a long body (no envelope; SCTP RPI streaming)."""
        key = (src_rank, seqnum)
        req = self._recvs_awaiting_body.get(key)
        if req is None:
            raise RuntimeError(
                f"rank {self.rank}: body piece for unknown rendezvous {key}"
            )
        self.stats.bytes_received += piece.nbytes
        self._append_body(key, req, piece)

    def _append_body(
        self, key: Tuple[int, int], req: RecvRequest, piece: ChunkList
    ) -> None:
        if self._san is not None:
            self._san.expect_state(req, S_RECV_BODY, "body piece")
        req.body.extend(piece)
        if req.body.nbytes > req.expected_length:
            raise RuntimeError(
                f"rank {self.rank}: long body overflow "
                f"({req.body.nbytes} > {req.expected_length})"
            )
        if req.body.nbytes == req.expected_length:
            del self._recvs_awaiting_body[key]
            req.status.length = req.expected_length
            req.complete(decode_payload(req.body, req.body_flags))

    # -- init-time helpers ----------------------------------------------------
    def set_control_sink(self, sink: Optional[Callable[[int, Envelope], None]]) -> None:
        """Install the HELLO/BARRIER handler used during MPI_Init."""
        self._control_sink = sink

    def send_control(self, dest: int, kind: int) -> None:
        """Send a zero-length control envelope (hello/barrier)."""
        env = Envelope(0, 0, 0, self.rank, kind, self.next_seq())
        self._enqueue_unit(dest, env, None)
        self._pump()
