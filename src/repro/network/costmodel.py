"""Host CPU cost model.

The paper's no-loss ping-pong result (Fig. 8) — TCP faster below ~22 KiB,
SCTP faster above — is a *host CPU* effect, not a wire effect: both
protocols share the same gigabit link.  The paper attributes the gap to the
young KAME SCTP stack's higher per-operation cost (bundling logic, §3.6) on
one side, and on the other to LAM-TCP middleware costs that scale with
bytes and sockets (boundary scanning in a byte stream, ``select()`` over N
descriptors, an extra copy) which SCTP's message framing and one-to-many
socket avoid.

We model those explicitly.  All values are nanoseconds (fixed) or
nanoseconds-per-KiB (size-dependent); they are calibrated so that the
simulated crossover lands near the paper's ~22 KiB and documented here
rather than hidden inside protocol code.  ``crc32c_per_kib_ns`` defaults to
0 because the paper disabled CRC32c in the kernel for all experiments
(§4 setup item 5); tests re-enable it to check the documented overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class CostModel:
    """Per-host CPU charges, applied by transports and RPIs."""

    # --- generic IP / driver path, charged per packet -------------------
    ip_send_ns: int = 1_000
    ip_recv_ns: int = 1_000

    # --- TCP stack: mature, cheap per segment ---------------------------
    tcp_segment_send_ns: int = 1_200
    tcp_segment_recv_ns: int = 1_200

    # --- SCTP stack: chunk handling/bundling costs more per packet ------
    sctp_packet_send_ns: int = 3_000
    sctp_packet_recv_ns: int = 3_000
    # CRC32c (disabled by default, matching the paper's modified kernel).
    crc32c_per_kib_ns: int = 0
    # What the checksum costs when enabled (used by tests/ablations).
    CRC32C_ENABLED_PER_KIB_NS = 2_400

    # --- middleware syscall-ish costs, charged per call by the RPIs -----
    tcp_syscall_ns: int = 1_500      # mature read/write path
    # sctp_sendmsg/recvmsg on the 2005 KAME stack: per-call chunk set-up,
    # ancillary-data (sndrcvinfo) handling, and generally unoptimised code
    # ("optimization of the SCTP stack is still in its early stages",
    # paper §3.6) make each call far dearer than a TCP read/write.  This
    # fixed per-call cost is what gives TCP its small-message edge in
    # Fig. 8; the value is calibrated so the throughput crossover lands
    # near the paper's ~22 KiB.
    sctp_syscall_ns: int = 40_000
    select_base_ns: int = 2_000      # select() entry cost (TCP RPI only)
    select_per_socket_ns: int = 450  # linear growth with descriptor count [20]
    # Per-byte middleware work: LAM-TCP scans the byte stream for message
    # boundaries and copies through user-space staging buffers, while
    # SCTP's message framing hands the middleware whole messages (§3.2.4),
    # so TCP's per-KiB cost is higher.  The pair is calibrated (together
    # with the per-call costs above) against Fig. 8: TCP wins below the
    # crossover, SCTP wins above by ~10-25%.
    tcp_middleware_per_kib_ns: int = 11_000
    sctp_middleware_per_kib_ns: int = 5_200

    def __post_init__(self) -> None:
        # Host.send / Host.deliver skip HostCPU's negative-cost guard on
        # the strength of this check: a negative charge would complete a
        # job before the one queued ahead of it
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise ValueError(f"CostModel.{f.name} must be >= 0, got {value}")

    def packet_send_cost(self, proto: str, wire_size: int) -> int:
        """CPU ns to push one packet of ``wire_size`` bytes into the NIC."""
        cost = self.ip_send_ns
        if proto == "tcp":
            cost += self.tcp_segment_send_ns
        elif proto == "sctp":
            cost += self.sctp_packet_send_ns
            cost += self.crc32c_per_kib_ns * wire_size // 1024
        return cost

    def packet_recv_cost(self, proto: str, wire_size: int) -> int:
        """CPU ns to take one packet from the NIC up to the transport."""
        cost = self.ip_recv_ns
        if proto == "tcp":
            cost += self.tcp_segment_recv_ns
        elif proto == "sctp":
            cost += self.sctp_packet_recv_ns
            cost += self.crc32c_per_kib_ns * wire_size // 1024
        return cost

    def middleware_io_cost(self, proto: str, nbytes: int) -> int:
        """CPU ns the MPI middleware spends moving ``nbytes`` through one
        socket call (copy + framing work)."""
        if proto == "tcp":
            return self.tcp_syscall_ns + self.tcp_middleware_per_kib_ns * nbytes // 1024
        return self.sctp_syscall_ns + self.sctp_middleware_per_kib_ns * nbytes // 1024

    def select_cost(self, nsockets: int) -> int:
        """CPU ns for one ``select()`` over ``nsockets`` descriptors."""
        return self.select_base_ns + self.select_per_socket_ns * nsockets

    def with_crc32c(self) -> "CostModel":
        """Variant with the CRC32c checksum charged (ablation/tests)."""
        return replace(self, crc32c_per_kib_ns=self.CRC32C_ENABLED_PER_KIB_NS)
