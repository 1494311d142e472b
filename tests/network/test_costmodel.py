"""Cost model arithmetic and documented calibration properties."""

from dataclasses import replace

import pytest

from repro.network import CostModel, Host, Packet
from repro.simkernel import Kernel


def test_tcp_cheaper_per_packet_than_sctp():
    cm = CostModel()
    assert cm.packet_send_cost("tcp", 1500) < cm.packet_send_cost("sctp", 1500)
    assert cm.packet_recv_cost("tcp", 1500) < cm.packet_recv_cost("sctp", 1500)


def test_crc32c_disabled_by_default():
    cm = CostModel()
    # doubling packet size must not change SCTP cost when CRC is off
    assert cm.packet_send_cost("sctp", 1024) == cm.packet_send_cost("sctp", 2048)


def test_crc32c_variant_charges_per_kib():
    cm = CostModel().with_crc32c()
    small = cm.packet_send_cost("sctp", 1024)
    large = cm.packet_send_cost("sctp", 2048)
    assert large - small == cm.CRC32C_ENABLED_PER_KIB_NS
    # TCP offloads its checksum to the NIC: unaffected
    assert cm.packet_send_cost("tcp", 2048) == CostModel().packet_send_cost("tcp", 2048)


def test_middleware_io_cost_shape():
    cm = CostModel()
    # fixed part: SCTP's young sendmsg path is dearer (Fig. 8 small sizes)
    assert cm.middleware_io_cost("sctp", 0) > cm.middleware_io_cost("tcp", 0)
    # per-byte part: TCP's boundary scanning/copies are dearer (large sizes)
    tcp_slope = cm.middleware_io_cost("tcp", 64 * 1024) - cm.middleware_io_cost("tcp", 0)
    sctp_slope = cm.middleware_io_cost("sctp", 64 * 1024) - cm.middleware_io_cost("sctp", 0)
    assert tcp_slope > sctp_slope


def test_select_cost_linear_in_sockets():
    cm = CostModel()
    base = cm.select_cost(0)
    assert cm.select_cost(10) == base + 10 * cm.select_per_socket_ns
    # the paper's scalability point: select over many sockets is expensive
    assert cm.select_cost(1000) > 100 * base


def test_unknown_proto_gets_only_ip_cost():
    cm = CostModel()
    assert cm.packet_send_cost("icmp", 100) == cm.ip_send_ns
    assert cm.packet_recv_cost("icmp", 100) == cm.ip_recv_ns


def test_negative_field_is_rejected_by_name():
    # Host.send / Host.deliver skip the negative-cost guard: a negative
    # charge would finish a packet before the one queued ahead of it
    with pytest.raises(ValueError, match="tcp_segment_recv_ns"):
        CostModel(tcp_segment_recv_ns=-1100)
    with pytest.raises(ValueError, match="select_per_socket_ns"):
        CostModel(select_per_socket_ns=-1)
    assert CostModel(ip_send_ns=0).packet_send_cost("icmp", 100) == 0


def test_crc32c_variant_still_validates():
    cm = CostModel().with_crc32c()
    assert cm.crc32c_per_kib_ns == CostModel.CRC32C_ENABLED_PER_KIB_NS
    # variants are built with dataclasses.replace, which validates too
    with pytest.raises(ValueError, match="crc32c_per_kib_ns"):
        replace(cm, crc32c_per_kib_ns=-1)


class _Sink:
    def receive(self, packet):
        pass


# send and receive charges differ only in the third model, so a host that
# read one direction's terms for the other would pass the first two
ASYMMETRIC = CostModel(ip_send_ns=900, tcp_segment_recv_ns=1_700, sctp_packet_send_ns=2_500)


@pytest.mark.parametrize(
    "cm",
    [CostModel(), CostModel().with_crc32c(), ASYMMETRIC.with_crc32c()],
    ids=["plain", "crc32c", "asymmetric-crc32c"],
)
def test_host_charges_exactly_the_cost_model(cm):
    """Drift guard: a host reads its per-packet charge from a table built
    once from its cost model; the table must give what the formulas give
    for every wire size a packet can have, registered protocol or not."""
    kernel = Kernel(seed=1)
    host = Host(kernel, "h", cm)
    host.add_address("10.0.0.1", lambda packet: None)
    for proto in ("tcp", "sctp"):
        host.register_protocol(proto, _Sink())
    cpu = host.cpu
    for proto in ("tcp", "sctp", "udp"):  # udp: no handler registered
        for size in range(1, 9001):
            packet = Packet("10.0.0.1", "10.0.0.2", proto, None, size)
            before = cpu.total_busy_ns
            host.send(packet)
            assert cpu.total_busy_ns - before == cm.packet_send_cost(proto, size)
            before = cpu.total_busy_ns
            host.deliver(packet)
            # an unhandled protocol is dropped before any receive work
            expected = cm.packet_recv_cost(proto, size) if proto != "udp" else 0
            assert cpu.total_busy_ns - before == expected
        kernel.run()
