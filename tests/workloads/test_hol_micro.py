"""Fig. 4/5 microscenario invariants."""

from repro.workloads.hol_micro import run_hol_micro

LIMIT = 20_000_000_000_000


def test_tcp_never_delivers_b_first():
    """TCP's byte stream makes out-of-order completion impossible."""
    r = run_hol_micro(iterations=20, limit_ns=LIMIT, rpi="tcp", loss_rate=0.02, seed=2)
    assert r.b_completed_first == 0


def test_sctp_overtakes_under_loss():
    r = run_hol_micro(iterations=40, limit_ns=LIMIT, rpi="sctp", loss_rate=0.02, seed=2)
    assert r.b_completed_first > 0


def test_single_stream_sctp_cannot_overtake():
    """num_streams=1 removes the mechanism: behaves like a byte pipe."""
    r = run_hol_micro(
        iterations=30, limit_ns=LIMIT, rpi="sctp", loss_rate=0.02, seed=2, num_streams=1
    )
    assert r.b_completed_first == 0


def test_no_loss_no_overtaking_needed():
    tcp = run_hol_micro(iterations=10, limit_ns=LIMIT, rpi="tcp", loss_rate=0.0, seed=1)
    sctp = run_hol_micro(iterations=10, limit_ns=LIMIT, rpi="sctp", loss_rate=0.0, seed=1)
    # without loss both deliver A first and waits are tiny
    assert tcp.b_completed_first == 0
    assert sctp.mean_first_completion_ns < 5_000_000
    assert tcp.mean_first_completion_ns < 5_000_000


def test_sctp_slashes_wait_under_loss():
    tcp = run_hol_micro(iterations=30, limit_ns=LIMIT, rpi="tcp", loss_rate=0.02, seed=3)
    sctp = run_hol_micro(iterations=30, limit_ns=LIMIT, rpi="sctp", loss_rate=0.02, seed=3)
    assert sctp.mean_first_completion_ns < tcp.mean_first_completion_ns
