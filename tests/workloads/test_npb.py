"""NPB mini-kernels: verification on both RPIs, determinism, classes."""

import pytest

from repro.workloads.npb import CLASSES, KERNELS, run_npb

LIMIT = 5_000_000_000_000
ALL = sorted(KERNELS)


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_class_s_verifies(name, rpi):
    r = run_npb(name, "S", rpi=rpi, seed=1, limit_ns=LIMIT)
    assert r.verified, f"{name}.S failed on {rpi}: {r.detail}"
    assert r.mops > 0
    assert r.elapsed_ns > 0


@pytest.mark.parametrize("name", ALL)
def test_class_w_verifies(name):
    for rpi in ("tcp", "sctp"):
        r = run_npb(name, "W", rpi=rpi, seed=1, limit_ns=LIMIT)
        assert r.verified, f"{name}.W failed on {rpi}: {r.detail}"


@pytest.mark.parametrize("name", ["EP", "IS", "CG"])
def test_verification_survives_loss(name):
    r = run_npb(name, "S", rpi="sctp", seed=2, loss_rate=0.02, limit_ns=LIMIT)
    assert r.verified, f"{name}.S under loss: {r.detail}"


def test_every_benchmark_has_all_classes():
    for name, classes in CLASSES.items():
        assert set(classes) == {"S", "W", "A", "B"}, name


def test_deterministic_given_seed():
    a = run_npb("CG", "S", rpi="sctp", seed=3, limit_ns=LIMIT)
    b = run_npb("CG", "S", rpi="sctp", seed=3, limit_ns=LIMIT)
    assert a.elapsed_ns == b.elapsed_ns
    assert a.total_flops == b.total_flops


def test_cg_converges():
    r = run_npb("CG", "S", rpi="sctp", seed=1, limit_ns=LIMIT)
    # detail reads "residual <start> -> <end>"
    start, end = (float(x) for x in r.detail.split()[1::2])
    assert end < start / 10


def test_mg_reduces_residual():
    r = run_npb("MG", "S", rpi="sctp", seed=1, limit_ns=LIMIT)
    parts = r.detail.split()  # "resnorm <a> -> <b> dims=..."
    start, end = float(parts[1]), float(parts[3])
    assert end < start


def test_mg_process_grid_factorization():
    from repro.workloads.npb.mg import coords_of, process_grid, rank_of

    assert process_grid(8) == (2, 2, 2)
    assert process_grid(4) == (1, 2, 2)
    assert process_grid(2) == (1, 1, 2)
    assert process_grid(1) == (1, 1, 1)
    dims = process_grid(8)
    for rank in range(8):
        assert rank_of(coords_of(rank, dims), dims) == rank


def test_class_scaling_increases_work():
    s = run_npb("IS", "S", rpi="sctp", seed=1, limit_ns=LIMIT)
    w = run_npb("IS", "W", rpi="sctp", seed=1, limit_ns=LIMIT)
    assert w.total_flops > 2 * s.total_flops


def test_two_rank_run():
    from repro.core.world import WorldConfig

    cfg = WorldConfig(n_procs=2, rpi="sctp", seed=1)
    r = run_npb("EP", "S", rpi="sctp", n_procs=2, config=cfg, limit_ns=LIMIT)
    assert r.verified
