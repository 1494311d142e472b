"""MetricsRegistry semantics: counters, histograms, probes, scopes,
snapshots, and the zero-cost disabled mode."""

import json

import pytest

from repro.metrics import MetricsRegistry
from repro.simkernel import Kernel


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------
def test_counter_semantics():
    reg = MetricsRegistry()
    c = reg.counter("a.b")
    c.inc()
    c.inc(5)
    assert c.value == 6
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_get_or_create_shares_instance():
    reg = MetricsRegistry()
    assert reg.counter("shared") is reg.counter("shared")
    reg.counter("shared").inc(3)
    assert reg.snapshot()["shared"] == 3


def test_histogram_semantics():
    reg = MetricsRegistry()
    h = reg.histogram("lat", edges=(10, 100, 1000))
    for v in (5, 10, 11, 99, 5000):
        h.observe(v)
    # counts per bucket: <=10: two (5, 10); <=100: two (11, 99); <=1000:
    # none; overflow: one (5000)
    assert h.counts == [2, 2, 0, 1]
    assert h.total_count == 5
    assert h.total_sum == 5 + 10 + 11 + 99 + 5000


def test_histogram_rejects_bad_edges():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.histogram("bad", edges=())
    with pytest.raises(ValueError):
        reg.histogram("bad2", edges=(10, 10))
    with pytest.raises(ValueError):
        reg.histogram("bad3", edges=(10, 5))


def test_histogram_reregister_same_edges_ok_different_edges_raises():
    reg = MetricsRegistry()
    h = reg.histogram("h", edges=(1, 2))
    assert reg.histogram("h", edges=(1, 2)) is h
    with pytest.raises(ValueError):
        reg.histogram("h", edges=(1, 3))


def test_name_type_collision_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.histogram("x", edges=(1, 2))


# ---------------------------------------------------------------------------
# probes and scopes
# ---------------------------------------------------------------------------
def test_probe_evaluated_at_snapshot_time():
    reg = MetricsRegistry()
    state = {"v": 1}
    reg.probe("live", lambda: state["v"])
    assert reg.snapshot()["live"] == 1
    state["v"] = 42
    assert reg.snapshot()["live"] == 42


def test_probe_name_dedup_is_deterministic():
    reg = MetricsRegistry()
    reg.probe("p", lambda: 1)
    reg.probe("p", lambda: 2)
    reg.probe("p", lambda: 3)
    snap = reg.snapshot()
    assert snap["p"] == 1
    assert snap["p#2"] == 2
    assert snap["p#3"] == 3


def test_scope_prefixes_and_nesting():
    reg = MetricsRegistry()
    outer = reg.scope("transport")
    inner = outer.scope("tcp")
    inner.counter("segments").inc(4)
    inner.probe("state", lambda: "OPEN")
    snap = reg.snapshot()
    assert snap["transport.tcp.segments"] == 4
    assert snap["transport.tcp.state"] == "OPEN"


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------
def test_snapshot_is_sorted_and_expands_histograms():
    reg = MetricsRegistry()
    reg.counter("z").inc()
    reg.counter("a").inc(2)
    h = reg.histogram("m", edges=(10, 20))
    h.observe(15)
    snap = reg.snapshot()
    assert list(snap) == sorted(snap)
    assert snap["m/le_10"] == 0
    assert snap["m/le_20"] == 1
    assert snap["m/le_inf"] == 0
    assert snap["m/count"] == 1
    assert snap["m/sum"] == 15


def test_to_json_is_byte_stable():
    def build():
        reg = MetricsRegistry()
        reg.counter("n.c").inc(7)
        reg.histogram("n.h", edges=(1, 10)).observe(3)
        reg.probe("n.p", lambda: 99)
        return reg.to_json()

    assert build() == build()
    # and it round-trips as plain JSON
    assert json.loads(build())["n.c"] == 7


def test_snapshot_coerces_numpy_scalars():
    np = pytest.importorskip("numpy")
    reg = MetricsRegistry()
    reg.probe("np_int", lambda: np.int64(3))
    reg.probe("np_float", lambda: np.float64(2.5))
    snap = reg.snapshot()
    assert snap["np_int"] == 3 and isinstance(snap["np_int"], int)
    assert snap["np_float"] == 2.5 and isinstance(snap["np_float"], float)
    json.dumps(snap)  # must be serialisable with the stock encoder


# ---------------------------------------------------------------------------
# disabled mode
# ---------------------------------------------------------------------------
def test_disabled_registry_registers_no_probes_and_snapshots_empty():
    reg = MetricsRegistry(enabled=False)
    assert not reg.enabled and not reg.scope("s").enabled
    reg.probe("d", lambda: 1 / 0)  # never evaluated
    reg.scope("s").probe("e", lambda: 1 / 0)
    # push sites check ``enabled`` before creating instruments; one that
    # did not would still show nothing
    reg.counter("a").inc(5)
    reg.histogram("c", edges=(1, 2)).observe(9)
    assert reg.snapshot() == {}


def test_default_kernel_metrics_disabled():
    kernel = Kernel(seed=1)
    assert not kernel.metrics.enabled
    assert kernel.metrics.snapshot() == {}


# ---------------------------------------------------------------------------
# determinism guarantees
# ---------------------------------------------------------------------------
def test_rng_streams_unaffected_by_metric_registration_order():
    """Named RNG streams are keyed by (seed, label) only — registering
    metrics in any order, or not at all, must not shift them."""

    def draws(register_first, n_metrics):
        kernel = Kernel(seed=7)
        if register_first:
            for i in range(n_metrics):
                kernel.metrics.counter(f"warp.{i}").inc()
        rng = kernel.rng("traffic")
        return [rng.randrange(1 << 30) for _ in range(8)]

    baseline = draws(register_first=False, n_metrics=0)
    assert draws(register_first=True, n_metrics=1) == baseline
    assert draws(register_first=True, n_metrics=50) == baseline


def test_enabled_kernel_registers_kernel_scope():
    kernel = Kernel(seed=1, metrics=MetricsRegistry(enabled=True))
    kernel.call_after(10, lambda: None)
    kernel.run()
    snap = kernel.metrics.snapshot()
    assert snap["kernel.events_processed"] >= 1
    assert "kernel.timer_heap_depth/count" in snap
