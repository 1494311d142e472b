"""RangeSet, the one selective-ack structure, against a plain set() model."""

from hypothesis import given, settings, strategies as st

from repro.util.ranges import RangeSet


def runs(model):
    """Maximal runs of a set of integers, as ascending half-open pairs."""
    out = []
    for x in sorted(model):
        if out and out[-1][1] == x:
            out[-1] = (out[-1][0], x + 1)
        else:
            out.append((x, x + 1))
    return out


OPS = st.lists(
    st.tuples(st.sampled_from(["add", "discard_below"]), st.integers(-5, 70), st.integers(-3, 15)),
    max_size=40,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(OPS, st.integers(-5, 75), st.integers(-5, 75))
def test_rangeset_matches_a_plain_set(ops, lo, hi):
    """Inserts (empty and inverted ones change nothing) merge what they
    overlap or touch; every query agrees with the model after each step."""
    rs, model = RangeSet(), set()
    for op, x, length in ops:
        if op == "add":
            got = rs.add(x, x + length)
            model.update(range(x, x + length))
            held = [r for r in runs(model) if r[0] <= x < r[1]]
            assert got == (held[0] if length > 0 else None)
        else:
            rs.discard_below(x)
            model = {y for y in model if y >= x}
        assert list(rs) == runs(model) and len(rs) == len(runs(model))
        assert all((y in rs) == (y in model) for y in range(-6, 80))
    assert rs.missing(lo, hi) == runs(set(range(lo, hi)) - model)
