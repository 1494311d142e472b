"""A value flowing from a read into the simulation is settled at the read:
a seeded value is clean wherever it goes, an accepted read is accepted on
its own line, and the real tree's findings are all accepted that way."""

from repro.analyze.ci import run_rules, suppress
from repro.analyze.program import Program


def program(**sources):
    return Program.from_sources(
        {f"app.{name}": (f"src/app/{name}.py", text) for name, text in sources.items()}
    )


def analyze_program(p):
    """A planted snippet's functions are called from nowhere in it, so
    AN107 is left out."""
    return [f for f in suppress(p, run_rules(p)) if f.rule != "AN107"]


def test_untainted_flow_is_clean_and_seeded_rng_is_clean():
    p = program(
        main=(
            "import random\n"
            "def send(pkt, n):\n"
            "    r = random.Random(7).random()\n"
            "    pkt.payload = n + r\n"
        ),
    )
    assert analyze_program(p) == []


def test_allow_comment_at_sink_line_suppresses():
    """The read and the packet store share a line: an allow there, naming
    the read's rule, accepts it; naming another rule accepts nothing."""
    store = "import time\ndef send(pkt):\n    pkt.payload = time.time()"
    assert [f.rule for f in analyze_program(program(main=store + "\n"))] == ["AN101"]
    allowed = program(main=store + "  # repro: allow[AN101]\n")
    assert analyze_program(allowed) == []
    other = program(main=store + "  # repro: allow[AN108]\n")
    assert [f.rule for f in analyze_program(other)] == ["AN101", "AN106"]


def test_real_tree_findings_are_all_allowed():
    """Each raw finding on the tree is covered by an allow comment in its
    own module that names its rule, so suppression leaves nothing — the
    gate CI runs via `python -m repro.analyze ci`."""
    p = Program.load("src/repro")
    raw = run_rules(p)
    assert raw
    allows = {m.path: m.allows for m in p.modules.values()}
    for f in raw:
        covering = [c for c in allows[f.path] if c.covers(f.rule, f.line)]
        assert covering, f"{f.path}:{f.line}: {f.rule} not allowed"
    assert suppress(p, raw) == []
