"""The budget table (``BUDGET.json``): exact host-work counts, one test.

Every scenario of ``budget.py`` is run and compared with its row: a
count that rises fails (re-commit the table with the reason in
CHANGES.md, so its diff is the review), one that falls prints as a gain,
and one under an exact key (``budget.EXACT``: events, packets, steps,
pumps, ``select``, wakes, pinned functions, loaded modules) fails if it
moves at all.  Timing plays no part.  Runs on CPython 3.10 to 3.12; the
cProfile totals ``calls`` and ``top`` are compared on 3.11 only (see
``budget.py``).
"""

import pytest

from . import budget


@pytest.mark.parametrize("name", budget.scenario_names())
def test_no_count_rises(name):
    table = budget.load_table()
    assert name in table, f"{name} has no row: run tests/budget/budget.py"
    run = budget.measure(name)
    breaks, gains = budget.compare(table[name], run["row"], run["extra"].get("functions", {}))
    for line in gains:
        print(f"GAIN {name}: {line}")
    assert not breaks, f"{name}: counts moved (regenerate the table if intended): {breaks}"
