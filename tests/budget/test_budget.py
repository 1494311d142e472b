"""The budget table (``BUDGET.json``): exact host-work counts, one test.

Every scenario of ``budget.py`` is run and compared with its row: a
count that rises fails (re-commit the table with the reason in
CHANGES.md, so its diff is the review), one that falls prints as a gain.
Timing plays no part.  CPython 3.11 only (see ``budget.py``).
"""

import pytest

from . import budget

pytestmark = pytest.mark.skipif(not budget.ON_311, reason=budget.ONLY_311)


@pytest.mark.parametrize("name", budget.scenario_names())
def test_no_count_rises(name):
    table = budget.load_table()
    assert name in table, f"{name} has no row: run tests/budget/budget.py"
    run = budget.measure(name)
    rises, falls = budget.compare(table[name], run["row"], run["extra"].get("functions", {}))
    for line in falls:
        print(f"GAIN {name}: {line}")
    assert not rises, f"{name}: counts rose (regenerate the table if intended): {rises}"
