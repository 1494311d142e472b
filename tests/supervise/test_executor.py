"""Strict fan-out contract: one child per task, results in input order,
and a lost task — raised, unpicklable result, or exit without a result —
named in :class:`SuperviseError` after the other tasks have run.

Worker bodies are module-level (the executor addresses work by callable
+ plain items, so spawn platforms work too) and misbehave for real —
``os._exit``, raise, return a lock — so these tests exercise the real
detection paths.  Nothing is retried inside a map: the retry is a
re-run, and a marker file makes a body fail on its first run only.
"""

import os
import threading
import time
from pathlib import Path

import pytest

from repro.supervise import SuperviseError, supervised_map


def square(x):
    return x * x


def fail_once(item):
    """``(marker, action, x)``: crash or raise on the first run only."""
    marker, action, x = item
    if action is not None and not os.path.exists(marker):
        Path(marker).touch()
        if action == "crash":
            os._exit(3)
        raise RuntimeError(f"first run of {x}")
    return x * x


def raise_error(item):
    """``(log, x)``: note the run in ``log``, then fail deterministically."""
    log, x = item
    with open(log, "a") as fh:
        fh.write("run\n")
    raise RuntimeError(f"deterministic failure for {x}")


def return_lock(_x):
    return threading.Lock()


def test_plain_map_results_in_input_order():
    outcome = supervised_map(square, [3, 1, 2], jobs=2)
    assert outcome.results == [9, 1, 4]
    with pytest.raises(ValueError, match="1 task ids for 2 items"):
        supervised_map(square, [1, 2], task_ids=["only-one"])


def test_empty_items():
    outcome = supervised_map(square, [], jobs=4)
    assert outcome.results == []


def test_crash_is_detected_and_retried(tmp_path):
    """A worker that dies without a result is lost with its exit code;
    the retry is running the map again."""
    items = [(str(tmp_path / "m"), "crash", 5)]
    with pytest.raises(SuperviseError) as err:
        supervised_map(fail_once, items, jobs=1, task_ids=["t0"])
    message = str(err.value)
    assert "task t0" in message and "(1 of 1 tasks lost)" in message
    assert "exited with code 3 before a result" in message
    assert supervised_map(fail_once, items, jobs=1).results == [25]


def test_deterministic_errors_are_not_retried_by_default(tmp_path):
    log = tmp_path / "runs"
    with pytest.raises(SuperviseError) as err:
        supervised_map(raise_error, [(str(log), 7)], jobs=1, task_ids=["t"])
    message = str(err.value)
    assert "task t" in message and "task raised" in message
    assert "deterministic failure for 7" in message  # the child's traceback
    assert log.read_text() == "run\n"  # one run, no retry


def test_unpicklable_result_is_an_error_not_a_crash():
    """A result that cannot cross the pipe is the task's error, named as
    such — not an anonymous exit-code-1 crash."""
    with pytest.raises(SuperviseError) as err:
        supervised_map(return_lock, [0], jobs=1)
    message = str(err.value)
    assert "could not be pickled" in message and "cannot pickle" in message
    assert "exited with code" not in message


def crash_slow_or_fast(tag):
    """``slow`` dies after the others, ``fast`` at once."""
    if tag == "slow":
        time.sleep(0.3)
        os._exit(4)
    if tag == "fast":
        os._exit(5)
    return tag


def test_mixed_fanout_preserves_input_order_under_retries(tmp_path):
    """The first lost task *in input order* is named, whatever finished
    first, every other task still runs, and the re-run returns its
    results in input order."""
    actions = {"a": "crash", "c": "raise"}
    items = [
        (str(tmp_path / tid), actions.get(tid), x)
        for tid, x in zip("abcd", [1, 2, 3, 4])
    ]
    with pytest.raises(SuperviseError) as err:
        supervised_map(fail_once, items, jobs=4, task_ids=list("abcd"))
    assert "task a failed (2 of 4 tasks lost)" in str(err.value)
    assert supervised_map(fail_once, items, jobs=4).results == [1, 4, 9, 16]
    # a task lost last in time is still named first when it comes first
    with pytest.raises(SuperviseError, match=r"task slow failed \(2 of 3"):
        supervised_map(crash_slow_or_fast, ["slow", "ok", "fast"], jobs=3,
                       task_ids=["slow", "ok", "fast"])
