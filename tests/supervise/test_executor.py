"""Supervised fan-out contract: crash/hang/deadline detection, bounded
deterministic retry, quarantine, and input-order results.

Worker bodies are module-level (the executor addresses work by callable
+ plain items, so spawn platforms work too) and misbehave for real —
``os._exit``, SIGSTOP on themselves, sleep, raise — so these tests
exercise the real detection paths.  A marker file makes a body fail on
its first attempt only.
"""

import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.supervise import (
    CRASH,
    DEADLINE,
    ERROR,
    HANG,
    OK,
    SupervisePolicy,
    backoff_delay,
    supervised_map,
)
from repro.supervise.executor import BACKOFF_BASE_S, BACKOFF_FACTOR, BACKOFF_MAX_S


def square(x):
    return x * x


def fail_once(item):
    """``(marker, action, x)``: crash or hang on the first attempt only."""
    marker, action, x = item
    if action is not None and not os.path.exists(marker):
        Path(marker).touch()
        if action == "crash":
            os._exit(3)
        os.kill(os.getpid(), signal.SIGSTOP)  # frozen, heartbeat included
    return x * x


def crash_on_one(x):
    if x == 1:
        os._exit(3)
    return x * x


def raise_error(x):
    raise RuntimeError(f"deterministic failure for {x}")


def return_lock(_x):
    return threading.Lock()


def sleep_forever(_x):
    time.sleep(600)


def test_plain_map_results_in_input_order():
    outcome = supervised_map(square, [3, 1, 2], jobs=2)
    assert outcome.results == [9, 1, 4]
    assert outcome.ok
    assert outcome.manifest == [] and outcome.quarantined == []


def test_empty_items():
    outcome = supervised_map(square, [], jobs=4)
    assert outcome.results == [] and outcome.ok


def test_crash_is_detected_and_retried(tmp_path):
    policy = SupervisePolicy(max_attempts=2)
    outcome = supervised_map(
        fail_once, [(str(tmp_path / "m"), "crash", 5)], jobs=1, policy=policy,
        task_ids=["t0"],
    )
    assert outcome.results == [25] and outcome.ok
    [rec] = outcome.manifest
    assert rec["task"] == "t0" and rec["outcome"] == "recovered"
    assert [a["outcome"] for a in rec["attempts"]] == [CRASH, OK]
    assert "exit" in rec["attempts"][0]["detail"]


def test_hang_is_killed_and_retried(tmp_path):
    policy = SupervisePolicy(max_attempts=2, hang_timeout_s=1.0)
    outcome = supervised_map(
        fail_once, [(str(tmp_path / "m"), "hang", 6)], jobs=1, policy=policy
    )
    assert outcome.results == [36] and outcome.ok
    [rec] = outcome.manifest
    assert [a["outcome"] for a in rec["attempts"]] == [HANG, OK]


def test_real_hang_without_chaos_is_detected():
    """A worker body that genuinely never returns trips the deadline."""
    policy = SupervisePolicy(max_attempts=1, deadline_s=0.5)
    outcome = supervised_map(sleep_forever, [0], jobs=1, policy=policy)
    assert outcome.results == [None]
    assert outcome.quarantined == ["0"]
    [rec] = outcome.manifest
    assert rec["attempts"][0]["outcome"] == DEADLINE


def test_persistent_crash_quarantines_after_max_attempts():
    policy = SupervisePolicy(max_attempts=3)
    outcome = supervised_map(
        crash_on_one, [1, 2], jobs=2, policy=policy, task_ids=["bad", "good"]
    )
    assert outcome.results == [None, 4]
    assert outcome.quarantined == ["bad"] and not outcome.ok
    [rec] = outcome.manifest
    assert rec["outcome"] == "quarantined"
    assert len(rec["attempts"]) == 3  # the retry budget is really bounded
    assert all(a["outcome"] == CRASH for a in rec["attempts"])


def test_deterministic_errors_are_not_retried_by_default():
    policy = SupervisePolicy(max_attempts=3)
    outcome = supervised_map(raise_error, [7], jobs=1, policy=policy, task_ids=["t"])
    assert outcome.quarantined == ["t"]
    [rec] = outcome.manifest
    assert len(rec["attempts"]) == 1  # one ERROR, no retry
    assert rec["attempts"][0]["outcome"] == ERROR
    assert "deterministic failure for 7" in rec["attempts"][0]["detail"]


def test_unpicklable_result_is_an_error_not_a_crash():
    """A result that cannot cross the pipe is the task's deterministic
    error, named as such — not three anonymous exit-code-1 crashes."""
    policy = SupervisePolicy(max_attempts=3)
    outcome = supervised_map(return_lock, [0], jobs=1, policy=policy)
    assert outcome.quarantined == ["0"]
    [rec] = outcome.manifest
    [attempt] = rec["attempts"]
    assert attempt["outcome"] == ERROR
    assert "could not be pickled" in attempt["detail"]
    assert "cannot pickle" in attempt["detail"]


def test_mixed_fanout_preserves_input_order_under_retries(tmp_path):
    policy = SupervisePolicy(max_attempts=2, hang_timeout_s=1.0)
    actions = {"a": "crash", "c": "hang"}
    items = [
        (str(tmp_path / tid), actions.get(tid), x)
        for tid, x in zip("abcd", [1, 2, 3, 4])
    ]
    outcome = supervised_map(
        fail_once, items, jobs=4, policy=policy, task_ids=list("abcd")
    )
    assert outcome.results == [1, 4, 9, 16]
    # manifest in input order, not completion order
    assert [rec["task"] for rec in outcome.manifest] == ["a", "c"]
    assert [rec["attempts"][0]["outcome"] for rec in outcome.manifest] == [CRASH, HANG]


def test_backoff_delay_is_deterministic_and_bounded():
    d1 = backoff_delay("cell-x", 1)
    assert d1 == backoff_delay("cell-x", 1)  # pure function
    assert d1 != backoff_delay("cell-y", 1)  # per-task stream
    for attempt in (1, 2, 3, 10):
        cap = min(BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1), BACKOFF_MAX_S)
        d = backoff_delay("cell-x", attempt)
        assert cap / 2 <= d < cap
    # the cap really clamps: huge attempt numbers stay under the maximum
    assert backoff_delay("cell-x", 50) < BACKOFF_MAX_S


def test_policy_validation():
    with pytest.raises(ValueError):
        SupervisePolicy(max_attempts=0)
    for limit in (0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="deadline_s must be > 0"):
            SupervisePolicy(deadline_s=limit)
        with pytest.raises(ValueError, match="hang_timeout_s must be > 0"):
            SupervisePolicy(hang_timeout_s=limit)
    with pytest.raises(ValueError):
        supervised_map(square, [1, 2], task_ids=["only-one"])
