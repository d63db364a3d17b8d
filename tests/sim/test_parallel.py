"""The fault-tolerant job engine."""

import os
import time

import pytest

from repro.sim.parallel import execute_jobs


# Worker functions must live at module level so the pool can pickle them.

def _square(x):
    return x * x


def _always_raise(x):
    raise ValueError(f"bad payload {x!r}")


def _sleep_then_return(seconds):
    time.sleep(seconds)
    return seconds


def _fail_once_marker(path):
    """Fails on the first attempt (no marker yet), succeeds after."""
    if os.path.exists(path):
        return "recovered"
    with open(path, "w"):
        pass
    raise RuntimeError("transient failure")


def _die_if_poison(payload):
    if payload == "poison":
        time.sleep(0.2)  # let healthy pool-mates finish their cells first
        os._exit(13)
    return payload


class TestExecuteJobs:
    def test_in_process_ok(self):
        outcomes = execute_jobs(_square, [1, 2, 3], jobs=1)
        assert [o.value for o in outcomes] == [1, 4, 9]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_pool_preserves_payload_order(self):
        outcomes = execute_jobs(_square, list(range(8)), jobs=2)
        assert [o.value for o in outcomes] == [i * i for i in range(8)]

    def test_exception_captured_not_raised(self):
        outcomes = execute_jobs(_always_raise, ["x"], jobs=1, retries=0)
        (outcome,) = outcomes
        assert not outcome.ok
        assert outcome.reason == "exception"
        assert "bad payload 'x'" in outcome.error

    def test_retry_exhaustion_counts_attempts(self):
        (outcome,) = execute_jobs(_always_raise, ["x"], jobs=1,
                                  retries=2, backoff=0.0)
        assert outcome.status == "failed"
        assert outcome.attempts == 3  # 1 initial + 2 retries

    def test_transient_failure_recovers_on_retry(self, tmp_path):
        marker = str(tmp_path / "marker")
        (outcome,) = execute_jobs(_fail_once_marker, [marker], jobs=2,
                                  retries=1, backoff=0.0)
        assert outcome.ok
        assert outcome.value == "recovered"
        assert outcome.attempts == 2

    def test_timeout_enforced(self):
        (outcome,) = execute_jobs(_sleep_then_return, [5.0], jobs=1,
                                  timeout=0.2, retries=0)
        assert outcome.status == "failed"
        assert outcome.reason == "timeout"

    def test_killed_worker_fails_without_poisoning_pool_mates(self):
        outcomes = execute_jobs(_die_if_poison, ["a", "poison", "b"],
                                jobs=2, retries=1, backoff=0.0)
        assert outcomes[0].ok and outcomes[0].value == "a"
        assert outcomes[2].ok and outcomes[2].value == "b"
        poison = outcomes[1]
        assert poison.status == "failed"
        assert poison.reason == "worker_died"

    def test_on_outcome_fires_per_job(self):
        seen = []
        execute_jobs(_square, [1, 2], jobs=1, on_outcome=seen.append)
        assert sorted(o.index for o in seen) == [0, 1]

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            execute_jobs(_square, [1], jobs=0)
