"""The supervised pool: retry/backoff logic and live worker supervision.

Backoff *scheduling* is pure logic driven by a :class:`FakeClock` -- no
subprocess, no real sleep.  The live-pool tests use real workers with
sub-second budgets; each failure mode (crash, freeze, hang, leak) is
provoked deterministically via a marker file so the first attempt fails
and the retry succeeds.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import time
from pathlib import Path

import pytest

from repro.core.runner.clock import FakeClock
from repro.core.runner.supervisor import (
    BackoffScheduler,
    QuarantinedTaskError,
    RetryPolicy,
    SupervisedPool,
    TaskOutcome,
    WorkerBudget,
)

# -- picklable worker payloads (fork workers resolve these by reference) ----


def _ok(value):
    return value


def _boom(message):
    raise RuntimeError(message)


def _first_attempt(marker: str) -> bool:
    """True (and records the visit) only on the first call for ``marker``."""
    path = Path(marker)
    if path.exists():
        return False
    path.write_text("visited")
    return True


def _die_once(marker: str, value):
    if _first_attempt(marker):
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def _freeze_once(marker: str, value):
    if _first_attempt(marker):
        os.kill(os.getpid(), signal.SIGSTOP)
    return value


def _hang_once(marker: str, value):
    if _first_attempt(marker):
        time.sleep(60)
    return value


def _swallow_deadline_once(marker: str, value):
    if _first_attempt(marker):
        # Defeat the soft in-worker deadline on purpose: the supervisor's
        # hard kill is the only thing that can end this attempt.
        while True:
            try:
                time.sleep(60)
            except BaseException:  # noqa: BLE001 - deliberately hostile
                pass
    return value


def _bloat_once(marker: str, value):
    if _first_attempt(marker):
        ballast = bytearray(256 * 1024 * 1024)
        time.sleep(30)
        del ballast
    return value


def _unpicklable():
    return lambda: None


class TestRetryPolicy:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=1.0, multiplier=2.0,
            max_delay_s=100.0, jitter=0.0,
        )
        rng = random.Random(0)
        delays = [policy.delay_before_attempt(a, rng) for a in (2, 3, 4, 5)]
        assert delays == [1.0, 2.0, 4.0, 8.0]

    def test_cap_applies(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay_s=1.0, multiplier=2.0,
            max_delay_s=3.0, jitter=0.0,
        )
        rng = random.Random(0)
        assert policy.delay_before_attempt(8, rng) == 3.0

    def test_jitter_stays_within_band_and_is_seeded(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=1.0, jitter=0.25)
        delays = [
            policy.delay_before_attempt(2, random.Random(7))
            for _ in range(5)
        ]
        assert len(set(delays)) == 1  # same seed, same draw
        sweep = [
            policy.delay_before_attempt(2, random.Random(seed))
            for seed in range(50)
        ]
        assert all(0.75 <= delay <= 1.25 for delay in sweep)
        assert len(set(sweep)) > 1


class TestBackoffScheduler:
    def _scheduler(self, **overrides):
        policy = RetryPolicy(
            max_attempts=overrides.pop("max_attempts", 3),
            base_delay_s=1.0, multiplier=2.0, max_delay_s=60.0, jitter=0.0,
        )
        clock = FakeClock()
        return BackoffScheduler(policy, clock, seed=0), clock

    def test_retry_matures_only_after_backoff(self):
        scheduler, clock = self._scheduler()
        scheduler.record_start("t")
        delay = scheduler.schedule_retry("t")
        assert delay == 1.0
        assert scheduler.pop_ready() == []
        assert scheduler.seconds_until_ready() == pytest.approx(1.0)
        clock.advance(0.5)
        assert scheduler.pop_ready() == []
        clock.advance(0.6)
        assert scheduler.pop_ready() == ["t"]
        assert scheduler.seconds_until_ready() is None

    def test_backoff_grows_per_attempt(self):
        scheduler, clock = self._scheduler(max_attempts=4)
        delays = []
        for _ in range(3):
            scheduler.record_start("t")
            delays.append(scheduler.schedule_retry("t"))
            clock.advance(120.0)
            assert scheduler.pop_ready() == ["t"]
        assert delays == [1.0, 2.0, 4.0]

    def test_attempts_exhaust(self):
        scheduler, clock = self._scheduler(max_attempts=2)
        scheduler.record_start("t")
        assert scheduler.schedule_retry("t") is not None
        clock.advance(60.0)
        scheduler.pop_ready()
        scheduler.record_start("t")
        assert scheduler.schedule_retry("t") is None

    def test_independent_tasks_interleave_in_schedule_order(self):
        scheduler, clock = self._scheduler()
        scheduler.record_start("a")
        scheduler.record_start("b")
        scheduler.schedule_retry("a")
        scheduler.schedule_retry("b")
        clock.advance(10.0)
        assert scheduler.pop_ready() == ["a", "b"]

    def test_no_real_sleep_needed(self):
        started = time.monotonic()
        scheduler, clock = self._scheduler(max_attempts=10)
        policy_minutes = 0.0
        for _ in range(9):
            scheduler.record_start("t")
            delay = scheduler.schedule_retry("t")
            if delay is None:
                break
            policy_minutes += delay
            clock.advance(delay)
            scheduler.pop_ready()
        assert policy_minutes > 60.0  # minutes of simulated backoff...
        assert time.monotonic() - started < 5.0  # ...in real milliseconds


def _pool(**overrides) -> SupervisedPool:
    defaults = dict(
        max_workers=2,
        budget=WorkerBudget(wall_s=5.0, heartbeat_s=2.0),
        retry=RetryPolicy(
            max_attempts=3, base_delay_s=0.01, max_delay_s=0.05, jitter=0.0
        ),
    )
    defaults.update(overrides)
    return SupervisedPool(**defaults)


class TestSupervisedPoolHappyPath:
    def test_results_in_task_order(self):
        outcomes = _pool().run(
            [(f"t{i}", _ok, (i * i,)) for i in range(5)]
        )
        assert list(outcomes) == [f"t{i}" for i in range(5)]
        assert [o.result for o in outcomes.values()] == [0, 1, 4, 9, 16]
        assert all(o.ok and len(o.attempts) == 1 for o in outcomes.values())

    def test_empty_task_list(self):
        assert _pool().run([]) == {}

    def test_duplicate_task_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            _pool().run([("t", _ok, (1,)), ("t", _ok, (2,))])

    def test_results_or_raise_unwraps(self):
        results = _pool().results_or_raise([("t", _ok, ("payload",))])
        assert results == {"t": "payload"}


class TestSupervisedPoolFailures:
    def test_exception_retried_to_quarantine_with_history(self):
        outcomes = _pool().run([("t", _boom, ("kaboom",))])
        outcome = outcomes["t"]
        assert outcome.quarantined
        assert len(outcome.attempts) == 3
        assert [a.outcome for a in outcome.attempts] == ["error"] * 3
        assert "kaboom" in outcome.attempts[0].error
        assert "kaboom" in outcome.history()

    def test_results_or_raise_raises_with_history(self):
        with pytest.raises(QuarantinedTaskError, match="kaboom"):
            _pool().results_or_raise([("t", _boom, ("kaboom",))])

    def test_quarantine_does_not_poison_other_tasks(self):
        outcomes = _pool().run(
            [("bad", _boom, ("x",)), ("good", _ok, (42,))]
        )
        assert outcomes["bad"].quarantined
        assert outcomes["good"].ok and outcomes["good"].result == 42

    def test_unpicklable_result_is_an_error_not_a_hang(self):
        outcomes = _pool().run([("t", _unpicklable, ())])
        outcome = outcomes["t"]
        assert outcome.quarantined
        assert "not picklable" in outcome.attempts[0].error


class TestSupervisedPoolCrashes:
    def test_killed_worker_detected_and_task_retried(self, tmp_path):
        marker = str(tmp_path / "died")
        outcomes = _pool().run([("t", _die_once, (marker, "recovered"))])
        outcome = outcomes["t"]
        assert outcome.ok and outcome.result == "recovered"
        assert [a.outcome for a in outcome.attempts] == ["worker-death", "ok"]
        assert "exited" in outcome.attempts[0].error

    def test_frozen_worker_detected_by_stale_heartbeat(self, tmp_path):
        marker = str(tmp_path / "froze")
        pool = _pool(
            max_workers=1,
            budget=WorkerBudget(wall_s=None, heartbeat_s=0.4),
        )
        started = time.monotonic()
        outcomes = pool.run([("t", _freeze_once, (marker, "thawed"))])
        outcome = outcomes["t"]
        assert outcome.ok and outcome.result == "thawed"
        assert [a.outcome for a in outcome.attempts] == ["stalled", "ok"]
        assert time.monotonic() - started < 30

    def test_hung_worker_cut_by_soft_deadline(self, tmp_path):
        marker = str(tmp_path / "hung")
        pool = _pool(budget=WorkerBudget(wall_s=0.3, heartbeat_s=5.0))
        started = time.monotonic()
        outcomes = pool.run([("t", _hang_once, (marker, "freed"))])
        outcome = outcomes["t"]
        assert outcome.ok and outcome.result == "freed"
        assert [a.outcome for a in outcome.attempts] == ["timeout", "ok"]
        assert "soft deadline" in outcome.attempts[0].error
        assert time.monotonic() - started < 30

    def test_deadline_swallower_cut_by_hard_kill(self, tmp_path):
        # A worker that swallows BudgetExpired can only be stopped by the
        # supervisor's process-level hard deadline.
        marker = str(tmp_path / "swallowed")
        pool = _pool(
            budget=WorkerBudget(
                wall_s=0.3, heartbeat_s=30.0, hard_margin_s=0.2
            ),
        )
        started = time.monotonic()
        outcomes = pool.run(
            [("t", _swallow_deadline_once, (marker, "stopped"))]
        )
        outcome = outcomes["t"]
        assert outcome.ok and outcome.result == "stopped"
        assert [a.outcome for a in outcome.attempts] == ["timeout", "ok"]
        assert "hard wall-clock deadline" in outcome.attempts[0].error
        assert time.monotonic() - started < 30

    def test_rss_watchdog_kills_bloated_worker(self, tmp_path):
        marker = str(tmp_path / "bloated")
        # The worker must start small: a fork of the suite's process would
        # inherit its RSS, and the budget could kill it before the
        # ballast exists.  A forkserver (or spawned) worker starts from a
        # fresh interpreter.
        methods = multiprocessing.get_all_start_methods()
        pool = _pool(
            budget=WorkerBudget(
                wall_s=20.0, heartbeat_s=30.0,
                rss_bytes=128 * 1024 * 1024,
            ),
            mp_context="forkserver" if "forkserver" in methods else "spawn",
        )
        outcomes = pool.run([("t", _bloat_once, (marker, "slimmed"))])
        outcome = outcomes["t"]
        assert outcome.ok and outcome.result == "slimmed"
        assert [a.outcome for a in outcome.attempts] == ["rss", "ok"]
        assert outcome.attempts[0].rss_peak_bytes > 128 * 1024 * 1024


class TestTaskOutcome:
    def test_history_is_readable(self):
        from repro.core.runner.supervisor import TaskAttempt

        outcome = TaskOutcome(
            "t", False, None,
            [
                TaskAttempt(1, "worker-death", "exited -9", 0.5, 0, 123),
                TaskAttempt(2, "ok", "", 0.2, 0, 124),
            ],
        )
        history = outcome.history()
        assert "attempt 1: worker-death" in history
        assert "attempt 2: ok" in history
