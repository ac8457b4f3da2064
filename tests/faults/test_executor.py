"""run_fanout scheduling: retries, pool rebuilds, timeouts, degradation.

The toy task functions live at module level so pool workers can import
them; each takes the trailing ``FaultContext`` argument the scheduler
passes, and uses ``ctx.attempt`` (or ``ctx is None``, which marks the
degraded in-process fallback) to decide deterministically whether to
misbehave -- no fault plan needed to exercise the executor itself.
"""

import os
import time
from concurrent.futures import Future

import pytest

from repro.faults import (
    FAST_RETRIES,
    ExecutorBackend,
    FanoutTask,
    RetryPolicy,
    RunOutcome,
    run_fanout,
    stable_fraction,
    task_token,
)


def _double(value, ctx=None):
    return value * 2


def _flaky(value, fail_below, ctx=None):
    if ctx is not None and ctx.attempt < fail_below:
        raise ValueError(f"attempt {ctx.attempt} fails")
    return value


def _always_fail(value, ctx=None):
    raise ValueError("always fails")


def _fail_in_pool(value, ctx=None):
    if ctx is not None:
        raise ValueError("fails on every pool attempt")
    return value * 10


def _crash_first(value, ctx=None):
    if ctx is not None and ctx.attempt == 0:
        os._exit(86)
    return value + 1


def _hang_first(value, ctx=None):
    if ctx is not None and ctx.attempt == 0:
        time.sleep(30.0)
    return value


def _record_completion(value, out_dir, ctx=None):
    stamp = time.monotonic()  # repro: noqa(REP108) -- test measures wall time
    with open(os.path.join(out_dir, f"done-{value}"), "w") as handle:
        handle.write(repr(stamp))
    return value


def _pause_then_return(value, seconds, ctx=None):
    time.sleep(seconds)
    return value


def _hang_once_marked(value, marker_dir, ctx=None):
    """Sleep 30 s on the first invocation ever, return instantly after.

    A file marker (not ``ctx.attempt``) decides, because a bystander
    requeue deliberately replays the same attempt index.
    """
    marker = os.path.join(marker_dir, f"ran-{value}")
    first = not os.path.exists(marker)
    with open(marker, "a"):
        pass
    if first and ctx is not None:
        time.sleep(30.0)
    return value


class TestHappyPath:
    def test_all_ok(self):
        tasks = [FanoutTask(key=i, fn=_double, args=(i,)) for i in range(5)]
        results, report = run_fanout(tasks, jobs=2, policy=FAST_RETRIES)
        assert results == {i: i * 2 for i in range(5)}
        assert report.all_ok
        assert report.outcome_counts()["ok"] == 5
        for task_report in report.tasks.values():
            assert task_report.attempts == 1
            assert task_report.retries == 0

    def test_empty_tasks(self):
        results, report = run_fanout([], jobs=2)
        assert results == {}
        assert report.tasks == {}

    def test_duplicate_keys_rejected(self):
        tasks = [
            FanoutTask(key="same", fn=_double, args=(1,)),
            FanoutTask(key="same", fn=_double, args=(2,)),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            run_fanout(tasks, jobs=2)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_fanout([FanoutTask(key=1, fn=_double, args=(1,))], jobs=0)


class TestRetries:
    def test_transient_failure_is_retried(self):
        tasks = [FanoutTask(key="k", fn=_flaky, args=(41, 1))]
        results, report = run_fanout(tasks, jobs=2, policy=FAST_RETRIES)
        assert results == {"k": 41}
        state = report.tasks["k"]
        assert state.outcome is RunOutcome.RETRIED
        assert state.retries == 1
        assert state.attempts == 2
        assert "fails" in state.error

    def test_mixed_batch_keeps_ok_labels(self):
        tasks = [
            FanoutTask(key="stable", fn=_double, args=(3,)),
            FanoutTask(key="flaky", fn=_flaky, args=(9, 2)),
        ]
        results, report = run_fanout(tasks, jobs=2, policy=FAST_RETRIES)
        assert results == {"stable": 6, "flaky": 9}
        assert report.outcome("stable") is RunOutcome.OK
        assert report.outcome("flaky") is RunOutcome.RETRIED


class TestDegradation:
    def test_exhausted_retries_degrade_to_serial(self):
        tasks = [FanoutTask(key="k", fn=_fail_in_pool, args=(7,))]
        results, report = run_fanout(tasks, jobs=2, policy=FAST_RETRIES)
        assert results == {"k": 70}
        state = report.tasks["k"]
        assert state.outcome is RunOutcome.DEGRADED
        assert state.degraded
        assert state.retries == FAST_RETRIES.max_attempts - 1

    def test_hopeless_task_fails_but_batch_survives(self):
        tasks = [
            FanoutTask(key="good", fn=_double, args=(1,)),
            FanoutTask(key="bad", fn=_always_fail, args=(1,)),
        ]
        results, report = run_fanout(tasks, jobs=2, policy=FAST_RETRIES)
        assert results == {"good": 2}
        assert report.outcome("bad") is RunOutcome.FAILED
        assert report.failed_keys == ["bad"]
        assert not report.all_ok

    def test_degrade_disabled_fails_fast(self):
        tasks = [FanoutTask(key="k", fn=_fail_in_pool, args=(7,))]
        results, report = run_fanout(
            tasks, jobs=2, policy=FAST_RETRIES, degrade=False
        )
        assert results == {}
        assert report.outcome("k") is RunOutcome.FAILED


class TestPoolBreakage:
    def test_worker_crash_is_survived(self):
        tasks = [FanoutTask(key=i, fn=_crash_first, args=(i,)) for i in range(3)]
        results, report = run_fanout(tasks, jobs=2, policy=FAST_RETRIES)
        assert results == {i: i + 1 for i in range(3)}
        assert report.pool_rebuilds >= 1
        for task_report in report.tasks.values():
            assert task_report.outcome in (RunOutcome.RETRIED, RunOutcome.OK)
        assert any(
            task_report.outcome is RunOutcome.RETRIED
            for task_report in report.tasks.values()
        )


class TestNonBlockingBackoff:
    def test_other_tasks_complete_during_backoff(self, tmp_path):
        """A long retry backoff must not stall the scheduling loop.

        ``lagging`` fails its first attempt and backs off 1.2 s; the
        fast tasks behind it in the queue must all complete well before
        that backoff elapses (the old scheduler slept inside
        ``handle_failure``, freezing submission and harvesting).
        """
        policy = RetryPolicy(
            max_attempts=2, base_delay=1.2, multiplier=1.0,
            max_delay=1.2, jitter=0.0,
        )
        tasks = [FanoutTask(key="lagging", fn=_flaky, args=(99, 1))] + [
            FanoutTask(
                key=f"fast-{i}", fn=_record_completion,
                args=(i, str(tmp_path)),
            )
            for i in range(4)
        ]
        started = time.monotonic()  # repro: noqa(REP108) -- asserting wall time
        results, report = run_fanout(tasks, jobs=2, policy=policy)
        elapsed = time.monotonic() - started  # repro: noqa(REP108) -- ditto
        assert results["lagging"] == 99
        assert report.tasks["lagging"].retries == 1
        # The retried task itself must wait out its 1.2 s backoff ...
        assert elapsed >= 1.2
        # ... but every fast task finished while it was waiting.
        for i in range(4):
            stamp = float((tmp_path / f"done-{i}").read_text())
            assert stamp - started < 1.0, f"fast-{i} stalled behind backoff"


class _FakeClock:
    """Deterministic stand-in for the ``time`` module in the scheduler.

    ``wait`` (also faked) advances this clock by exactly its timeout, so
    the test can land the scheduler *precisely* on the reclaim deadline
    ``min(started) + task_timeout`` -- the boundary the old strict
    comparison busy-spun on.
    """

    def __init__(self, start=1000.0):
        self.now = start
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += max(0.0, seconds)


class _HangFirstBackend(ExecutorBackend):
    """First submitted future never resolves; later ones succeed inline."""

    name = "fake-hang-first"

    def __init__(self):
        self.submissions = 0
        self.recoveries = 0

    @property
    def capacity(self):
        return 1

    def submit(self, fn, args):
        self.submissions += 1
        future = Future()
        if self.submissions > 1:
            future.set_result(fn(*args))
        return future  # the first attempt hangs forever

    def recover(self):
        self.recoveries += 1

    def shutdown(self):
        pass


class TestTimeoutBoundary:
    """Regression: a wake landing exactly on ``started + task_timeout``
    must reclaim the overdue task, not recompute a 0.0 wait timeout and
    busy-spin until the clock *strictly* exceeds the deadline.
    """

    def test_boundary_wake_reclaims_instead_of_spinning(self, monkeypatch):
        import repro.faults.executor as executor_mod

        clock = _FakeClock()
        wait_calls = {"total": 0, "zero_timeout": 0}

        def fake_wait(futures, timeout=None, return_when=None):
            wait_calls["total"] += 1
            if wait_calls["total"] > 25:
                raise AssertionError(
                    "scheduler busy-spun: wait() called more than 25 times"
                )
            done = {future for future in futures if future.done()}
            if done:
                return done, set(futures) - done
            assert timeout is not None, (
                "wait() would block forever on the hung future"
            )
            if timeout == 0.0:
                wait_calls["zero_timeout"] += 1
            clock.sleep(timeout)  # wake exactly at the deadline
            return set(), set(futures)

        monkeypatch.setattr(executor_mod, "time", clock)
        monkeypatch.setattr(executor_mod, "wait", fake_wait)

        backend = _HangFirstBackend()
        policy = RetryPolicy(
            max_attempts=2, base_delay=0.0, multiplier=1.0,
            max_delay=0.0, jitter=0.0,
        )
        start = clock.now
        results, report = run_fanout(
            [FanoutTask(key="k", fn=_double, args=(21,))],
            jobs=1, policy=policy, task_timeout=1.0, backend=backend,
        )

        assert results == {"k": 42}
        state = report.tasks["k"]
        assert state.outcome is RunOutcome.RETRIED
        assert state.timeouts == 1
        assert state.retries == 1
        assert state.attempts == 2
        assert report.pool_rebuilds == 1
        assert backend.recoveries == 1
        # The reclaim happened on the boundary wake itself: the clock
        # advanced exactly one task_timeout, and no wait() call ever ran
        # with the degenerate 0.0 timeout the busy-spin produced.
        assert clock.now - start == pytest.approx(1.0)
        assert wait_calls["zero_timeout"] == 0
        assert wait_calls["total"] <= 3


class TestTokenIdentity:
    """Regression: ``str(key)`` collapsed int/str key pairs (``1`` vs
    ``"1"``) onto one token, so they shared a single fault schedule and
    retry-jitter stream.  ``task_token`` uses ``repr`` to keep them
    distinct.
    """

    def test_int_and_str_keys_get_distinct_tokens(self):
        assert task_token(1) == "1"
        assert task_token("1") == "'1'"
        assert task_token(1) != task_token("1")

    def test_report_tokens_disambiguated_in_fanout(self):
        tasks = [
            FanoutTask(key=1, fn=_double, args=(10,)),
            FanoutTask(key="1", fn=_double, args=(20,)),
        ]
        results, report = run_fanout(
            tasks, jobs=1, policy=FAST_RETRIES, backend="serial"
        )
        assert results == {1: 20, "1": 40}
        tokens = {key: state.token for key, state in report.tasks.items()}
        assert tokens[1] != tokens["1"]
        assert sorted(tokens.values()) == ["'1'", "1"]

    def test_distinct_tokens_draw_independent_fault_decisions(self):
        # The fault injector hashes (seed, site, token); a collapsed
        # token would force identical draws for every seed.  Distinct
        # repr tokens must disagree for *some* seed.
        site = "experiments.run"
        draws = [
            (
                stable_fraction(seed, site, task_token(1)),
                stable_fraction(seed, site, task_token("1")),
            )
            for seed in range(32)
        ]
        assert any(a != b for a, b in draws)
        # str() would have collapsed them: identical for every seed.
        assert all(
            stable_fraction(seed, site, str(1))
            == stable_fraction(seed, site, str("1"))
            for seed in range(32)
        )


class TestTimeouts:
    def test_hung_task_is_reclaimed(self):
        tasks = [FanoutTask(key="slow", fn=_hang_first, args=(5,))]
        started = time.monotonic()  # repro: noqa(REP108) -- asserting wall time
        results, report = run_fanout(
            tasks, jobs=1, policy=FAST_RETRIES, task_timeout=0.5
        )
        elapsed = time.monotonic() - started  # repro: noqa(REP108) -- ditto
        assert results == {"slow": 5}
        assert elapsed < 20.0  # did not wait out the 30 s hang
        state = report.tasks["slow"]
        assert state.timeouts == 1
        assert state.outcome is RunOutcome.RETRIED
        assert report.pool_rebuilds >= 1

    def test_bystander_requeue_is_not_a_retry(self, tmp_path):
        """A task requeued only because a *concurrent* task hung must
        finish ``OK``: no retry charged, no stale error string, the
        requeue counted in ``bystander_requeues`` instead.
        """
        tasks = [
            FanoutTask(
                key="slow", fn=_hang_once_marked,
                args=(5, str(tmp_path)),
            ),
            # Staggers the bystander's start 0.3 s behind "slow" so it
            # is mid-flight but clearly under budget at reclaim time.
            FanoutTask(key="pace", fn=_pause_then_return, args=(1, 0.3)),
            FanoutTask(
                key="bystander", fn=_hang_once_marked,
                args=(8, str(tmp_path)),
            ),
        ]
        results, report = run_fanout(
            tasks, jobs=2, policy=FAST_RETRIES, task_timeout=1.0
        )
        assert results == {"slow": 5, "pace": 1, "bystander": 8}
        bystander = report.tasks["bystander"]
        assert bystander.outcome is RunOutcome.OK
        assert bystander.retries == 0
        assert bystander.bystander_requeues == 1
        assert bystander.timeouts == 0
        assert bystander.error is None
        assert bystander.attempts == 2  # resubmitted at the same index
        slow = report.tasks["slow"]
        assert slow.outcome is RunOutcome.RETRIED
        assert slow.timeouts == 1
        assert report.total_retries == 1  # only "slow"; no inflation
        assert report.total_bystander_requeues == 1
        assert report.pool_rebuilds >= 1
