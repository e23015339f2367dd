"""Tests for supervised execution: kernel watchdog, executor crash /
hang / retry handling, cache degradation, and figure-level failure
flagging.

The worker-crash scenarios inject a sender policy that calls
``os._exit`` (or sleeps) from inside the simulation; on the pool path
that kills a real worker process, which is exactly the failure the
executor must survive.  The policies are module-level classes so the
pool can unpickle the configs that embed them.

NOTE: crash/hang policies must override a *sender* node (ids ``1..n``
in :func:`circle_topology`); node 0 is the common receiver and never
consults a sender policy.
"""

import json
import os
import time

import pytest

from repro.core.sender_policy import ConformingPolicy
from repro.experiments.cache import RunCache
from repro.experiments.executor import (
    ExperimentExecutor,
    FailedRun,
    RunFailedError,
)
from repro.experiments.figures import FigureResult
from repro.experiments.report import render_table, to_json
from repro.experiments.scenarios import RunResult, ScenarioConfig, run_scenario
from repro.experiments.settings import (
    max_retries,
    run_timeout_s,
    watchdog_from_env,
)
from repro.net.topology import circle_topology
from repro.sim.engine import SimulationStalled, Simulator, Watchdog

SHORT = 200_000  # 0.2 s of simulated time keeps pool tests quick


def config(policy=None, seed=1):
    overrides = {1: policy} if policy is not None else {}
    return ScenarioConfig(
        topology=circle_topology(3), duration_us=SHORT, seed=seed,
        policy_overrides=overrides,
    )


class CrashingPolicy(ConformingPolicy):
    """Kills the hosting process the first time node 1 counts down."""

    def effective_countdown(self, nominal_slots):
        os._exit(17)


class HangingPolicy(ConformingPolicy):
    """Wedges the hosting process (no progress, no crash)."""

    def effective_countdown(self, nominal_slots):
        time.sleep(300)


class TransientCrashPolicy(ConformingPolicy):
    """Crashes only while the marker file is absent (first attempt)."""

    def __init__(self, marker):
        self.marker = str(marker)

    def effective_countdown(self, nominal_slots):
        if not os.path.exists(self.marker):
            open(self.marker, "w").close()
            os._exit(17)
        return nominal_slots


class FailOncePolicy(ConformingPolicy):
    """Raises on its first consultation, conforms afterwards."""

    def __init__(self):
        self.tripped = False

    def effective_countdown(self, nominal_slots):
        if not self.tripped:
            self.tripped = True
            raise RuntimeError("transient fault")
        return nominal_slots


def run_data(result):
    return (result.throughputs(), result.events_processed)


def sleep_task(seconds):
    """Module-level so the worker pool can unpickle it."""
    time.sleep(seconds)
    return seconds


# ----------------------------------------------------------------------
# Kernel watchdog
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_max_events_trips_with_trace(self):
        from repro.experiments.scenarios import build_scenario

        sim, nodes, _ = build_scenario(
            config(), watchdog=Watchdog(max_events=200)
        )
        for node in nodes:
            node.start()
        with pytest.raises(SimulationStalled) as excinfo:
            sim.run(until=SHORT)
        assert "200" in excinfo.value.reason
        assert excinfo.value.trace  # recent dispatches for diagnosis
        assert "most recent events" in str(excinfo.value)

    def test_max_sim_us_trips(self):
        from repro.experiments.scenarios import build_scenario

        sim, nodes, _ = build_scenario(
            config(), watchdog=Watchdog(max_sim_us=5_000)
        )
        for node in nodes:
            node.start()
        with pytest.raises(SimulationStalled):
            sim.run(until=SHORT)

    def test_max_wall_trips(self):
        sim = Simulator(watchdog=Watchdog(max_wall_s=0.0, check_interval=1))
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule(1, tick)

        sim.schedule(1, tick)
        with pytest.raises(SimulationStalled, match="wall clock"):
            sim.run(until=10_000)

    def test_generous_watchdog_is_bit_identical(self):
        from repro.experiments.scenarios import build_scenario

        plain = run_scenario(config())
        dog = Watchdog(max_events=10**9, max_sim_us=10**12, max_wall_s=3600.0)
        sim, nodes, collector = build_scenario(config(), watchdog=dog)
        for node in nodes:
            node.start()
        sim.run(until=SHORT)
        assert sim.events_processed == plain.events_processed

    def test_watchdog_validation(self):
        with pytest.raises(ValueError):
            Watchdog(trace_len=0)
        with pytest.raises(ValueError):
            Watchdog(check_interval=0)

    def test_watchdog_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_EVENTS", raising=False)
        monkeypatch.delenv("REPRO_MAX_WALL", raising=False)
        assert watchdog_from_env() is None
        monkeypatch.setenv("REPRO_MAX_EVENTS", "5000")
        monkeypatch.setenv("REPRO_MAX_WALL", "2.5")
        dog = watchdog_from_env()
        assert dog == Watchdog(max_events=5000, max_wall_s=2.5)

    def test_env_watchdog_guards_run_scenario(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_EVENTS", "100")
        with pytest.raises(SimulationStalled):
            run_scenario(config())


# ----------------------------------------------------------------------
# Executor supervision
# ----------------------------------------------------------------------
class TestInlineRetries:
    def test_exception_retried_then_flagged(self):
        with ExperimentExecutor(workers=1, max_retries=1,
                                retry_backoff_s=0.0,
                                on_failure="flag") as ex:
            [outcome] = ex.run([config(policy=CrashNeverPolicy())])
            assert isinstance(outcome, FailedRun)
            assert outcome.attempts == 2
            assert "RuntimeError" in outcome.error
            assert ex.runs_retried == 1 and ex.runs_failed == 1

    def test_transient_exception_retried_to_success(self):
        with ExperimentExecutor(workers=1, max_retries=2,
                                retry_backoff_s=0.0) as ex:
            [outcome] = ex.run([config(policy=FailOncePolicy())])
        assert isinstance(outcome, RunResult)
        assert ex.runs_retried == 1 and ex.runs_failed == 0

    def test_raise_mode_raises_after_batch(self):
        with ExperimentExecutor(workers=1, max_retries=0,
                                retry_backoff_s=0.0) as ex:
            with pytest.raises(RunFailedError) as excinfo:
                ex.run([config(policy=CrashNeverPolicy()), config(seed=2)])
            [failure] = excinfo.value.failures
            assert failure.config.seed == 1


class CrashNeverPolicy(ConformingPolicy):
    """Always raises (inline-path stand-in for a hard crash)."""

    def effective_countdown(self, nominal_slots):
        raise RuntimeError("synthetic failure")


class TestPoolSupervision:
    def test_worker_crash_flagged_others_bit_identical(self, tmp_path):
        # Satellite: a config whose worker dies via os._exit mid-batch
        # must not take the batch (or the parent) down; every other
        # task's results match a crash-free run bit for bit.
        clean_configs = [config(seed=s) for s in (1, 2, 3)]
        with ExperimentExecutor(workers=2, max_retries=1,
                                retry_backoff_s=0.01,
                                on_failure="flag") as ex:
            outcomes = ex.run(
                clean_configs + [config(policy=CrashingPolicy(), seed=4)]
            )
            assert ex.runs_failed == 1
            assert ex.pool_respawns >= 1
            # The pool died; a follow-up batch lazily recreates it.
            [after] = ex.run([config(seed=9)])
            assert isinstance(after, RunResult)
        crashed = outcomes[3]
        assert isinstance(crashed, FailedRun)
        assert "worker crashed" in crashed.error
        assert crashed.attempts == 2
        with ExperimentExecutor(workers=2) as reference:
            expected = reference.run(clean_configs)
        for outcome, ref in zip(outcomes[:3], expected):
            assert isinstance(outcome, RunResult)
            assert run_data(outcome) == run_data(ref)

    def test_transient_worker_crash_retried_to_success(self, tmp_path):
        policy = TransientCrashPolicy(tmp_path / "crashed-once")
        with ExperimentExecutor(workers=2, max_retries=2,
                                retry_backoff_s=0.01) as ex:
            [outcome] = ex.run([config(policy=policy)])
        assert isinstance(outcome, RunResult)
        # The first crash is unblamed (requeue, not retry): the visible
        # intervention is the pool respawn, and nothing ends up failed.
        assert ex.pool_respawns >= 1 and ex.runs_failed == 0

    def test_hung_worker_times_out(self):
        start = time.monotonic()
        with ExperimentExecutor(workers=2, run_timeout_s=1.0,
                                max_retries=0, retry_backoff_s=0.0,
                                on_failure="flag") as ex:
            [outcome] = ex.run([config(policy=HangingPolicy())])
        assert isinstance(outcome, FailedRun)
        assert "timeout after 1s" in outcome.error
        assert time.monotonic() - start < 30  # did not wait out the sleep

    def test_chaos_sweep_completes_with_failures_flagged(self, tmp_path):
        # Acceptance scenario: clean points + a deterministic crasher +
        # a hang, under timeouts and retries — the sweep finishes, only
        # the poisoned tasks are flagged, the rest are bit-identical.
        clean_configs = [config(seed=s) for s in (1, 2, 3, 4)]
        chaos = clean_configs + [
            config(policy=CrashingPolicy(), seed=5),
            config(policy=HangingPolicy(), seed=6),
        ]
        with ExperimentExecutor(workers=2, run_timeout_s=1.5,
                                max_retries=1, retry_backoff_s=0.01,
                                on_failure="flag") as ex:
            outcomes = ex.run(chaos)
        assert [type(o) for o in outcomes] == [RunResult] * 4 + [FailedRun] * 2
        assert "worker crashed" in outcomes[4].error
        assert "timeout" in outcomes[5].error
        with ExperimentExecutor(workers=2) as reference:
            expected = reference.run(clean_configs)
        for outcome, ref in zip(outcomes[:4], expected):
            assert run_data(outcome) == run_data(ref)


class TestLifecycle:
    def test_close_is_idempotent(self):
        ex = ExperimentExecutor(workers=2)
        ex.run([config()])
        ex.close()
        ex.close()  # second close must be a no-op, not an error
        with pytest.raises(RuntimeError):
            ex.run([config()])

    def test_settings_env_knobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        assert run_timeout_s() is None
        assert max_retries() == 2
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "30")
        monkeypatch.setenv("REPRO_RETRIES", "0")
        assert run_timeout_s() == 30.0
        assert max_retries() == 0

    def test_invalid_on_failure_rejected(self):
        with pytest.raises(ValueError, match="on_failure"):
            ExperimentExecutor(workers=1, on_failure="ignore")

    def test_close_mid_batch_cancels_pending_and_reaps_pool(self):
        """close() during in-flight work must not drain the whole queue.

        Regression test: a single-worker pool is loaded with six
        0.5 s tasks; close() may wait for the one already running but
        must cancel the rest instead of executing them (which would
        block ~3 s and, for a real interrupted sweep, arbitrarily
        long), and must leave no live pool behind.
        """
        ex = ExperimentExecutor(workers=1)
        pool = ex._ensure_pool()
        futures = [pool.submit(sleep_task, 0.5) for _ in range(6)]
        time.sleep(0.1)  # let the first task reach a worker
        start = time.monotonic()
        ex.close()
        elapsed = time.monotonic() - start
        assert elapsed < 1.5, (
            f"close() took {elapsed:.2f}s — pending futures were drained "
            "instead of cancelled"
        )
        assert sum(1 for f in futures if f.cancelled()) >= 4
        assert ex._pool is None
        with pytest.raises(RuntimeError):
            ex.run([config()])

    def test_run_failed_error_message_is_capped(self):
        from repro.experiments.executor import MAX_REPORTED_FAILURES

        failures = [
            FailedRun(config=config(seed=s), error=f"boom {s}", attempts=3)
            for s in range(25)
        ]
        err = RunFailedError(failures)
        message = str(err)
        assert "25 run(s) failed" in message
        assert message.count("attempts=") == MAX_REPORTED_FAILURES
        assert f"... and {25 - MAX_REPORTED_FAILURES} more" in message
        assert err.failures == failures  # nothing lost, only the text

    def test_run_failed_error_small_batch_uncapped(self):
        failures = [
            FailedRun(config=config(seed=s), error="boom", attempts=1)
            for s in range(3)
        ]
        message = str(RunFailedError(failures))
        assert message.count("attempts=") == 3
        assert "more" not in message


# ----------------------------------------------------------------------
# Cache degradation
# ----------------------------------------------------------------------
class TestCacheDegradation:
    def unusable_dir(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory is needed")
        return blocker / "runs"

    def test_unusable_dir_warns_once_and_disables(self, tmp_path, capsys):
        target = self.unusable_dir(tmp_path)
        cache = RunCache(target)
        assert cache.disabled
        assert cache.get(config()) is None
        result = run_scenario(config())
        assert cache.put(config(), result) is False
        RunCache(target)  # same directory: no second warning
        err = capsys.readouterr().err
        assert err.count("continuing uncached") == 1
        assert str(target) in err

    def test_executor_runs_uncached_on_unusable_dir(self, tmp_path, capsys):
        cache = RunCache(self.unusable_dir(tmp_path))
        with ExperimentExecutor(workers=1, cache=cache) as ex:
            first = ex.run([config()])
            second = ex.run([config()])
            assert ex.runs_executed == 2  # nothing was ever cached
        assert run_data(first[0]) == run_data(second[0])
        assert "continuing uncached" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Figure / report degradation
# ----------------------------------------------------------------------
def _fake_failure():
    return FailedRun(config=config(), error="synthetic", attempts=1)


class TestFigureDegradation:
    def fig(self):
        return FigureResult(figure_id="t", title="T", x_label="x",
                            y_label="y")

    def test_add_stat_point_drops_failures(self):
        fig = self.fig()
        results = [run_scenario(config()), _fake_failure()]
        fig.add_stat_point("s", 1.0, [results[0].events_processed, None])
        assert fig.has_failures
        assert not fig.is_failed("s", 1.0)  # one seed survived: degraded
        [(x, y)] = fig.series["s"]
        assert (x, y) == (1.0, float(results[0].events_processed))

    def test_add_stat_point_all_failed_omits_point(self):
        fig = self.fig()
        fig.add_stat_point("s", 2.0, [None])
        assert fig.is_failed("s", 2.0)
        assert "s" not in fig.series

    def test_render_table_marks_failures(self):
        fig = self.fig()
        fig.add_point("ok", 1.0, 10.0)
        fig.add_point("ok", 2.0, 20.0)
        fig.mark_failed("ok", 2.0)       # degraded: value + failures
        fig.mark_failed("gone", 1.0)     # no survivors anywhere
        table = render_table(fig)
        assert "20.0*" in table
        assert "FAILED" in table
        assert "some runs failed" in table

    def test_render_table_unchanged_without_failures(self):
        fig = self.fig()
        fig.add_point("ok", 1.0, 10.0)
        table = render_table(fig)
        assert "FAILED" not in table and "*" not in table

    def test_to_json_includes_failed_points(self):
        fig = self.fig()
        fig.mark_failed("s", 1.0)
        fig.mark_failed("s")
        payload = json.loads(to_json(fig))
        assert payload["failed_points"] == {"s": [1.0, None]}
