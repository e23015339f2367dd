"""Tests for the batched executor and the content-addressed run cache.

Covers the determinism contract (workers=1, workers=N, and a warm
cache all produce bit-identical figure data), cache-key sensitivity
(any config field or the code-version stamp flips the key), the
run-count probes, and the profiling hooks' no-perturbation guarantee.
"""

import dataclasses
import gc
import os

import pytest

from repro.core.sender_policy import ConformingPolicy
from repro.experiments import cache as cache_mod
from repro.experiments.cache import (
    RunCache,
    UncacheableConfigError,
    active_cache,
    config_fingerprint,
)
from repro.experiments.executor import (
    ExperimentExecutor,
    FailedRun,
    TaskBatch,
    default_workers,
)
from repro.experiments.figures import generate_figures
from repro.experiments.runner import run_seeds
from repro.experiments.scenarios import (
    PROTOCOL_80211,
    PROTOCOL_CORRECT,
    ScenarioConfig,
)
from repro.experiments.settings import EvalSettings
from repro.net.topology import circle_topology

SHORT = 400_000  # 0.4 s keeps these tests quick

#: Micro scale for whole-figure determinism checks.
MICRO = EvalSettings(
    duration_us=SHORT,
    seeds=(1, 2),
    pm_values=(0.0, 100.0),
    network_sizes=(1, 2),
    fig8_pm_values=(80.0,),
    random_topologies=1,
    random_nodes=8,
    random_misbehaving=2,
)


def config(protocol=PROTOCOL_CORRECT, pm=0.0, **kwargs):
    topo = circle_topology(3, misbehaving=(2,) if pm else (), pm_percent=pm)
    return ScenarioConfig(
        topology=topo, protocol=protocol, duration_us=SHORT, seed=1, **kwargs
    )


def figure_data(fig):
    """The bit-exact payload of a figure: series, errors and meta."""
    return (fig.series, fig.errors, fig.meta)


class TestDeterminism:
    def test_figure_identical_workers_1_vs_n(self):
        seq = generate_figures(["fig5"], MICRO, workers=1)["fig5"]
        par = generate_figures(["fig5"], MICRO, workers=2)["fig5"]
        assert figure_data(seq) == figure_data(par)

    def test_figure_identical_from_warm_cache(self, tmp_path):
        cache = RunCache(tmp_path)
        with ExperimentExecutor(workers=1, cache=cache) as cold:
            first = generate_figures(["fig5"], MICRO, executor=cold)["fig5"]
            assert cold.runs_executed > 0
        with ExperimentExecutor(workers=1, cache=cache) as warm:
            second = generate_figures(["fig5"], MICRO, executor=warm)["fig5"]
            # The run-count probe: a warm cache performs zero simulations.
            assert warm.runs_executed == 0
            assert warm.cache_hits > 0
        assert figure_data(first) == figure_data(second)

    def test_batched_matches_unbatched_runner(self):
        direct = run_seeds(config(pm=50.0), (1, 2), workers=1)
        with ExperimentExecutor(workers=1) as ex:
            injected = run_seeds(config(pm=50.0), (1, 2), executor=ex)
        for a, b in zip(direct, injected):
            assert a.throughputs() == b.throughputs()
            assert a.events_processed == b.events_processed


class TestCacheKeys:
    def test_fingerprint_stable_across_equal_configs(self):
        assert config_fingerprint(config()) == config_fingerprint(config())

    @pytest.mark.parametrize("change", [
        {"duration_us": SHORT + 1},
        {"seed": 2},
        {"payload_bytes": 256},
        {"protocol": PROTOCOL_80211},
        {"use_rts_cts": False},
        {"refuse_diagnosed": True},
    ])
    def test_fingerprint_sensitive_to_every_field(self, change):
        base = config_fingerprint(config())
        flipped = dataclasses.replace(config(), **change)
        assert config_fingerprint(flipped) != base

    def test_fingerprint_sensitive_to_topology(self):
        assert config_fingerprint(config()) != config_fingerprint(
            config(pm=50.0)
        )

    def test_code_version_invalidates_key(self, tmp_path, monkeypatch):
        cache = RunCache(tmp_path)
        key_now = cache.key_for(config())
        monkeypatch.setattr(cache_mod, "code_version", lambda: "other")
        assert cache.key_for(config()) != key_now

    def test_code_version_stamp_misses_cache(self, tmp_path, monkeypatch):
        cache = RunCache(tmp_path)
        with ExperimentExecutor(workers=1, cache=cache) as ex:
            ex.run([config()])
        monkeypatch.setattr(cache_mod, "code_version", lambda: "other")
        with ExperimentExecutor(workers=1, cache=cache) as ex:
            ex.run([config()])
            assert ex.cache_hits == 0
            assert ex.runs_executed == 1

    def test_unstable_policy_is_uncacheable(self):
        class AnonymousPolicy:
            misbehaving = False

        bad = config(policy_overrides={1: AnonymousPolicy()})
        with pytest.raises(UncacheableConfigError):
            config_fingerprint(bad)

    def test_uncacheable_config_still_runs(self, tmp_path):
        from repro.core.sender_policy import ConformingPolicy

        class AnonymousPolicy(ConformingPolicy):
            __repr__ = object.__repr__

        cache = RunCache(tmp_path)
        bad = config(policy_overrides={1: AnonymousPolicy()})
        with ExperimentExecutor(workers=1, cache=cache) as ex:
            first = ex.run([bad])
            second = ex.run([bad])
            assert ex.runs_executed == 2  # never cached, never deduped
        assert first[0].throughputs() == second[0].throughputs()
        assert cache.entries() == []


class TestCacheStore:
    def test_roundtrip_and_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        with ExperimentExecutor(workers=1, cache=cache) as ex:
            [result] = ex.run([config()])
        hit = cache.get(config())
        assert hit is not None
        assert hit.throughputs() == result.throughputs()
        assert cache.stats()["entries"] == 1
        assert cache.clear() == 1
        assert cache.get(config()) is None

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(config(), run_seeds(config(), (1,), workers=1)[0])
        [entry] = cache.entries()
        entry.write_bytes(b"not a pickle")
        assert cache.get(config()) is None
        assert cache.entries() == []

    def test_active_cache_env_toggle(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert active_cache() is None
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert active_cache() is None
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "runs"))
        cache = active_cache()
        assert isinstance(cache, RunCache)
        assert cache.directory == tmp_path / "runs"


class TestExecutor:
    def test_duplicate_configs_simulated_once(self):
        with ExperimentExecutor(workers=1) as ex:
            a, b = ex.run([config(), config()])
            assert ex.runs_executed == 1
            assert ex.dedup_hits == 1
        assert a.throughputs() == b.throughputs()

    def test_results_in_input_order(self):
        configs = [config().with_seed(s) for s in (3, 1, 2)]
        with ExperimentExecutor(workers=1) as ex:
            results = ex.run(configs)
        assert [r.config.seed for r in results] == [3, 1, 2]

    def test_closed_executor_rejects_runs(self):
        ex = ExperimentExecutor(workers=1)
        ex.close()
        with pytest.raises(RuntimeError):
            ex.run([config()])

    def test_batch_handles_slice_results(self):
        batch = TaskBatch()
        first = batch.add_seeds(config(), (1, 2))
        second = batch.add([config().with_seed(3)])
        batch.execute(workers=1)
        assert [r.config.seed for r in first.results] == [1, 2]
        assert [r.config.seed for r in second.results] == [3]

    def test_batch_rejects_double_execute(self):
        batch = TaskBatch()
        batch.add([config()])
        batch.execute(workers=1)
        with pytest.raises(RuntimeError):
            batch.execute(workers=1)
        with pytest.raises(RuntimeError):
            batch.add([config()])

    def test_handle_before_execute_rejected(self):
        batch = TaskBatch()
        handle = batch.add([config()])
        with pytest.raises(RuntimeError):
            handle.results


class TestGcSuspension:
    """The single-worker sweep suspends generational GC and restores
    the caller's setting afterwards, whatever the runs do."""

    def test_gc_reenabled_after_sweep(self):
        assert gc.isenabled()
        with ExperimentExecutor(workers=1) as ex:
            ex.run([config().with_seed(s) for s in (1, 2)])
        assert gc.isenabled()

    def test_gc_reenabled_after_failed_run(self):
        bad = config(policy_overrides={1: ExplodingPolicy()})
        with ExperimentExecutor(workers=1, max_retries=0,
                                on_failure="flag") as ex:
            good, failed = ex.run([config(), bad])
        assert isinstance(failed, FailedRun)
        assert not isinstance(good, FailedRun)
        assert gc.isenabled()

    def test_caller_disabled_gc_stays_disabled(self):
        gc.disable()
        try:
            with ExperimentExecutor(workers=1) as ex:
                ex.run([config()])
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_each_finished_run_is_collected(self, monkeypatch):
        """The sweep holds one run's garbage, not every run's: while GC
        is suspended everything new sits in generation 0, so its size
        at the start of each run must not grow with the runs before."""
        from repro.experiments import executor as executor_module

        young = []
        timed_run = executor_module._timed_run

        def probed(config):
            young.append(len(gc.get_objects(generation=0)))
            return timed_run(config)

        monkeypatch.setattr(executor_module, "_timed_run", probed)
        with ExperimentExecutor(workers=1, cache=None) as ex:
            ex.run([config().with_seed(s) for s in range(1, 7)])
        assert len(young) == 6
        assert max(young[2:]) <= young[1] + 100


class ExplodingPolicy(ConformingPolicy):
    """Raises on the first backoff countdown (a deterministic crasher)."""

    def effective_countdown(self, nominal_slots):
        raise RuntimeError("synthetic failure")


class TestProfiling:
    def test_profile_does_not_perturb_results(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        plain = run_seeds(config(pm=50.0), (1,), workers=1)[0]
        monkeypatch.setenv("REPRO_PROFILE", "1")
        profiled = run_seeds(config(pm=50.0), (1,), workers=1)[0]
        assert plain.throughputs() == profiled.throughputs()
        assert plain.events_processed == profiled.events_processed
        assert not plain.event_counts
        assert profiled.event_counts
        assert sum(profiled.event_counts.values()) == (
            profiled.events_processed
        )
        err = capsys.readouterr().err
        assert "ev/s" in err and "[profile]" in err


class TestDefaultWorkers:
    def test_env_unset_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() >= 1

    def test_valid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert default_workers() == 4

    @pytest.mark.parametrize("bad", ["0", "-3", "abc", "2.5"])
    def test_invalid_env_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_workers()
