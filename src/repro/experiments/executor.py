"""Batched experiment execution on one persistent worker pool.

The paper's evaluation is a grid of (figure x sweep-point x seed)
simulations.  The original harness ran sweep points strictly
sequentially and spun up a fresh ``ProcessPoolExecutor`` per point,
which serialised the grid on pool churn.  This module replaces that
with:

* :class:`ExperimentExecutor` — a long-lived executor that owns one
  process pool for its whole lifetime, consults the run cache
  (:mod:`repro.experiments.cache`), deduplicates identical configs
  inside a batch, and load-balances the remaining simulations across
  the pool with small chunks;
* :class:`TaskBatch` — an append-only list of
  :class:`~repro.experiments.scenarios.ScenarioConfig` tasks that many
  sweep points (or many figures) contribute to before a single
  ``execute()`` call fans the whole flattened grid out at once.

Every run is fully determined by its config, so neither worker count,
chunking, dedup nor caching can change results — only wall time.

The executor also *supervises* its pool.  Tasks are submitted
individually and watched: a run that exceeds ``run_timeout_s`` gets
its worker killed and is retried (bounded, with capped exponential
backoff); a worker that dies outright (``BrokenProcessPool``) costs
nobody their results — the pool is respawned and only unfinished
tasks are requeued, with the executor dropping to one-task-at-a-time
quarantine so a deterministic crasher is blamed exactly rather than
taking innocent tasks down with it.  A task that exhausts its retry
budget becomes a :class:`FailedRun` placeholder: with
``on_failure="flag"`` it flows back to the caller (figure harnesses
render the point as FAILED and the CLI exits nonzero), with the
default ``on_failure="raise"`` the batch raises
:class:`RunFailedError` after completing everything else.

With ``REPRO_PROFILE`` set, executed batches report per-run wall time,
events processed and events/sec (plus a per-subsystem event breakdown
when the kernel collected one) on stderr.  Profiling never touches RNG
streams; simulated results are bit-identical with it on or off.
"""

from __future__ import annotations

import concurrent.futures as cf
import gc
import os
import sys
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.cache import (
    RunCache,
    UncacheableConfigError,
    active_cache,
    config_fingerprint,
)
from repro.experiments.scenarios import RunResult, ScenarioConfig, run_scenario
from repro.experiments.settings import (
    max_retries as default_max_retries,
    profile_enabled,
    run_timeout_s as default_run_timeout_s,
)


def default_workers() -> int:
    """Worker processes to use: ``REPRO_WORKERS`` env or cpu count.

    ``REPRO_WORKERS`` must parse as a positive integer; anything else
    (including ``0`` and negative values, which would mean a pool with
    no workers) raises ``ValueError`` with a clear message instead of
    surfacing an ``int()`` traceback deep inside a sweep.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None and env.strip():
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be a positive integer, got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(
                f"REPRO_WORKERS must be >= 1, got {value}"
            )
        return value
    return max(os.cpu_count() or 1, 1)


def _timed_run(config: ScenarioConfig) -> Tuple[RunResult, float]:
    """Pool task: run one scenario, measuring its wall time."""
    start = time.perf_counter()
    result = run_scenario(config)
    return result, time.perf_counter() - start


@dataclass
class FailedRun:
    """Placeholder result for a task that exhausted its retry budget.

    Carries the config, the last error description and how many
    attempts were made.  Sweep reducers treat it as a missing data
    point (the figure is emitted with the point flagged ``FAILED``);
    ``on_failure="raise"`` mode never returns one.
    """

    config: ScenarioConfig
    error: str
    attempts: int


#: What a batch entry resolves to.
RunOutcome = Union[RunResult, FailedRun]


#: Failures itemised in a :class:`RunFailedError` message.  Every
#: failure is still carried on ``.failures``; only the rendered text
#: is capped, so a 10^5-cell campaign's error stays readable.
MAX_REPORTED_FAILURES = 10


class RunFailedError(RuntimeError):
    """A batch contained tasks that failed after all retries."""

    def __init__(self, failures: List[FailedRun]):
        self.failures = failures
        lines = "\n".join(
            f"  seed={f.config.seed} proto={f.config.protocol} "
            f"attempts={f.attempts}: {f.error}"
            for f in failures[:MAX_REPORTED_FAILURES]
        )
        if len(failures) > MAX_REPORTED_FAILURES:
            lines += (
                f"\n  ... and {len(failures) - MAX_REPORTED_FAILURES} more "
                f"(all {len(failures)} on this exception's .failures)"
            )
        super().__init__(
            f"{len(failures)} run(s) failed after retries:\n{lines}"
        )


class ExperimentExecutor:
    """Persistent pool + cache front-end for scenario batches.

    Parameters
    ----------
    workers:
        Pool size; defaults to :func:`default_workers`.  ``1`` runs
        everything in-process (no pool is ever created).
    cache:
        A :class:`RunCache`, or None to use the env-selected cache
        (``REPRO_CACHE`` / ``REPRO_CACHE_DIR``; off by default).
    profile:
        Emit per-run profiling to stderr; defaults to ``REPRO_PROFILE``.
    run_timeout_s:
        Wall-clock budget per task; a run still going after this long
        has its worker killed and counts as a (retryable) failure.
        Defaults to ``REPRO_RUN_TIMEOUT``; ``None`` disables the
        timeout.  Only enforced on the pool path (``workers >= 2``) —
        in-process runs cannot be preempted, use the kernel watchdog
        (``REPRO_MAX_WALL``) there instead.
    max_retries:
        Retries per task after its first failure (default:
        ``REPRO_RETRIES`` or 2).  Retries back off exponentially from
        ``retry_backoff_s``, capped at ``retry_backoff_cap_s``.
    on_failure:
        ``"raise"`` (default): a task exhausting its retries raises
        :class:`RunFailedError` once the rest of the batch finished.
        ``"flag"``: the task's slot holds a :class:`FailedRun` and the
        batch returns normally (graceful figure degradation).

    The executor is reusable across many :meth:`run` calls — that is
    the point: one pool serves a whole figure, or every figure of a
    CLI invocation.  Use it as a context manager (or call
    :meth:`close`) to shut the pool down.  A pool lost to a crash or
    timeout mid-batch is discarded and lazily recreated on the next
    submission, so one poisoned batch never bricks the executor.

    ``runs_executed`` / ``cache_hits`` / ``dedup_hits`` count actual
    simulations versus avoided ones, and double as the run-count probe
    the cache tests assert on.  ``runs_retried`` / ``runs_failed`` /
    ``pool_respawns`` count supervision interventions.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[RunCache] = None,
        profile: Optional[bool] = None,
        run_timeout_s: Optional[float] = None,
        max_retries: Optional[int] = None,
        retry_backoff_s: float = 0.5,
        retry_backoff_cap_s: float = 8.0,
        on_failure: str = "raise",
    ):
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if on_failure not in ("raise", "flag"):
            raise ValueError(
                f"on_failure must be 'raise' or 'flag', got {on_failure!r}"
            )
        self.cache = cache if cache is not None else active_cache()
        self.profile = profile if profile is not None else profile_enabled()
        self.run_timeout_s = (
            run_timeout_s if run_timeout_s is not None
            else default_run_timeout_s()
        )
        self.max_retries = (
            max_retries if max_retries is not None else default_max_retries()
        )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.retry_backoff_s = retry_backoff_s
        self.retry_backoff_cap_s = retry_backoff_cap_s
        self.on_failure = on_failure
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self.runs_executed = 0
        self.cache_hits = 0
        self.dedup_hits = 0
        self.runs_retried = 0
        self.runs_failed = 0
        self.pool_respawns = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ExperimentExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pool (idempotent).

        Pending (not-yet-started) futures are cancelled rather than
        drained, so closing an executor mid-batch — e.g. a context
        manager unwinding through an exception raised while a
        supervised batch is in flight — waits only for the runs
        already on a worker instead of the whole queue, and the pool's
        processes are reaped rather than leaked.  Safe to call
        repeatedly and safe on a pool whose workers died: shutdown
        errors on an already-broken pool are swallowed.
        """
        self._closed = True
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=True, cancel_futures=True)
            except Exception:  # pragma: no cover - broken-pool teardown
                pass
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("executor is closed")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _discard_pool(self) -> None:
        """Forget a dead pool; the next submission recreates one."""
        pool = self._pool
        if pool is None:
            return
        self.pool_respawns += 1
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken-pool teardown
            pass
        self._pool = None

    def _kill_pool(self) -> None:
        """Terminate all workers (hung-task escalation), then discard."""
        pool = self._pool
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - racing process exit
                pass
        self._discard_pool()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, configs: Sequence[ScenarioConfig]) -> List[RunOutcome]:
        """Run a batch of configs; results come back in input order.

        Each config is satisfied, in priority order, by (1) an earlier
        identical config in the same batch, (2) the run cache, or
        (3) an actual simulation on the pool.  Fresh simulations are
        written back to the cache.  Under ``on_failure="flag"`` a slot
        may hold a :class:`FailedRun` instead of a result.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        configs = list(configs)
        results: List[Optional[RunOutcome]] = [None] * len(configs)
        pending: List[int] = []           # indices that must simulate
        first_seen: Dict[str, int] = {}   # fingerprint -> first index
        aliases: List[Tuple[int, int]] = []   # (dup index, source index)
        for index, config in enumerate(configs):
            try:
                fingerprint = config_fingerprint(config)
            except UncacheableConfigError:
                pending.append(index)
                continue
            if fingerprint in first_seen:
                self.dedup_hits += 1
                aliases.append((index, first_seen[fingerprint]))
                continue
            first_seen[fingerprint] = index
            if self.cache is not None:
                hit = self.cache.get(config)
                if hit is not None:
                    self.cache_hits += 1
                    results[index] = hit
                    continue
            pending.append(index)
        if pending:
            timed = self._execute([configs[i] for i in pending])
            for index, (outcome, wall_s) in zip(pending, timed):
                results[index] = outcome
                if isinstance(outcome, RunResult):
                    self.runs_executed += 1
                    if self.cache is not None:
                        self.cache.put(configs[index], outcome)
            if self.profile:
                self._report([configs[i] for i in pending], timed)
        for dup, source in aliases:
            results[dup] = results[source]
        failures = [r for r in results if isinstance(r, FailedRun)]
        if failures and self.on_failure == "raise":
            raise RunFailedError(failures)
        return results  # type: ignore[return-value]

    def _execute(
        self, configs: List[ScenarioConfig]
    ) -> List[Tuple[RunOutcome, float]]:
        # Inline only when the executor itself is single-worker: a
        # pool-backed executor must isolate even a one-config batch,
        # otherwise a crashing run takes the parent process with it.
        if self.workers <= 1:
            return self._run_inline_sweep(configs)
        return self._run_supervised(configs)

    def _run_inline_sweep(
        self, configs: List[ScenarioConfig]
    ) -> List[Tuple[RunOutcome, float]]:
        """Single-worker execution of a pending batch.

        Automatic GC is suspended for the duration of the sweep, so the
        collector never rescans the results already kept.  Each
        finished run's object graph (MACs, medium, kernel heap) is
        cyclic garbage, and while automatic collection is off all of it
        sits in generation 0.  So, when the caller had GC enabled, a
        ``gc.collect(0)`` after each run scans only that run's objects
        and frees its cycles: the sweep holds one run's garbage, not
        every run's.  The caller's GC state is restored (with a full
        collection) at the end.
        """
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            outcomes = []
            for config in configs:
                outcomes.append(self._run_inline(config))
                if gc_was_enabled:
                    gc.collect(0)
            return outcomes
        finally:
            if gc_was_enabled:
                gc.enable()
                gc.collect()

    def _backoff(self, attempts: int) -> None:
        """Sleep the capped exponential backoff before retry ``attempts``."""
        delay = min(
            self.retry_backoff_cap_s,
            self.retry_backoff_s * (2 ** (attempts - 1)),
        )
        if delay > 0:
            time.sleep(delay)

    def _run_inline(self, config: ScenarioConfig) -> Tuple[RunOutcome, float]:
        attempts = 0
        while True:
            attempts += 1
            try:
                return _timed_run(config)
            except Exception as exc:
                if attempts > self.max_retries:
                    self.runs_failed += 1
                    return (
                        FailedRun(
                            config=config,
                            error=f"{type(exc).__name__}: {exc}",
                            attempts=attempts,
                        ),
                        0.0,
                    )
                self.runs_retried += 1
                self._backoff(attempts)

    def _run_supervised(
        self, configs: List[ScenarioConfig]
    ) -> List[Tuple[RunOutcome, float]]:
        """Submit-per-task pool execution with timeouts and crash recovery.

        The loop keeps a queue of ``(index, retries_used)`` entries and
        a map of in-flight futures.  Three failure paths:

        * a task raising inside the worker — retried with backoff until
          the budget is spent, then a :class:`FailedRun`;
        * a task exceeding ``run_timeout_s`` — every worker is killed
          (there is no way to preempt just one), the *hung* task is
          blamed and retried/failed, all other in-flight tasks are
          requeued without blame;
        * the pool breaking (a worker died, e.g. ``os._exit`` or OOM
          kill) — ``BrokenProcessPool`` surfaces on *every* in-flight
          future, so the culprit is unknowable.  Nobody is blamed; all
          unfinished tasks are requeued and the executor enters
          *quarantine*: one task in flight at a time, so a repeat
          crash identifies its task exactly.

        Quarantine persists for the rest of the batch; pool respawns
        are additionally capped (defensive backstop) so even a host
        that kills every worker cannot loop forever.
        """
        outcomes: List[Optional[Tuple[RunOutcome, float]]] = (
            [None] * len(configs)
        )
        queue = deque((i, 0) for i in range(len(configs)))
        inflight: Dict[cf.Future, Tuple[int, int]] = {}
        started: Dict[cf.Future, float] = {}
        quarantine = False
        max_respawns = len(configs) * (self.max_retries + 1) + 2

        def settle(index: int, retries_used: int, error: str) -> None:
            """Blame a task: retry it or convert it to a FailedRun."""
            if retries_used < self.max_retries:
                self.runs_retried += 1
                self._backoff(retries_used + 1)
                queue.append((index, retries_used + 1))
            else:
                self.runs_failed += 1
                outcomes[index] = (
                    FailedRun(
                        config=configs[index],
                        error=error,
                        attempts=retries_used + 1,
                    ),
                    0.0,
                )

        while queue or inflight:
            while queue and not (quarantine and inflight):
                index, retries_used = queue.popleft()
                if self.pool_respawns >= max_respawns:
                    settle(
                        index, self.max_retries,
                        "pool respawn budget exhausted",
                    )
                    continue
                future = self._ensure_pool().submit(
                    _timed_run, configs[index]
                )
                inflight[future] = (index, retries_used)
            if not inflight:
                continue
            tick = (
                None if self.run_timeout_s is None
                else max(0.01, min(0.05, self.run_timeout_s / 4))
            )
            done, _ = cf.wait(
                list(inflight), timeout=tick,
                return_when=cf.FIRST_COMPLETED,
            )
            now = time.monotonic()
            broken = False
            for future in done:
                index, retries_used = inflight.pop(future)
                started.pop(future, None)
                try:
                    outcomes[index] = future.result()
                except BrokenProcessPool:
                    broken = True
                    if quarantine:
                        # Exactly one task was in flight: exact blame.
                        settle(index, retries_used, "worker crashed")
                    else:
                        queue.append((index, retries_used))
                except cf.CancelledError:
                    queue.append((index, retries_used))
                except Exception as exc:
                    settle(
                        index, retries_used,
                        f"{type(exc).__name__}: {exc}",
                    )
            if broken:
                # Every other in-flight future is doomed too; requeue
                # them unblamed and respawn under quarantine.
                for future, (index, retries_used) in inflight.items():
                    queue.append((index, retries_used))
                inflight.clear()
                started.clear()
                self._discard_pool()
                quarantine = True
                continue
            if self.run_timeout_s is None:
                continue
            # Hang detection: blame only futures a worker picked up
            # longer than the budget ago; queued-but-unstarted tasks
            # are merely waiting for a slot.
            for future in inflight:
                if future not in started and future.running():
                    started[future] = now
            hung = [
                future for future, t0 in started.items()
                if future in inflight and now - t0 > self.run_timeout_s
            ]
            if hung:
                self._kill_pool()
                for future in hung:
                    index, retries_used = inflight.pop(future)
                    settle(
                        index, retries_used,
                        f"timeout after {self.run_timeout_s:g}s",
                    )
                for future, (index, retries_used) in inflight.items():
                    queue.append((index, retries_used))
                inflight.clear()
                started.clear()
        # Defensive: every slot must have been settled by the loop.
        return [
            outcome if outcome is not None else (
                FailedRun(
                    config=configs[i], error="internal: task lost",
                    attempts=0,
                ), 0.0,
            )
            for i, outcome in enumerate(outcomes)
        ]

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def _report(
        self,
        configs: List[ScenarioConfig],
        timed: List[Tuple[RunOutcome, float]],
    ) -> None:
        out = sys.stderr
        total_wall = 0.0
        total_events = 0
        subsystems: Dict[str, int] = {}
        for config, (result, wall_s) in zip(configs, timed):
            if isinstance(result, FailedRun):
                print(
                    f"[profile] seed={config.seed} proto={config.protocol} "
                    f"FAILED after {result.attempts} attempts: {result.error}",
                    file=out,
                )
                continue
            rate = result.events_processed / wall_s if wall_s > 0 else 0.0
            total_wall += wall_s
            total_events += result.events_processed
            print(
                f"[profile] seed={config.seed} proto={config.protocol} "
                f"n={len(config.topology.flows)} wall={wall_s:.3f}s "
                f"events={result.events_processed} rate={rate:,.0f} ev/s",
                file=out,
            )
            for module, count in result.event_counts.items():
                subsystems[module] = subsystems.get(module, 0) + count
        rate = total_events / total_wall if total_wall > 0 else 0.0
        print(
            f"[profile] batch: {len(timed)} runs wall={total_wall:.3f}s "
            f"(cumulative) events={total_events} rate={rate:,.0f} ev/s",
            file=out,
        )
        for module, count in sorted(
            subsystems.items(), key=lambda kv: -kv[1]
        ):
            share = 100.0 * count / total_events if total_events else 0.0
            print(
                f"[profile]   {module}: {count} events ({share:.1f}%)",
                file=out,
            )


class BatchHandle:
    """Lazy view of one contiguous slice of a :class:`TaskBatch`.

    Sweep points hold handles while the batch accumulates; after
    ``TaskBatch.execute()`` the handle's :attr:`results` are the runs
    of exactly the configs it added, in the order it added them.
    """

    __slots__ = ("_batch", "_start", "_count")

    def __init__(self, batch: "TaskBatch", start: int, count: int):
        self._batch = batch
        self._start = start
        self._count = count

    def __len__(self) -> int:
        return self._count

    @property
    def results(self) -> List[RunResult]:
        if self._batch._results is None:
            raise RuntimeError("batch has not been executed yet")
        return self._batch._results[self._start:self._start + self._count]


class TaskBatch:
    """A flattened grid of scenario tasks executed in one shot."""

    def __init__(self) -> None:
        self._configs: List[ScenarioConfig] = []
        self._results: Optional[List[RunResult]] = None

    def __len__(self) -> int:
        return len(self._configs)

    @property
    def configs(self) -> List[ScenarioConfig]:
        return list(self._configs)

    def add(self, configs: Sequence[ScenarioConfig]) -> BatchHandle:
        """Append configs; returns the handle to their future results."""
        if self._results is not None:
            raise RuntimeError("batch was already executed")
        configs = list(configs)
        if not configs:
            raise ValueError("need at least one config")
        handle = BatchHandle(self, len(self._configs), len(configs))
        self._configs.extend(configs)
        return handle

    def add_seeds(
        self, config: ScenarioConfig, seeds: Sequence[int]
    ) -> BatchHandle:
        """Append one config re-seeded over ``seeds`` (one sweep point)."""
        if not seeds:
            raise ValueError("need at least one seed")
        return self.add([config.with_seed(seed) for seed in seeds])

    def execute(
        self,
        executor: Optional[ExperimentExecutor] = None,
        workers: Optional[int] = None,
    ) -> List[RunResult]:
        """Run every task; afterwards each handle's results are live.

        With ``executor`` given, its (persistent) pool is reused;
        otherwise an ephemeral executor with ``workers`` processes is
        created for just this call.
        """
        if self._results is not None:
            raise RuntimeError("batch was already executed")
        if executor is not None:
            self._results = executor.run(self._configs)
        else:
            with ExperimentExecutor(workers=workers) as ephemeral:
                self._results = ephemeral.run(self._configs)
        return list(self._results)


__all__ = [
    "BatchHandle",
    "ExperimentExecutor",
    "FailedRun",
    "MAX_REPORTED_FAILURES",
    "RunFailedError",
    "TaskBatch",
    "default_workers",
]
