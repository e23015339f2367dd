"""Evaluation scale settings: paper-scale vs. quick (CI-friendly).

The paper runs every data point for 50 simulated seconds averaged over
30 seeds.  A pure-Python substrate reproduces the same *shapes* at a
fraction of that cost, so the default harness scale is reduced; set
``REPRO_FULL=1`` in the environment to run the paper-scale version
(budget hours of CPU), or ``REPRO_QUICK=1`` to force the smallest
sanity scale regardless of other settings.

The seed list is shared across data points, mirroring "the set of
seeds used for different data points is the same".

Beyond the scale selection this module also centralises the other
``REPRO_*`` execution knobs so every layer reads them the same way:

* ``REPRO_WORKERS`` — worker-process count (see
  :func:`repro.experiments.executor.default_workers`);
* ``REPRO_CACHE``   — enable the content-addressed run cache
  (:mod:`repro.experiments.cache`);
* ``REPRO_PROFILE`` — emit per-run wall-time / events-per-second
  profiling from the executor (results are unchanged; the hooks only
  count, they never touch RNG streams);
* ``REPRO_RUN_TIMEOUT`` — per-run wall-clock timeout in seconds
  enforced by the executor's supervision loop (unset: no timeout);
* ``REPRO_RETRIES`` — retry budget per task for transient worker
  failures (default 2);
* ``REPRO_MAX_EVENTS`` / ``REPRO_MAX_WALL`` — kernel watchdog budgets
  (events per run / wall seconds per run); setting either arms a
  :class:`repro.sim.engine.Watchdog` inside every scenario build, so
  a stuck simulation raises ``SimulationStalled`` with an event trace
  instead of spinning forever;
* ``REPRO_SERVICE_SHARDS`` / ``REPRO_SERVICE_ENTRIES`` /
  ``REPRO_SERVICE_WORKERS`` — default geometry of the online
  detection service (``python -m repro serve``): shard count,
  per-shard LRU entry budget, and ingest worker processes (see
  :mod:`repro.service`).  CLI flags override all three.

A knob counts as "set" when its value is non-empty and not ``"0"``,
so ``REPRO_CACHE=0`` is an explicit off.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.sim.engine import Watchdog


@dataclass(frozen=True)
class EvalSettings:
    """Scale knobs shared by all figure harnesses.

    Attributes
    ----------
    duration_us:
        Simulated time per run.
    seeds:
        Seed list; every data point runs once per seed.
    pm_values:
        Percentage-of-misbehavior sweep (Figures 4, 5, 9).
    network_sizes:
        Sender-count sweep (Figures 6, 7).
    fig8_pm_values:
        PM levels of the responsiveness study (Figure 8).
    fig8_bin_us:
        Time-bin width of the Figure 8 series (1 s in the paper).
    random_topologies:
        Number of random placements for Figure 9 (30 in the paper).
    random_nodes / random_misbehaving:
        Random-topology population (40 nodes, 5 misbehaving).
    fault_loss_rates:
        ACK/CTS loss-rate sweep of the fault-robustness figure
        (``figure_faults``); 0.0 is the clean reference point.
    detectors:
        Detector specs compared by the ``detectors`` figure (see
        :mod:`repro.detect` for the spec syntax).
    """

    duration_us: int
    seeds: Tuple[int, ...]
    pm_values: Tuple[float, ...] = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0,
                                    60.0, 70.0, 80.0, 90.0, 100.0)
    network_sizes: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
    fig8_pm_values: Tuple[float, ...] = (40.0, 60.0, 80.0)
    fig8_bin_us: int = 1_000_000
    random_topologies: int = 30
    random_nodes: int = 40
    random_misbehaving: int = 5
    fault_loss_rates: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.4)
    detectors: Tuple[str, ...] = ("window", "cusum", "estimator")

    @property
    def duration_s(self) -> float:
        return self.duration_us / 1_000_000


#: The paper's configuration: 50 s x 30 seeds, full sweeps.
PAPER_SETTINGS = EvalSettings(
    duration_us=50_000_000,
    seeds=tuple(range(1, 31)),
)

#: Default scaled-down configuration: same sweeps, shorter runs.
DEFAULT_SETTINGS = EvalSettings(
    duration_us=5_000_000,
    seeds=(1, 2, 3, 4, 5),
    pm_values=(0.0, 20.0, 40.0, 50.0, 60.0, 80.0, 100.0),
    network_sizes=(1, 2, 4, 8, 16, 32, 64),
    random_topologies=5,
)

#: Smallest sanity scale (used by CI smoke benches).
QUICK_SETTINGS = EvalSettings(
    duration_us=1_500_000,
    seeds=(1, 2),
    pm_values=(0.0, 50.0, 100.0),
    network_sizes=(1, 8, 32),
    fig8_pm_values=(40.0, 80.0),
    random_topologies=2,
    random_nodes=20,
    random_misbehaving=3,
    fault_loss_rates=(0.0, 0.3),
)


def active_settings() -> EvalSettings:
    """Settings selected by the environment (see module docstring)."""
    if os.environ.get("REPRO_QUICK"):
        return QUICK_SETTINGS
    if os.environ.get("REPRO_FULL"):
        return PAPER_SETTINGS
    return DEFAULT_SETTINGS


def env_flag(name: str) -> bool:
    """True when env var ``name`` is set to a non-empty value != "0"."""
    value = os.environ.get(name, "")
    return bool(value) and value != "0"


def profile_enabled() -> bool:
    """Whether ``REPRO_PROFILE`` asks for executor profiling output."""
    return env_flag("REPRO_PROFILE")


def cache_enabled() -> bool:
    """Whether ``REPRO_CACHE`` enables the on-disk run cache."""
    return env_flag("REPRO_CACHE")


def _env_number(name: str, cast, minimum):
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = cast(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def run_timeout_s() -> Optional[float]:
    """Per-run timeout from ``REPRO_RUN_TIMEOUT`` (None: no timeout)."""
    return _env_number("REPRO_RUN_TIMEOUT", float, 0.001)


def max_retries() -> int:
    """Retry budget per task from ``REPRO_RETRIES`` (default 2)."""
    value = _env_number("REPRO_RETRIES", int, 0)
    return 2 if value is None else value


def service_shards() -> Optional[int]:
    """Service shard count from ``REPRO_SERVICE_SHARDS`` (None: the
    service default, :data:`repro.service.store.DEFAULT_SHARDS`)."""
    return _env_number("REPRO_SERVICE_SHARDS", int, 1)


def service_shard_entries() -> Optional[int]:
    """Per-shard LRU budget from ``REPRO_SERVICE_ENTRIES`` (None: the
    service default, :data:`repro.service.store.DEFAULT_MAX_ENTRIES`)."""
    return _env_number("REPRO_SERVICE_ENTRIES", int, 1)


def service_workers() -> Optional[int]:
    """Ingest worker processes from ``REPRO_SERVICE_WORKERS`` (None:
    single-process; the ``serve --workers`` flag overrides)."""
    return _env_number("REPRO_SERVICE_WORKERS", int, 1)


def watchdog_from_env() -> Optional[Watchdog]:
    """Kernel watchdog from ``REPRO_MAX_EVENTS`` / ``REPRO_MAX_WALL``.

    Returns ``None`` (no guarded loop, zero overhead) when neither
    knob is set.
    """
    max_events = _env_number("REPRO_MAX_EVENTS", int, 1)
    max_wall = _env_number("REPRO_MAX_WALL", float, 0.001)
    if max_events is None and max_wall is None:
        return None
    return Watchdog(max_events=max_events, max_wall_s=max_wall)
