"""Sustained-throughput benchmark of the online detection service.

Drives the Zipf load generator (:mod:`repro.service.loadgen`) through
``DetectionService`` at the acceptance geometry — at least 100k
distinct senders against an 8 x 10k-entry sharded LRU store — and
reports sustained observations/sec plus p99 first-sight-to-flag
latency.

Two columns per scale: the single-process ingest hot path (scale key
``quick``/``bench``/``full``) and the 4-worker
:class:`~repro.service.workers.IngestWorkerPool` end to end (scale
key suffixed ``-w4``: route + ship + worker decode + fold).  A
multi-worker number from a host with fewer cores than workers
measures routing overhead, not speedup, so the ``-w4`` floor and the
>= 2x multi-worker speedup target are gated (under
``REPRO_BENCH_GATE``) only on hosts with 4+ cores.

Correctness invariants (no honest sender flagged, cheaters flagged,
distinct-sender floor, evictions actually exercised) are asserted on
every run.  The obs/sec floors in :data:`FLOOR_OBS_PER_SEC` are
enforced only under ``REPRO_BENCH_GATE`` so noisy developer machines
don't flake.
"""

from __future__ import annotations

import dataclasses
import os

from repro.service.loadgen import BENCH_SCALES, available_cores, run_bench

#: Hard obs/sec floor the CI gate enforces at every scale.
ABSOLUTE_FLOOR_OBS_PER_SEC = 50_000
#: Per-scale floors above the absolute one: 70% of the rate the
#: committed baseline recorded (quick 82,906 and bench 119,007
#: obs/sec).  Every other scale key, ``full`` and ``-w4`` included,
#: is held to the absolute floor.
FLOOR_OBS_PER_SEC = {
    "quick": max(ABSOLUTE_FLOOR_OBS_PER_SEC, 82_906 * (1.0 - 0.30)),
    "bench": max(ABSOLUTE_FLOOR_OBS_PER_SEC, 119_007 * (1.0 - 0.30)),
}

#: Worker count of the multi-worker column.
POOL_WORKERS = 4
#: Multi-worker speedup target vs the same run's single-process rate
#: (gated only on hosts where the workers can actually run in
#: parallel — see ``MIN_CORES_FOR_SPEEDUP_GATE``).
POOL_SPEEDUP_TARGET = 2.0
MIN_CORES_FOR_SPEEDUP_GATE = 4


def _scale() -> str:
    if os.environ.get("REPRO_QUICK"):
        return "quick"
    if os.environ.get("REPRO_FULL"):
        return "full"
    return "bench"


def _bench(config, scale_key, gate_floor=True):
    result = run_bench(config)  # asserts no honest sender flagged

    # The acceptance geometry, checked at every scale on every run.
    assert result.distinct_senders >= 100_000, (
        f"only {result.distinct_senders:,} distinct senders; the bench "
        f"must churn >= 100k keys to exercise the LRU budget"
    )
    assert result.evictions > 0, (
        "no evictions: the stream never exceeded the per-shard entry "
        "budget, so bounded memory was not exercised"
    )
    assert result.flagged > 0
    assert result.p99_flag_latency_s is not None

    measured = round(result.obs_per_sec)
    print(f"\n[{scale_key}] {measured:,} obs/sec, p99 flag latency "
          f"{result.p99_flag_latency_s * 1e3:.1f} ms, "
          f"{result.evictions:,} evictions")

    if os.environ.get("REPRO_BENCH_GATE") and gate_floor:
        floor = FLOOR_OBS_PER_SEC.get(scale_key, ABSOLUTE_FLOOR_OBS_PER_SEC)
        assert measured >= floor, (
            f"service ingest regression [{scale_key}]: "
            f"{measured:,} obs/sec is below the gate floor {floor:,.0f}"
        )
    return result


def test_service_sustained_throughput():
    scale = _scale()
    _bench(BENCH_SCALES[scale], scale)


def test_service_multi_worker_throughput():
    """The multi-worker column: the same workload through a 4-worker
    pool, under its own scale key and — on multi-core hosts under the
    gate — required to beat the single-process rate by the 2x
    target."""
    scale = _scale()
    config = dataclasses.replace(BENCH_SCALES[scale], workers=POOL_WORKERS)
    cores = available_cores()
    # On a host that can't run the workers in parallel (fewer cores
    # than workers), the pool measures pure routing/IPC overhead —
    # report the honest number, but don't hold it to the obs/sec
    # floor a parallel host would meet.
    pool = _bench(
        config, f"{scale}-w{POOL_WORKERS}",
        gate_floor=cores >= MIN_CORES_FOR_SPEEDUP_GATE,
    )

    if (os.environ.get("REPRO_BENCH_GATE")
            and cores >= MIN_CORES_FOR_SPEEDUP_GATE):
        single = run_bench(BENCH_SCALES[scale])
        speedup = pool.obs_per_sec / single.obs_per_sec
        assert speedup >= POOL_SPEEDUP_TARGET, (
            f"{POOL_WORKERS}-worker pool sustained only "
            f"{pool.obs_per_sec:,.0f} obs/sec vs "
            f"{single.obs_per_sec:,.0f} single-process "
            f"({speedup:.2f}x) on a {cores}-core host; the "
            f"multi-worker geometry must deliver >= "
            f"{POOL_SPEEDUP_TARGET:.0f}x there"
        )
