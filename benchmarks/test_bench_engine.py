"""Events/sec floor of the simulator on the fig6/fig7 grid.

Regenerates the {ZERO,TWO-FLOW} x {802.11,CORRECT} x sizes x seeds
grid in-process and measures the kernel's aggregate events/sec.
Under ``REPRO_BENCH_GATE`` (CI) the rate must meet the floor of its
scale; developer machines only print it.  The grid's figure values are
pinned by the tier-1 golden test ``tests/test_engine_signatures.py``,
not here.
"""

import os
import time

from repro.experiments.scenarios import (
    PROTOCOL_80211,
    PROTOCOL_CORRECT,
    ScenarioConfig,
    run_scenario,
)
from repro.net.topology import circle_topology

#: Events/sec floor per scale: 80% of the rate the committed baseline
#: recorded (quick 76,616 and bench 70,697 events/sec).
FLOOR_EVENTS_PER_SEC = {
    "quick": 76_616 * (1.0 - 0.20),
    "bench": 70_697 * (1.0 - 0.20),
}


def _workload_scale():
    """(scale name, sizes, seeds, duration) of the grid workload."""
    if os.environ.get("REPRO_QUICK"):
        return "quick", (1, 8), (1, 2), 200_000
    return "bench", (1, 4, 16, 64), (1, 2), 400_000


def _workload_configs(sizes, seeds, duration_us):
    """The fig6/fig7 grid: both scenario families, both protocols."""
    configs = []
    for with_interferers in (False, True):
        for protocol in (PROTOCOL_80211, PROTOCOL_CORRECT):
            for n in sizes:
                topo = circle_topology(n, with_interferers=with_interferers)
                for seed in seeds:
                    configs.append(ScenarioConfig(
                        topology=topo, protocol=protocol,
                        duration_us=duration_us, seed=seed,
                    ))
    return configs


def test_events_per_sec_floor():
    scale, sizes, seeds, duration_us = _workload_scale()
    configs = _workload_configs(sizes, seeds, duration_us)

    start = time.perf_counter()
    results = [run_scenario(config) for config in configs]
    wall_s = time.perf_counter() - start
    measured = round(sum(r.events_processed for r in results) / wall_s)
    print(f"\n[{scale}] {len(configs)} runs: {measured:,} events/sec")

    if os.environ.get("REPRO_BENCH_GATE"):
        floor = FLOOR_EVENTS_PER_SEC[scale]
        assert measured >= floor, (
            f"kernel regression: {measured:,} ev/s is below the "
            f"{floor:,.0f} ev/s floor of the {scale} scale"
        )
