"""Micro-benchmarks of the simulator substrate itself.

These are classic pytest-benchmark timings (multiple rounds) for the
hot paths: kernel event dispatch, the medium's transmission pipeline,
and a full saturated-cell simulation second.  They track the cost of
the substrate that every figure harness pays.
"""

from repro.experiments.scenarios import (
    PROTOCOL_CORRECT,
    ScenarioConfig,
    run_scenario,
)
from repro.mac.frames import Frame, FrameKind
from repro.net.topology import circle_topology
from repro.phy.constants import PhyTimings
from repro.phy.medium import Medium
from repro.phy.propagation import ShadowingModel
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


def test_kernel_event_throughput(benchmark):
    """Schedule + dispatch cost for 10k chained events."""

    def run_events():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 10_000:
                sim.schedule(1, tick)

        sim.schedule(0, tick)
        sim.run()
        return count

    assert benchmark(run_events) == 10_000


class _NullListener:
    def __init__(self, node_id):
        self.node_id = node_id

    def on_channel_busy(self):
        pass

    def on_channel_idle(self):
        pass

    def on_marginal_change(self):
        pass

    def on_frame(self, frame):
        pass

    def on_frame_corrupted(self):
        pass


def test_medium_transmission_pipeline(benchmark):
    """Cost of 1k transmissions through a 12-listener medium."""

    def run_medium():
        sim = Simulator()
        registry = RngRegistry(1)
        medium = Medium(sim, ShadowingModel(),
                        rng=registry.stream("shadowing"),
                        timings=PhyTimings())
        for i in range(12):
            medium.register(_NullListener(i), (i * 60.0, 0.0))
        frame = Frame(kind=FrameKind.DATA, src=0, dst=1, size_bytes=512,
                      duration_us=0, payload_bytes=512)
        for k in range(1000):
            sim.schedule(k * 300, lambda: medium.start_transmission(
                0, frame, 200
            ))
        sim.run()
        return medium.transmissions_started

    assert benchmark(run_medium) == 1000


def test_saturated_cell_simulation_second(benchmark):
    """Wall time of one simulated second, 8 saturated CORRECT senders."""
    topo = circle_topology(8, misbehaving=(3,), pm_percent=50.0)
    config = ScenarioConfig(topology=topo, protocol=PROTOCOL_CORRECT,
                            duration_us=1_000_000, seed=1)

    result = benchmark(run_scenario, config)
    assert result.collector.deliveries


# ----------------------------------------------------------------------
# Events/sec trajectory (BENCH_engine.json)
# ----------------------------------------------------------------------
#
# Every run of this module appends the kernel's aggregate events/sec on
# the fig6/fig7 regeneration workload to ``benchmarks/BENCH_engine.json``
# so kernel speed is tracked PR over PR (see benchmarks/README.md for
# the file format and how to re-baseline after an intentional change).

import hashlib
import json
import os
import pathlib
import time
from datetime import datetime, timezone

from repro.experiments.scenarios import PROTOCOL_80211

TRAJECTORY_PATH = pathlib.Path(__file__).parent / "BENCH_engine.json"
#: Keep the trajectory bounded; old entries age out.
TRAJECTORY_CAP = 200
#: Tolerated events/sec drop vs the committed baseline (CI gate).
REGRESSION_TOLERANCE = 0.20


def _workload_scale():
    """(scale name, sizes, seeds, duration) of the trajectory workload."""
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


def _signature(results):
    """Digest of the figure values each run contributes to fig6/fig7."""
    sig = [(r.events_processed, round(r.avg_throughput_bps, 6),
            round(r.fairness_index, 9)) for r in results]
    return hashlib.sha256(json.dumps(sig).encode()).hexdigest()[:16]


def _load_trajectory():
    if TRAJECTORY_PATH.exists():
        return json.loads(TRAJECTORY_PATH.read_text())
    return {"schema": 1,
            "workload": "fig6/fig7 grid: {ZERO,TWO-FLOW} x {802.11,correct}"
                        " x network sizes x seeds",
            "baselines": {}, "trajectory": []}


def test_events_per_sec_trajectory():
    scale, sizes, seeds, duration_us = _workload_scale()
    configs = _workload_configs(sizes, seeds, duration_us)

    start = time.perf_counter()
    results = [run_scenario(config) for config in configs]
    scalar_wall = time.perf_counter() - start
    events = sum(r.events_processed for r in results)
    signature = _signature(results)

    record = {
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": scale,
        "runs": len(configs),
        "events": events,
        "signature": signature,
        "scalar": {"wall_s": round(scalar_wall, 3),
                   "events_per_sec": round(events / scalar_wall)},
    }

    data = _load_trajectory()
    baseline = data["baselines"].get(scale)
    if baseline is None or os.environ.get("REPRO_BENCH_REBASE"):
        data["baselines"][scale] = record
        baseline = record
    data["trajectory"] = (data["trajectory"] + [record])[-TRAJECTORY_CAP:]
    TRAJECTORY_PATH.write_text(json.dumps(data, indent=2) + "\n")

    # Bit-identity versus the committed baseline is enforced on every
    # run; the events/sec floor only under REPRO_BENCH_GATE (CI) so
    # noisy developer machines don't flake.
    assert signature == baseline["signature"], (
        f"fig6/fig7 values changed: {signature} != baseline "
        f"{baseline['signature']} — results are no longer bit-identical"
    )
    if os.environ.get("REPRO_BENCH_GATE"):
        floor = baseline["scalar"]["events_per_sec"] * (
            1.0 - REGRESSION_TOLERANCE
        )
        measured = record["scalar"]["events_per_sec"]
        assert measured >= floor, (
            f"kernel regression: {measured:,.0f} ev/s is more than "
            f"{REGRESSION_TOLERANCE:.0%} below the committed baseline "
            f"{baseline['scalar']['events_per_sec']:,.0f} ev/s"
        )
