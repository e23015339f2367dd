"""Golden signatures of the fig6/fig7 grid.

Regenerates the {ZERO,TWO-FLOW} x {802.11,CORRECT} x sizes x seeds grid
that ``benchmarks/test_bench_engine.py`` times and digests the values
each run contributes to fig6/fig7: events dispatched, average
throughput and Jain fairness.  Any change to the kernel, medium, MAC or
RNG streams that moves one of those values moves the digest, so a
refactor that claims to be behaviour-preserving must leave both
signatures untouched.
"""

import hashlib
import json

import pytest

from repro.experiments.scenarios import (
    PROTOCOL_80211,
    PROTOCOL_CORRECT,
    ScenarioConfig,
    run_scenario,
)
from repro.net.topology import circle_topology


def grid_signature(sizes, seeds, duration_us):
    results = [
        run_scenario(ScenarioConfig(
            topology=circle_topology(n, with_interferers=with_interferers),
            protocol=protocol, duration_us=duration_us, seed=seed,
        ))
        for with_interferers in (False, True)
        for protocol in (PROTOCOL_80211, PROTOCOL_CORRECT)
        for n in sizes
        for seed in seeds
    ]
    sig = [(r.events_processed, round(r.avg_throughput_bps, 6),
            round(r.fairness_index, 9)) for r in results]
    return hashlib.sha256(json.dumps(sig).encode()).hexdigest()[:16]


def test_quick_grid_signature():
    assert grid_signature((1, 8), (1, 2), 200_000) == "46ec1662fff2d976"


@pytest.mark.slow
def test_bench_grid_signature():
    assert grid_signature((1, 4, 16, 64), (1, 2), 400_000) \
        == "6fe8dbb6cb090405"
