"""Tests for the process-wide geometry table and transmission lifetimes.

Link, sensing and capture probabilities are shared between runs on the
same positions (``repro.phy.medium.geometry_for``); sharing must never
change a result, and finished transmissions must not leave reference
cycles behind for the collector.
"""

import ast
import gc
import os
import pathlib
import subprocess
import sys

import pytest

from repro.experiments.scenarios import (
    ScenarioConfig,
    build_scenario,
    run_scenario,
)
from repro.net.topology import circle_topology
from repro.phy import medium as medium_module
from repro.phy.medium import GEOMETRY_TABLE_SIZE, Transmission, geometry_for
from repro.phy.propagation import LinkProbabilities, ShadowingModel

from tests.test_medium import add_listener, make_world

REPO = pathlib.Path(__file__).resolve().parents[1]


def two_flow_config():
    return ScenarioConfig(
        topology=circle_topology(16, with_interferers=True),
        duration_us=200_000, seed=3,
    )


def signature(result):
    return (result.events_processed, result.avg_throughput_bps,
            result.fairness_index)


@pytest.fixture
def empty_table():
    """Run the test against an empty table, then restore the old one."""
    saved = list(medium_module._GEOMETRY_TABLE.items())
    medium_module._GEOMETRY_TABLE.clear()
    yield medium_module._GEOMETRY_TABLE
    medium_module._GEOMETRY_TABLE.clear()
    medium_module._GEOMETRY_TABLE.update(saved)


class TestSharing:
    def test_cold_warm_and_fresh_process_runs_agree(self, empty_table):
        cold = signature(run_scenario(two_flow_config()))
        assert len(empty_table) == 1
        shared = next(iter(empty_table.values()))
        warm = signature(run_scenario(two_flow_config()))
        assert list(empty_table.values()) == [shared]
        script = (
            "from tests.test_geometry import signature, two_flow_config\n"
            "from repro.experiments.scenarios import run_scenario\n"
            "print(repr(signature(run_scenario(two_flow_config()))))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], cwd=REPO, check=True,
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": f"{REPO / 'src'}:{REPO}"},
        ).stdout
        fresh = ast.literal_eval(out.strip())
        assert warm == cold
        assert fresh == cold

    def test_models_on_same_positions_never_share(self, empty_table):
        media = []
        for sigma in (1.0, 0.0):
            sim, medium = make_world(sigma=sigma)
            add_listener(sim, medium, 1, (0.0, 0.0))
            add_listener(sim, medium, 2, (550.0, 0.0))
            media.append(medium)
        noisy, exact = (m.link(1, 2) for m in media)
        assert media[0]._geometry is not media[1]._geometry
        assert len(empty_table) == 2
        assert noisy.sense == pytest.approx(0.5)
        assert exact.sense == 1.0

    def test_same_positions_share_one_entry(self, empty_table):
        media = []
        for _ in range(2):
            sim, medium = make_world(sigma=1.0)
            add_listener(sim, medium, 1, (0.0, 0.0))
            add_listener(sim, medium, 2, (100.0, 0.0))
            media.append(medium)
        assert media[0].link(1, 2) is media[1].link(1, 2)
        assert len(empty_table) == 1


class TestMobility:
    def test_moving_back_restores_links(self):
        sim, medium = make_world(sigma=1.0)
        add_listener(sim, medium, 1, (0.0, 0.0))
        add_listener(sim, medium, 2, (100.0, 0.0))
        add_listener(sim, medium, 3, (0.0, 400.0))
        pairs = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
        original = {pair: medium.link(*pair) for pair in pairs}
        medium.update_position(2, (600.0, 50.0))
        assert medium.link(1, 2) != original[(1, 2)]
        medium.update_position(2, (100.0, 0.0))
        assert {pair: medium.link(*pair) for pair in pairs} == original


class TestBound:
    def test_table_never_exceeds_its_bound(self, empty_table):
        model = ShadowingModel()
        first = geometry_for(model, ((1, (0.0, 0.0)),))
        for i in range(1, GEOMETRY_TABLE_SIZE + 1):
            geometry_for(model, ((1, (float(i), 0.0)),))
        assert len(empty_table) == GEOMETRY_TABLE_SIZE
        # The least recently used entry (the first) was evicted.
        assert geometry_for(model, ((1, (0.0, 0.0)),)) is not first

    def test_lookup_refreshes_recency(self, empty_table):
        model = ShadowingModel()
        first = geometry_for(model, ((1, (0.0, 0.0)),))
        for i in range(1, GEOMETRY_TABLE_SIZE + 1):
            geometry_for(model, ((1, (0.0, 0.0)),))
            geometry_for(model, ((1, (float(i), 0.0)),))
        assert geometry_for(model, ((1, (0.0, 0.0)),)) is first


class TestGarbage:
    def test_finished_run_leaves_no_transmission_or_link_cycles(self):
        """A run's finished transmissions and its links need no collector.

        The single-worker executor suspends GC for a whole sweep, so
        anything a run leaves in reference cycles piles up until the
        sweep ends.  Only frames still on the air at the horizon (and
        the finished frames they overlapped) belong to the run's
        cyclic object graph.
        """
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sim, nodes, collector = build_scenario(two_flow_config())
            for node in nodes:
                node.start()
            sim.run(until=two_flow_config().duration_us)
            assert sim.events_processed > 0
            on_air = nodes[0].mac.medium._active
            pinned = {id(tx) for tx in on_air}
            pinned.update(id(o) for tx in on_air for o in tx.overlaps)
            del sim, nodes, collector, on_air
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [
                obj for obj in gc.garbage
                if isinstance(obj, (Transmission, LinkProbabilities))
            ]
            unexpected = [
                type(obj).__name__ for obj in leaked if id(obj) not in pinned
            ]
            del leaked
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert unexpected == []
