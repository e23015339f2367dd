"""Integration tests for the modified (CORRECT) MAC."""

import pytest

from repro.core.params import ProtocolConfig
from repro.core.sender_policy import (
    AttemptLyingPolicy,
    PartialCountdownPolicy,
)
from repro.experiments import scenarios
from repro.experiments.scenarios import ScenarioConfig, build_scenario
from repro.mac.correct import CorrectMac
from repro.net.topology import circle_topology
from repro.sim.engine import SimulationError
from repro.sim.rng import RngRegistry

from tests.conftest import World


def two_node_world(**sender_kwargs):
    w = World()
    w.add_receiver(CorrectMac, 0, (0.0, 0.0))
    w.add_sender(CorrectMac, 1, (150.0, 0.0), dst=0, **sender_kwargs)
    return w


class TestAssignmentRoundTrip:
    def test_sender_adopts_receiver_assignment(self):
        w = two_node_world()
        w.run(500_000)
        receiver = w.nodes[0].mac
        sender = w.nodes[1].mac
        monitor = receiver.monitor_for(1)
        # The sender's stored assignment equals the monitor's current one.
        assert sender._assignments.get(0) == monitor.current_assignment

    def test_honest_sender_rarely_penalised(self):
        w = two_node_world()
        w.run(2_000_000)
        stats = w.collector.flows[1]
        assert stats.delivered_packets > 200
        assert stats.deviations <= stats.delivered_packets * 0.05
        assert stats.diagnosed_packets == 0

    def test_honest_throughput_matches_80211_closely(self):
        from repro.mac.dcf import DcfMac
        w1 = World(seed=9)
        w1.add_receiver(DcfMac, 0, (0.0, 0.0))
        w1.add_sender(DcfMac, 1, (150.0, 0.0), dst=0)
        w1.run(2_000_000)
        w2 = World(seed=9)
        w2.add_receiver(CorrectMac, 0, (0.0, 0.0))
        w2.add_sender(CorrectMac, 1, (150.0, 0.0), dst=0)
        w2.run(2_000_000)
        t_80211 = w1.collector.throughput_bps(1, 2_000_000)
        t_correct = w2.collector.throughput_bps(1, 2_000_000)
        assert abs(t_correct - t_80211) / t_80211 < 0.1


class TestCheaterHandling:
    def test_full_cheat_diagnosed(self):
        w = two_node_world(policy=PartialCountdownPolicy(100.0))
        w.run(1_000_000)
        receiver = w.nodes[0].mac
        assert receiver.monitor_for(1).is_misbehaving
        stats = w.collector.flows[1]
        assert stats.diagnosed_packets > stats.delivered_packets * 0.8

    def test_moderate_cheat_penalised(self):
        w = two_node_world(policy=PartialCountdownPolicy(60.0))
        w.run(1_000_000)
        stats = w.collector.flows[1]
        assert stats.deviations > 0
        assert stats.penalty_slots > 0

    def test_correction_restrains_cheater_under_contention(self):
        """The headline: with CORRECT the cheater gains little."""
        w = World(seed=5)
        w.add_receiver(CorrectMac, 0, (0.0, 0.0))
        w.add_sender(CorrectMac, 1, (150.0, 0.0), dst=0)
        w.add_sender(CorrectMac, 2, (-150.0, 0.0), dst=0)
        w.add_sender(CorrectMac, 3, (0.0, 150.0), dst=0,
                     policy=PartialCountdownPolicy(60.0))
        w.run(4_000_000)
        honest = [w.collector.throughput_bps(i, 4_000_000) for i in (1, 2)]
        cheat = w.collector.throughput_bps(3, 4_000_000)
        avg_honest = sum(honest) / 2
        assert cheat < avg_honest * 1.5

    def test_refuse_diagnosed_starves_cheater(self):
        w = World(seed=6)
        w.add_receiver(CorrectMac, 0, (0.0, 0.0), refuse_diagnosed=True)
        w.add_sender(CorrectMac, 1, (150.0, 0.0), dst=0)
        w.add_sender(
            CorrectMac, 2, (-150.0, 0.0), dst=0,
            policy=PartialCountdownPolicy(100.0),
        )
        w.run(3_000_000)
        honest = w.collector.throughput_bps(1, 3_000_000)
        cheat = w.collector.throughput_bps(2, 3_000_000)
        # Once diagnosed, the cheater gets no CTS: throughput collapses.
        assert cheat < honest * 0.5


class TestAttemptAudit:
    def test_attempt_liar_proven_by_audit(self):
        w = World(seed=7)
        w.add_receiver(CorrectMac, 0, (0.0, 0.0), enable_attempt_audit=True)
        w.add_sender(CorrectMac, 1, (150.0, 0.0), dst=0,
                     policy=AttemptLyingPolicy(50.0))
        # Crank the audit so the short test reliably probes.
        receiver = w.nodes[0].mac
        receiver.attempt_auditor.drop_probability = 0.2
        receiver.attempt_auditor.suspicion_threshold = 3
        w.run(2_000_000)
        assert receiver.attempt_auditor.drops_issued > 0
        assert receiver.attempt_auditor.is_proven(1)

    def test_honest_sender_survives_audits(self):
        w = World(seed=8)
        w.add_receiver(CorrectMac, 0, (0.0, 0.0), enable_attempt_audit=True)
        w.add_sender(CorrectMac, 1, (150.0, 0.0), dst=0)
        receiver = w.nodes[0].mac
        receiver.attempt_auditor.drop_probability = 0.2
        receiver.attempt_auditor.suspicion_threshold = 3
        w.run(2_000_000)
        assert receiver.attempt_auditor.drops_issued > 0
        assert not receiver.attempt_auditor.is_proven(1)
        # Audited drops cost little throughput.
        assert w.collector.flows[1].delivered_packets > 200


class TestReceiverAudit:
    def test_g_based_assignments_pass_sender_audit(self):
        cfg = ProtocolConfig(use_deterministic_g=True)
        w = World(seed=9)
        w.add_receiver(CorrectMac, 0, (0.0, 0.0), config=cfg)
        w.add_sender(
            CorrectMac, 1, (150.0, 0.0), dst=0,
            config=cfg, audit_sender_assignments=True,
        )
        w.run(1_000_000)
        sender = w.nodes[1].mac
        auditor = sender.receiver_auditor_for(0)
        assert auditor is not None
        assert auditor.packets_audited > 50
        assert auditor.violations == 0
        assert w.collector.receiver_audit_events == []


class TestOnlyReceiversCountIdleSlots:
    """Only a flow's destination measures ``B_act``, so only it builds
    an idle-slot counter and its ``idle/<node>`` stream."""

    def test_scenario_builds_counters_on_flow_destinations_only(
            self, monkeypatch):
        registries = []

        class RecordingRegistry(RngRegistry):
            def __init__(self, master_seed):
                super().__init__(master_seed)
                registries.append(self)

        monkeypatch.setattr(scenarios, "RngRegistry", RecordingRegistry)
        # TWO-FLOW: the circle's senders and the interferer sources A
        # and C send; R (0) and the interferer sinks B and D receive.
        topology = circle_topology(4, with_interferers=True)
        config = ScenarioConfig(topology=topology, duration_us=200_000)
        sim, nodes, _ = build_scenario(config)
        for node in nodes:
            node.start()
        sim.run(until=config.duration_us)
        (registry,) = registries
        destinations = {flow.dst for flow in topology.flows}
        assert destinations == {0, 102, 104}
        for node in nodes:
            node_id = node.mac.node_id
            receives = node_id in destinations
            assert registry.has_stream(f"idle/{node_id}") is receives
            assert (node.mac.idle_counter is not None) is receives
        assert nodes[0].mac.monitor_for(1).packets_observed > 0

    def test_counterless_mac_asked_to_judge_names_the_node(self):
        w = World()
        w.add_receiver(CorrectMac, 0, (0.0, 0.0), receives_flows=False)
        w.add_sender(CorrectMac, 1, (150.0, 0.0), dst=0)
        assert not w.registry.has_stream("idle/0")
        with pytest.raises(SimulationError, match="node 0"):
            w.run(500_000)
