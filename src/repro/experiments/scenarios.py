"""Scenario assembly: topology + protocol -> a runnable simulation.

:func:`run_scenario` is the single entry point every figure harness
uses: it builds the kernel, medium, MACs, traffic sources and metrics
collector for a :class:`ScenarioConfig`, runs to the horizon, and
returns a :class:`RunResult` exposing the paper's metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set

from repro.core.params import PAPER_CONFIG, ProtocolConfig
from repro.detect import detector_factory
from repro.experiments.settings import watchdog_from_env
from repro.core.sender_policy import ConformingPolicy, policy_for_pm
from repro.faults import FaultInjector, FaultProfile
from repro.mac.correct import CorrectMac
from repro.mac.dcf import DcfMac
from repro.mac.timing import with_clock_drift
from repro.metrics.collector import MetricsCollector
from repro.metrics.fairness import jain_index
from repro.net.node import Node, build_node
from repro.net.topology import Topology
from repro.net.traffic import BackloggedSource, CbrSource
from repro.phy.constants import PhyTimings
from repro.phy.medium import Medium
from repro.phy.propagation import ShadowingModel
from repro.sim.engine import Simulator, Watchdog
from repro.sim.rng import RngRegistry

#: Known protocol names.
PROTOCOL_80211 = "802.11"
PROTOCOL_CORRECT = "correct"


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one simulation run.

    Attributes
    ----------
    topology:
        Node placement and flows (see :mod:`repro.net.topology`).
    protocol:
        ``"802.11"`` (baseline) or ``"correct"`` (the paper's scheme).
    duration_us:
        Simulated horizon (the paper runs 50 s).
    seed:
        Master seed; all randomness derives from it.
    payload_bytes:
        DATA payload (512 in the paper).
    protocol_config:
        CORRECT parameters (ignored by the baseline).
    policy_overrides:
        Optional per-sender policy objects replacing the PM-derived
        default (used to inject exotic misbehaviors).
    enable_attempt_audit / audit_sender_assignments / refuse_diagnosed:
        CORRECT extension switches (off by default, as in the paper's
        main evaluation).
    faults:
        Optional :class:`~repro.faults.FaultProfile`.  ``None`` or a
        no-op profile means the fault layer is entirely absent: no
        injector object, no fault RNG streams, results bit-identical
        to pre-fault builds.  Participates in cache fingerprints like
        every other field.
    detector:
        Optional detector spec string (see :mod:`repro.detect`), e.g.
        ``"cusum:h=2.0,k=0.25"``.  ``None`` keeps the paper's W/THRESH
        window detector — the exact pre-registry receiver pipeline,
        bit-identical results.  Only valid with the CORRECT protocol
        (the 802.11 baseline has no receiver-side monitor to host a
        detector).
    """

    topology: Topology
    protocol: str = PROTOCOL_CORRECT
    duration_us: int = 50_000_000
    seed: int = 1
    payload_bytes: int = 512
    protocol_config: ProtocolConfig = PAPER_CONFIG
    policy_overrides: Dict[int, ConformingPolicy] = field(default_factory=dict)
    enable_attempt_audit: bool = False
    audit_sender_assignments: bool = False
    refuse_diagnosed: bool = False
    adaptive_thresh: bool = False
    use_rts_cts: bool = True
    faults: Optional[FaultProfile] = None
    detector: Optional[str] = None

    def with_seed(self, seed: int) -> "ScenarioConfig":
        """Copy of this config under a different seed."""
        return replace(self, seed=seed)


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    config: ScenarioConfig
    collector: MetricsCollector
    events_processed: int
    #: Nonzero fault-injector counters (frames dropped/corrupted, jam
    #: bursts, crashes...); empty when the run had no fault profile.
    faults_injected: Dict[str, int] = field(default_factory=dict)

    @property
    def duration_us(self) -> int:
        return self.config.duration_us

    # ------------------------------------------------------------------
    # Paper metrics
    # ------------------------------------------------------------------
    @property
    def correct_diagnosis_percent(self) -> float:
        return self.collector.correct_diagnosis_percent()

    @property
    def misdiagnosis_percent(self) -> float:
        return self.collector.misdiagnosis_percent()

    @property
    def avg_throughput_bps(self) -> float:
        """Average throughput per well-behaved measured sender ("AVG")."""
        return self.collector.average_wellbehaved_throughput(self.duration_us)

    @property
    def msb_throughput_bps(self) -> float:
        """Average throughput per misbehaving sender ("MSB")."""
        return self.collector.average_misbehaving_throughput(self.duration_us)

    @property
    def fairness_index(self) -> float:
        """Jain's index over the measured senders' throughputs."""
        return jain_index(self.collector.throughputs(self.duration_us).values())

    def throughputs(self) -> Dict[int, float]:
        """Per-sender throughput (bps) of the measured senders."""
        return self.collector.throughputs(self.duration_us)

    # ------------------------------------------------------------------
    # Detector evaluation metrics (see repro.detect)
    # ------------------------------------------------------------------
    @property
    def detection_rate_percent(self) -> float:
        """% of misbehaving senders' judged packets found diagnosed."""
        return self.collector.detection_rate_percent()

    @property
    def false_alarm_percent(self) -> float:
        """% of honest senders' judged packets (wrongly) diagnosed."""
        return self.collector.false_alarm_percent()

    def detection_latency_packets(self, src: int) -> Optional[int]:
        """Judged packets until ``src`` first stood diagnosed (or None)."""
        return self.collector.detection_latency_packets(src)

    def detection_latency_us(self, src: int) -> Optional[int]:
        """Sim time (us) when ``src`` first stood diagnosed (or None)."""
        return self.collector.detection_latency_us(src)


def _make_mac(config: ScenarioConfig, sim, medium, registry, collector,
              node_id: int, policy: ConformingPolicy,
              timings: Optional[PhyTimings] = None):
    if config.protocol == PROTOCOL_80211:
        if config.detector is not None:
            raise ValueError(
                "detector specs require the 'correct' protocol: the "
                "802.11 baseline has no receiver-side monitor"
            )
        return DcfMac(
            sim, medium, node_id, registry, collector,
            payload_bytes=config.payload_bytes, policy=policy,
            timings=timings,
            use_rts_cts=config.use_rts_cts,
        )
    if config.protocol == PROTOCOL_CORRECT:
        factory = (
            detector_factory(config.detector, config.protocol_config)
            if config.detector is not None else None
        )
        return CorrectMac(
            sim, medium, node_id, registry, collector,
            payload_bytes=config.payload_bytes, policy=policy,
            timings=timings,
            use_rts_cts=config.use_rts_cts,
            config=config.protocol_config,
            enable_attempt_audit=config.enable_attempt_audit,
            audit_sender_assignments=config.audit_sender_assignments,
            refuse_diagnosed=config.refuse_diagnosed,
            adaptive_thresh=config.adaptive_thresh,
            detector_factory=factory,
        )
    raise ValueError(f"unknown protocol {config.protocol!r}")


def build_scenario(config: ScenarioConfig,
                   watchdog: Optional[Watchdog] = None, trace=None):
    """Construct (but do not run) a scenario; returns (sim, nodes, collector).

    Exposed separately from :func:`run_scenario` for tests that want
    to poke at intermediate state.  ``watchdog`` arms the kernel's
    guarded loop (default: whatever ``REPRO_MAX_EVENTS``/
    ``REPRO_MAX_WALL`` ask for); the guards only raise, they never
    perturb results.

    ``trace`` optionally attaches a :class:`~repro.sim.trace.TraceLog`
    to the medium before any node is built, so MAC decisions are
    captured from t=0.  It is deliberately *not* a config field:
    tracing never changes behaviour (no RNG draws, no scheduling), so
    it must not participate in run-cache fingerprints.

    When ``config.faults`` is set (and not a no-op) a
    :class:`~repro.faults.FaultInjector` is built, wired into the
    medium and MACs, and left on ``sim.fault_injector`` for callers
    that want its counters.
    """
    if watchdog is None:
        watchdog = watchdog_from_env()
    faults = config.faults
    if faults is not None and faults.is_noop():
        faults = None
    drifts = (
        {d.node: d.drift_ppm for d in faults.clock_drifts} if faults else {}
    )
    topo = config.topology
    sim = Simulator(watchdog=watchdog)
    sim.fault_injector = None
    registry = RngRegistry(config.seed)
    medium = Medium(
        sim, ShadowingModel(), rng=registry.stream("shadowing"),
        timings=PhyTimings(),
    )
    if trace is not None:
        medium.trace = trace
    measured: Set[int] = {f.src for f in topo.flows if f.measured}
    collector = MetricsCollector(
        misbehaving=set(topo.misbehaving_senders), measured_senders=measured
    )
    flows_by_src = {f.src: f for f in topo.flows}
    nodes: List[Node] = []
    for node_id in topo.node_ids:
        flow = flows_by_src.get(node_id)
        if flow is not None:
            policy = config.policy_overrides.get(
                node_id, policy_for_pm(flow.pm_percent)
            )
            if flow.rate_bps is None:
                source = BackloggedSource(flow.dst, config.payload_bytes)
            else:
                source = CbrSource(
                    sim, flow.dst, flow.rate_bps, config.payload_bytes
                )
            # Pre-register the flow so zero-delivery senders still
            # appear (with zero throughput) in fairness computations.
            collector._flow(node_id)
        else:
            policy = ConformingPolicy()
            source = None
        node_timings = (
            with_clock_drift(medium.timings, drifts[node_id])
            if node_id in drifts else None
        )
        mac = _make_mac(config, sim, medium, registry, collector, node_id,
                        policy, timings=node_timings)
        nodes.append(build_node(medium, mac, topo.positions[node_id], source))
    if faults is not None:
        injector = FaultInjector(sim, registry, faults)
        injector.install(medium, {node.mac.node_id: node.mac for node in nodes})
        sim.fault_injector = injector
    return sim, nodes, collector


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Build and run one scenario to its horizon."""
    sim, nodes, collector = build_scenario(config)
    for node in nodes:
        node.start()
    sim.run(until=config.duration_us)
    injector = sim.fault_injector
    return RunResult(
        config=config, collector=collector,
        events_processed=sim.events_processed,
        faults_injected=injector.summary() if injector is not None else {},
    )
