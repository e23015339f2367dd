"""Bridge between the in-sim receiver pipeline and the service.

The service's contract is that hosting a detector *changes nothing*
about its verdicts: the ``window`` detector served online must produce
the identical flag/clear sequence per sender as the same detector
inside the in-sim :class:`~repro.core.monitor.SenderMonitor` on the
same observation stream (asserted bit-identically in
``tests/test_service.py``).  This module supplies both halves of that
proof, and the production path for replaying recorded traces:

* :class:`RecordingDetector` — a transparent wrapper capturing every
  ``(observation, verdict)`` a monitor's detector sees, with a global
  sequence number so streams from many monitors merge back into exact
  arrival order.  It draws no randomness and schedules nothing, so a
  recorded run stays bit-identical to an unrecorded one.
* :func:`record_scenario_stream` — run a scenario with recording
  wrappers installed on every CORRECT receiver and return the merged
  judged-observation stream (the sender's first packet is never
  judged, per Section 4.1, so it never reaches the detector *or* the
  wire — the streams agree by construction).
* :func:`replay_stream` — feed a recorded stream through a
  :class:`~repro.service.ingest.DetectionService`, returning the
  service's verdicts in the same per-sender order.

Sender keys are the decimal node id: a node sends at most one flow
(one monitor judges it), so the id alone addresses the stream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.detect.base import Detector, Observation
from repro.experiments.scenarios import RunResult, ScenarioConfig, build_scenario
from repro.mac.correct import CorrectMac
from repro.service.ingest import DetectionService


@dataclass(frozen=True)
class StreamRecord:
    """One judged observation as it crossed a monitor's detector."""

    seq: int
    sender: str
    observation: Observation
    verdict: bool


class RecordingDetector:
    """Transparent detector wrapper logging observations + verdicts.

    Everything except :meth:`observe` is delegated to the wrapped
    detector, including attribute access (``thresh``,
    ``windowed_sum``, counters), so monitors and metrics treat the
    wrapper exactly like the inner detector.
    """

    def __init__(self, inner: Detector, counter: "itertools.count"):
        self._inner = inner
        self._counter = counter
        self.records: List[Tuple[int, Observation, bool]] = []

    def observe(self, observation: Observation) -> bool:
        verdict = self._inner.observe(observation)
        self.records.append((next(self._counter), observation, verdict))
        return verdict

    @property
    def is_misbehaving(self) -> bool:
        return self._inner.is_misbehaving

    @property
    def thresh(self) -> float:
        # Delegated explicitly (not via __getattr__) so the adaptive-
        # THRESH hook's *assignment* reaches the inner detector too.
        return self._inner.thresh

    @thresh.setter
    def thresh(self, value: float) -> None:
        self._inner.thresh = value

    def reset(self) -> None:
        # The pardon wipes detector state but the wire already carried
        # the earlier observations; keep the recorded prefix.
        self._inner.reset()

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def record_scenario_stream(
    config: ScenarioConfig,
) -> Tuple[List[StreamRecord], RunResult]:
    """Run ``config`` and capture its judged-observation stream.

    Returns the merged stream (exact in-sim arrival order across all
    monitors) and the normal :class:`RunResult` — recording perturbs
    nothing, so the result matches an unrecorded run bit for bit.
    """
    from repro.detect.window import WindowDetector

    sim, nodes, collector = build_scenario(config)
    counter = itertools.count()
    correct_macs: List[CorrectMac] = []
    for node in nodes:
        mac = node.mac
        if not isinstance(mac, CorrectMac):
            continue
        correct_macs.append(mac)
        base_factory = mac.detector_factory
        protocol_config = mac.config

        def recording_factory(
            base=base_factory, cfg=protocol_config,
        ) -> RecordingDetector:
            inner = (
                base() if base is not None
                else WindowDetector(cfg.window, cfg.thresh)
            )
            return RecordingDetector(inner, counter)

        mac.detector_factory = recording_factory
    if not correct_macs:
        raise ValueError(
            "record_scenario_stream needs the 'correct' protocol: the "
            "802.11 baseline has no receiver-side monitor to record"
        )
    for node in nodes:
        node.start()
    sim.run(until=config.duration_us)

    records: List[StreamRecord] = []
    for mac in correct_macs:
        for sender, monitor in mac._monitors.items():
            detector = monitor.detector
            if not isinstance(detector, RecordingDetector):
                continue  # pragma: no cover - factory installed above
            key = str(sender)
            records.extend(
                StreamRecord(seq=seq, sender=key, observation=observation,
                             verdict=verdict)
                for seq, observation, verdict in detector.records
            )
    records.sort(key=lambda record: record.seq)

    injector = sim.fault_injector
    result = RunResult(
        config=config, collector=collector,
        events_processed=sim.events_processed,
        faults_injected=injector.summary() if injector is not None else {},
    )
    return records, result


def replay_stream(
    service: DetectionService, records: List[StreamRecord],
) -> Dict[str, List[bool]]:
    """Feed a recorded stream through the service, in stream order.

    Returns the service's per-sender verdict sequences — comparable
    one-to-one against the recorded in-sim verdicts.
    """
    verdicts: Dict[str, List[bool]] = {}
    for record in records:
        verdict = service.ingest_observation(record.sender, record.observation)
        verdicts.setdefault(record.sender, []).append(verdict)
    return verdicts


def recorded_verdicts(records: List[StreamRecord]) -> Dict[str, List[bool]]:
    """The in-sim per-sender verdict sequences of a recorded stream."""
    verdicts: Dict[str, List[bool]] = {}
    for record in records:
        verdicts.setdefault(record.sender, []).append(record.verdict)
    return verdicts
