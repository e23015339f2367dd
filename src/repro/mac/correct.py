"""The paper's modified MAC ("CORRECT" in the evaluation figures).

Differences from plain :class:`~repro.mac.dcf.DcfMac`:

Sender side
    * The first-attempt backoff toward a receiver is the value that
      receiver assigned in its last CTS/ACK (an arbitrary self-chosen
      value is allowed only before the first assignment).
    * Retransmission backoffs come from the shared deterministic
      function ``f`` scaled by the standard contention window, so the
      receiver can reconstruct them.
    * Optionally, assignments are audited against the deterministic
      receiver function ``g`` (receiver-misbehavior detection,
      Section 4.4).

Receiver side
    * A per-sender :class:`~repro.core.monitor.SenderMonitor` measures
      ``B_act`` via the node's idle-slot counter, applies equation 1,
      computes penalties, draws the next assignment (placed in both
      CTS and ACK) and maintains the W/THRESH diagnosis window.
    * Optionally an :class:`~repro.core.attempt_verify.AttemptAuditor`
      occasionally drops an RTS on purpose to verify attempt-number
      honesty.
    * Optionally, senders that stand diagnosed are refused service
      (the paper's "MAC layer may refuse to accept packets from the
      misbehaving node by not responding with a CTS").

Misbehavior still enters through the sender policy: a cheating sender
counts down only part of whatever backoff this MAC computed.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.adaptive import AdaptiveThreshold
from repro.core.attempt_verify import AttemptAuditor
from repro.core.backoff_function import retry_backoff
from repro.core.monitor import SenderMonitor
from repro.core.params import PAPER_CONFIG, ProtocolConfig
from repro.core.receiver_verify import ReceiverAuditor
from repro.detect.base import Detector
from repro.mac.dcf import DcfMac, _Responder
from repro.mac.frames import Frame
from repro.sim.engine import SimulationError


class CorrectMac(DcfMac):
    """DCF with the paper's detection/correction/diagnosis extensions.

    Extra parameters (beyond :class:`DcfMac`)
    ----------------------------------------
    config:
        Protocol parameters (alpha, W, THRESH, penalty model, ...).
    enable_attempt_audit:
        Turn on intentional-RTS-drop attempt verification.
    audit_sender_assignments:
        Sender-side ``g`` audit of receiver assignments (only
        meaningful when receivers set ``config.use_deterministic_g``).
    refuse_diagnosed:
        Deny CTS to senders that currently stand diagnosed.
    adaptive_thresh:
        Replace the fixed THRESH with the adaptive estimator of
        :class:`repro.core.adaptive.AdaptiveThreshold` (the paper's
        deferred future work): the receiver tracks the noise of the
        per-packet differences across all its senders and re-derives
        THRESH to hold a target misdiagnosis rate.  Only meaningful
        for threshold-style detectors (the default ``window``).
    detector_factory:
        Zero-argument callable producing one fresh
        :class:`~repro.detect.base.Detector` per monitored sender
        (see :func:`repro.detect.detector_factory`).  ``None`` keeps
        the paper's W/THRESH window detector, bit-identical to
        pre-registry builds.
    receives_flows:
        Whether any flow targets this node.  Only a receiver measures
        ``B_act``, so a node no flow targets builds no idle-slot
        counter (nor its ``idle/<node>`` stream, which nothing else
        draws from): its draws and every other node's stay identical.
        Judging a sender without a counter raises
        :class:`~repro.sim.engine.SimulationError`.
    """

    modified_protocol = True
    counts_idle_slots = True

    def __init__(
        self,
        *args,
        config: ProtocolConfig = PAPER_CONFIG,
        enable_attempt_audit: bool = False,
        audit_sender_assignments: bool = False,
        refuse_diagnosed: bool = False,
        adaptive_thresh: bool = False,
        detector_factory: Optional[Callable[[], Detector]] = None,
        receives_flows: bool = True,
        **kwargs,
    ):
        if not receives_flows:
            self.counts_idle_slots = False
        super().__init__(*args, **kwargs)
        self.config = config
        if (config.cw_min, config.cw_max) != (
            self.timings.cw_min, self.timings.cw_max
        ):
            raise ValueError(
                "protocol config and PHY timings disagree on CW bounds: "
                "the deterministic function f would diverge between "
                "sender and receiver"
            )
        self.adaptive_threshold: Optional[AdaptiveThreshold] = (
            AdaptiveThreshold(window=config.window) if adaptive_thresh else None
        )
        self.refuse_diagnosed = refuse_diagnosed
        self.audit_sender_assignments = audit_sender_assignments
        self.detector_factory = detector_factory
        self._monitors: Dict[int, SenderMonitor] = {}
        self._assignments: Dict[int, int] = {}
        self._stage1_backoff: Dict[int, int] = {}
        self._receiver_auditors: Dict[int, ReceiverAuditor] = {}
        self._assign_rng = None  # created lazily from the registry-free rng
        self.attempt_auditor: Optional[AttemptAuditor] = None
        if enable_attempt_audit:
            self.attempt_auditor = AttemptAuditor(self.rng)

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def monitor_for(self, sender: int) -> SenderMonitor:
        """The per-sender monitor (created on first contact)."""
        monitor = self._monitors.get(sender)
        if monitor is None:
            detector = (
                self.detector_factory()
                if self.detector_factory is not None else None
            )
            monitor = SenderMonitor(
                sender, self.config, self.rng, receiver_id=self.node_id,
                detector=detector,
            )
            self._monitors[sender] = monitor
        return monitor

    def _judge_sender(self, src: int, attempt: int, seq: int) -> Optional[_Responder]:
        """Run the full receiver pipeline for one observed transmission.

        Shared by the RTS path (four-way mode) and the DATA path
        (basic access): audit, refusal, equation-1 check, penalty,
        next assignment, diagnosis update.  None means stay silent.
        """
        auditor = self.attempt_auditor
        if auditor is not None:
            outcome = auditor.on_next_rts(src, attempt)
            if outcome is not None:
                self.collector.on_attempt_audit(
                    receiver=self.node_id, outcome=outcome, time=self.sim.now
                )
            if auditor.is_proven(src):
                return None  # conclusively misbehaving: refuse service
            if auditor.should_drop(src, attempt):
                return None  # intentional drop; await the retry
        monitor = self.monitor_for(src)
        if self.refuse_diagnosed and monitor.is_misbehaving:
            return None
        idle_now = self._idle_slots()
        if self.adaptive_threshold is not None and hasattr(
            monitor.detector, "thresh"
        ):
            monitor.detector.thresh = self.adaptive_threshold.current_thresh()
        verdict = monitor.on_rts(attempt, idle_now, seq=seq, now_us=self.sim.now)
        if self.adaptive_threshold is not None and verdict.deviation is not None:
            self.adaptive_threshold.update(verdict.deviation.difference)
        self.collector.on_rts_verdict(
            receiver=self.node_id, sender=src, verdict=verdict, time=self.sim.now
        )
        return _Responder(
            src=src,
            attempt=attempt,
            assignment=verdict.assignment,
            diagnosed=verdict.diagnosed,
        )

    def _make_cts_response(self, rts: Frame) -> Optional[_Responder]:
        return self._judge_sender(rts.src, rts.attempt, rts.seq)

    def _make_data_response(
        self, data: Frame, duplicate: bool
    ) -> Optional[_Responder]:
        if duplicate:
            # Retransmission of an already-delivered packet (our ACK
            # was lost): re-ACK with the standing assignment and leave
            # the diagnosis window untouched.
            monitor = self.monitor_for(data.src)
            resp = _Responder(
                src=data.src,
                attempt=data.attempt,
                assignment=monitor.current_assignment
                if monitor.current_assignment is not None else -1,
                diagnosed=monitor.is_misbehaving,
            )
            resp.extra["duplicate"] = True
            return resp
        resp = self._judge_sender(data.src, data.attempt, data.seq)
        if resp is not None:
            resp.extra["duplicate"] = False
        return resp

    def _on_response_sent(self, kind: str, resp: _Responder) -> None:
        monitor = self.monitor_for(resp.src)
        monitor.on_response_sent(kind, resp.attempt, self._idle_slots())

    def _idle_slots(self) -> int:
        """The receiver's cumulative idle-slot count at ``now``."""
        counter = self.idle_counter
        if counter is None:
            raise SimulationError(
                f"node {self.node_id} was built with receives_flows=False "
                "but is judging a sender: it has no idle-slot counter"
            )
        return counter.idle_slots(self.sim.now)

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def _initial_backoff(self, dst: int) -> int:
        assigned = self._assignments.get(dst)
        if assigned is None:
            # First packet toward this receiver: arbitrary choice.
            assigned = self.rng.randint(0, self.timings.cw_min)
        self._stage1_backoff[dst] = assigned
        return assigned

    def _retry_backoff(self, dst: int, attempt: int) -> int:
        stage1 = self._stage1_backoff.get(dst, 0)
        return retry_backoff(
            stage1, self.node_id, attempt, self.timings.cw_min, self.timings.cw_max
        )

    def _note_assignment(self, frame: Frame) -> None:
        if frame.assigned_backoff < 0:
            return
        assigned = frame.assigned_backoff
        if self.audit_sender_assignments and frame.kind.value == "ack":
            auditor = self._receiver_auditors.get(frame.src)
            if auditor is None:
                auditor = ReceiverAuditor(
                    frame.src, self.node_id, self.timings.cw_min
                )
                self._receiver_auditors[frame.src] = auditor
            verdict = auditor.check_assignment(assigned, counter=self._seq)
            if verdict.receiver_misbehaving:
                self.collector.on_receiver_audit(
                    sender=self.node_id, receiver=frame.src,
                    verdict=verdict, time=self.sim.now,
                )
            assigned = verdict.corrected_backoff
        trace = self.medium.trace
        if trace is not None:
            trace.record(
                self.sim.now, "assignment", self.node_id,
                src=frame.src, value=assigned,
                carried=frame.assigned_backoff,
                frame_kind=frame.kind.value,
            )
        self._assignments[frame.src] = assigned

    def receiver_auditor_for(self, receiver: int) -> Optional[ReceiverAuditor]:
        """Sender-side auditor for a given receiver, if any exists yet."""
        return self._receiver_auditors.get(receiver)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CorrectMac(node={self.node_id}, state={self._state})"
