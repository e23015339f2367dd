"""Third-party observation for collusion detection (§4.4).

"The proposed scheme also does not address collusion between a sender
and a receiver.  Collusion detection will require a third party
observer to monitor the behavior of both the sender and the receiver."

:class:`ObserverMac` is that third party: a passive node that
overhears the exchanges of a (sender, receiver) pair and re-runs the
receiver's own arithmetic from its own vantage point:

* the assignments travel in plaintext CTS/ACK fields, so the observer
  learns ``B_exp`` exactly as the receiver dictates it;
* the observer counts idle slots with its own conforming-station
  counter, yielding an independent ``B_act``;
* equation 1 then reveals *sender* deviations, and the absence of
  penalties in the receiver's subsequent assignments (assignments that
  stay within the honest ``[0, CWmin]`` band despite repeated
  deviations) reveals that the *receiver* is covering for the sender.

A pair is flagged as colluding when the observed sender stands
diagnosed by the observer's own W/THRESH window while the receiver's
assignments show no corrective response.

The observer's channel view differs from the receiver's (different
position, independent shadowing), so its evidence is statistical, like
everything else in the scheme — place it near the monitored pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.backoff_function import expected_backoff_sum
from repro.core.deviation import check_deviation
from repro.core.diagnosis import DiagnosisWindow
from repro.core.params import PAPER_CONFIG, ProtocolConfig
from repro.mac.dcf import DcfMac
from repro.mac.frames import Frame, FrameKind


@dataclass
class PairObservation:
    """Observer-side state for one (sender, receiver) pair."""

    sender: int
    receiver: int
    diagnosis: DiagnosisWindow
    #: Last assignment overheard in a CTS/ACK from receiver to sender.
    assignment: Optional[int] = None
    #: Observer's idle-count snapshot at the end of that CTS/ACK.
    reference_idle: Optional[int] = None
    #: First backoff stage expected next (1 after ACK, k+1 after CTS).
    next_first_stage: int = 1
    deviations: int = 0
    packets: int = 0
    #: Deviations that were followed by a non-penalised assignment.
    unpenalised_deviations: int = 0
    #: Pending flag: the last RTS deviated; check the next assignment.
    _await_penalty: bool = field(default=False, repr=False)


class ObserverMac(DcfMac):
    """A passive monitor overhearing other nodes' exchanges.

    Extra parameters
    ----------------
    watch:
        (sender, receiver) pairs to monitor; empty means every pair
        whose frames the observer decodes.
    config:
        Protocol parameters (alpha, W, THRESH) used for the observer's
        own independent judgement.
    collusion_threshold:
        Fraction of deviations left unpenalised (with at least
        ``min_evidence`` deviations observed) above which the pair is
        reported as colluding.
    """

    modified_protocol = True
    counts_idle_slots = True

    def __init__(
        self,
        *args,
        watch: Tuple[Tuple[int, int], ...] = (),
        config: ProtocolConfig = PAPER_CONFIG,
        collusion_threshold: float = 0.8,
        min_evidence: int = 8,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.watch = set(watch)
        self.config = config
        self.collusion_threshold = collusion_threshold
        self.min_evidence = min_evidence
        self.pairs: Dict[Tuple[int, int], PairObservation] = {}

    # ------------------------------------------------------------------
    def _pair(self, sender: int, receiver: int) -> Optional[PairObservation]:
        key = (sender, receiver)
        if self.watch and key not in self.watch:
            return None
        observation = self.pairs.get(key)
        if observation is None:
            observation = PairObservation(
                sender=sender, receiver=receiver,
                diagnosis=DiagnosisWindow(self.config.window,
                                          self.config.thresh),
            )
            self.pairs[key] = observation
        return observation

    def on_frame(self, frame: Frame) -> None:
        # Passive: never respond, only watch; still maintain NAV/EIFS
        # bookkeeping via the base class for realistic idle counting.
        self._pending_eifs = False
        if frame.kind is FrameKind.RTS:
            self._observe_rts(frame)
        elif frame.kind in (FrameKind.CTS, FrameKind.ACK):
            self._observe_response(frame)
        if frame.dst != self.node_id:
            self._set_nav(frame)

    # ------------------------------------------------------------------
    def _observe_response(self, frame: Frame) -> None:
        # CTS/ACK from receiver (src) to sender (dst).
        observation = self._pair(frame.dst, frame.src)
        if observation is None or frame.assigned_backoff < 0:
            return
        assignment = frame.assigned_backoff
        if observation._await_penalty:
            # The receiver should have folded a penalty into this
            # assignment; an honest base never exceeds CWmin.
            if assignment <= self.config.cw_min:
                observation.unpenalised_deviations += 1
            observation._await_penalty = False
        observation.assignment = assignment
        observation.reference_idle = self.idle_counter.idle_slots(self.sim.now)
        observation.next_first_stage = (
            1 if frame.kind is FrameKind.ACK else frame.attempt + 1
        )

    def _observe_rts(self, frame: Frame) -> None:
        observation = self._pair(frame.src, frame.dst)
        if (observation is None or observation.assignment is None
                or observation.reference_idle is None):
            return
        idle_now = self.idle_counter.idle_slots(self.sim.now)
        b_act = max(idle_now - observation.reference_idle, 0)
        first = observation.next_first_stage
        if frame.attempt < first:
            first = 1
        b_exp = expected_backoff_sum(
            observation.assignment, frame.src, first, frame.attempt,
            self.config.cw_min, self.config.cw_max,
        )
        verdict = check_deviation(b_exp, b_act, self.config.alpha)
        observation.packets += 1
        observation.diagnosis.update(verdict.difference)
        if verdict.deviated:
            observation.deviations += 1
            observation._await_penalty = True

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------
    def sender_misbehaving(self, sender: int, receiver: int) -> bool:
        """Observer's independent diagnosis of the sender."""
        observation = self.pairs.get((sender, receiver))
        return observation is not None and observation.diagnosis.is_misbehaving

    def colluding(self, sender: int, receiver: int) -> bool:
        """Whether the pair shows collusion: persistent sender
        deviations that the receiver never penalises."""
        observation = self.pairs.get((sender, receiver))
        if observation is None:
            return False
        if observation.deviations < self.min_evidence:
            return False
        unpenalised = (
            observation.unpenalised_deviations / observation.deviations
        )
        return unpenalised >= self.collusion_threshold

    def report(self) -> Dict[Tuple[int, int], Dict[str, float]]:
        """Summary of every observed pair (for higher layers)."""
        out = {}
        for key, observation in self.pairs.items():
            out[key] = {
                "packets": observation.packets,
                "deviations": observation.deviations,
                "unpenalised_deviations": observation.unpenalised_deviations,
                "sender_misbehaving": self.sender_misbehaving(*key),
                "colluding": self.colluding(*key),
            }
        return out
