"""Per-sender receiver-side monitor: the paper's scheme as a library.

:class:`SenderMonitor` contains no simulator dependencies: a driver (a
simulated MAC here, conceivably a real one) feeds it two kinds of
events and reads back assignments and verdicts:

* :meth:`on_rts` — an RTS arrived from the sender carrying an attempt
  number, together with the receiver's current cumulative idle-slot
  count.  The monitor reconstructs ``B_exp`` (including deterministic
  retransmission stages), applies equation 1, computes the penalty,
  draws the next assignment, and updates the diagnosis window.
* :meth:`on_response_sent` — the receiver finished transmitting a CTS
  or ACK to the sender.  This pins the *reference point* from which
  the next ``B_act`` is measured and records which backoff stage the
  sender will perform next (stage 1 after an ACK, stage ``attempt+1``
  after a CTS, since a lost DATA forces the sender to retry with the
  next attempt number).

The first packet from a sender is never judged: the sender was allowed
an arbitrary backoff before its first assignment (Section 4.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.backoff_function import expected_backoff_sum, g_assignment
from repro.core.correction import compute_penalty, next_assignment
from repro.core.deviation import DeviationVerdict, check_deviation
from repro.core.params import ProtocolConfig
from repro.detect.base import Detector, Observation
from repro.detect.window import WindowDetector


@dataclass(frozen=True)
class RtsVerdict:
    """Everything the monitor decided upon one RTS reception.

    Attributes
    ----------
    assignment:
        Backoff (slots) to place in the CTS/ACK for the sender's next
        packet; includes any penalty.
    checked:
        False for the sender's first observed packet (no expectation
        existed, so no judgement was possible).
    deviation:
        The equation-1 verdict, or None when ``checked`` is False.
    diagnosed:
        Whether this packet is classified as coming from a misbehaving
        sender (the unit of the paper's diagnosis-accuracy metrics).
    penalty:
        Penalty folded into ``assignment``.
    """

    assignment: int
    checked: bool
    deviation: Optional[DeviationVerdict]
    diagnosed: bool
    penalty: int


class SenderMonitor:
    """Receiver-side state for one sender (Sections 4.1-4.3).

    Parameters
    ----------
    sender_id:
        Numeric identifier the deterministic function ``f`` uses.
    config:
        Protocol parameters.
    rng:
        Random stream for assignment draws (receiver-owned).
    receiver_id:
        Identifier of the monitoring receiver; only used when the
        deterministic receiver function ``g`` is enabled.
    detector:
        Online detector fed one observation per judged packet (see
        :mod:`repro.detect`).  ``None`` builds the paper's W/THRESH
        window detector from ``config`` — the exact pre-registry code
        path, bit-identical verdict for verdict.
    """

    def __init__(
        self,
        sender_id: int,
        config: ProtocolConfig,
        rng: random.Random,
        receiver_id: int = 0,
        detector: Optional[Detector] = None,
    ):
        self.sender_id = sender_id
        self.config = config
        self.rng = rng
        self.receiver_id = receiver_id
        self.detector: Detector = (
            detector if detector is not None
            else WindowDetector(config.window, config.thresh)
        )
        #: Backoff currently assigned to the sender (stage-1 value).
        self.current_assignment: Optional[int] = None
        #: Idle-slot counter snapshot at the last CTS/ACK we sent.
        self._reference_idle: Optional[int] = None
        #: First backoff stage the sender performs after the reference.
        self._next_first_stage = 1
        #: Sequence number for the deterministic ``g`` assignment.
        self._packet_counter = 0
        #: Lifetime tallies for metrics and tests.
        self.deviations_observed = 0
        self.packets_observed = 0

    # ------------------------------------------------------------------
    # Driver events
    # ------------------------------------------------------------------
    @property
    def diagnosis(self) -> Detector:
        """The sender's detector (compatibility accessor).

        The default window detector is itself a
        :class:`~repro.core.diagnosis.DiagnosisWindow`, so the
        pre-registry attribute surface (``window``, ``observations``,
        ``flagged_observations``, ``windowed_sum``, ``thresh``) reads
        straight off it; any other detector exposes its own.
        """
        return self.detector

    def on_rts(
        self,
        attempt: int,
        idle_slots_now: int,
        seq: Optional[int] = None,
        now_us: int = 0,
    ) -> RtsVerdict:
        """Judge an arriving RTS and produce the next assignment.

        Parameters
        ----------
        attempt:
            Attempt number carried in the RTS (1-based).
        idle_slots_now:
            The receiver's cumulative count of idle slots observed on
            the channel, evaluated at RTS reception.
        seq:
            Packet sequence number carried in the RTS.  When the
            deterministic receiver function ``g`` is enabled, keying it
            by ``seq`` keeps sender and receiver synchronised even when
            frames are lost (both ends know the sequence number,
            neither can count the other's receptions).
        now_us:
            Simulation time of the reception, forwarded to the
            detector for latency accounting (never used in verdict
            arithmetic).
        """
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        self.packets_observed += 1
        verdict: Optional[DeviationVerdict] = None
        penalty = 0
        if self.current_assignment is not None and self._reference_idle is not None:
            b_act = max(idle_slots_now - self._reference_idle, 0)
            b_exp = self._expected_backoff(attempt)
            verdict = check_deviation(b_exp, b_act, self.config.alpha)
            if verdict.deviated:
                self.deviations_observed += 1
                penalty = compute_penalty(verdict.deviation, self.config)
            diagnosed = self.detector.observe(Observation(
                b_exp=b_exp, b_act=b_act, retries=attempt, time_us=now_us,
            ))
        else:
            # First packet: the sender legitimately chose its own
            # backoff, so there is nothing to compare against.
            diagnosed = self.detector.is_misbehaving
        base = None
        if self.config.use_deterministic_g:
            counter = seq if seq is not None else self._packet_counter
            base = g_assignment(
                self.receiver_id, self.sender_id, counter, self.config.cw_min
            )
        self._packet_counter += 1
        assignment = next_assignment(self.rng, self.config, penalty, base)
        self.current_assignment = assignment
        return RtsVerdict(
            assignment=assignment,
            checked=verdict is not None,
            deviation=verdict,
            diagnosed=diagnosed,
            penalty=penalty,
        )

    def on_response_sent(self, kind: str, attempt: int, idle_slots_now: int) -> None:
        """Record that a CTS or ACK to this sender finished transmitting.

        Parameters
        ----------
        kind:
            ``"cts"`` or ``"ack"``.
        attempt:
            The attempt number of the RTS being answered.
        idle_slots_now:
            Receiver's cumulative idle-slot count at the end of the
            response transmission.
        """
        if kind not in ("cts", "ack"):
            raise ValueError(f"kind must be 'cts' or 'ack', got {kind!r}")
        self._reference_idle = idle_slots_now
        # After an ACK the sender moves to its next packet (stage 1);
        # after a CTS, a lost DATA would make it retry with attempt+1.
        self._next_first_stage = 1 if kind == "ack" else attempt + 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _expected_backoff(self, attempt: int) -> int:
        """Reconstruct ``B_exp`` for an RTS with the given attempt number."""
        assert self.current_assignment is not None
        first = self._next_first_stage
        if attempt < first:
            # The sender abandoned the previous packet (retry limit) and
            # started a new one; only its fresh stages are observable.
            first = 1
        return expected_backoff_sum(
            self.current_assignment,
            self.sender_id,
            first,
            attempt,
            self.config.cw_min,
            self.config.cw_max,
        )

    @property
    def is_misbehaving(self) -> bool:
        """Current diagnosis verdict for this sender."""
        return self.detector.is_misbehaving

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SenderMonitor(sender={self.sender_id}, "
            f"assigned={self.current_assignment}, {self.detector!r})"
        )
