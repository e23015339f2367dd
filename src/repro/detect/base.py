"""Detector protocol: the unit every online detector implements.

The paper's diagnosis scheme (Section 4.3) is one fixed detector — a
windowed sum of ``B_exp - B_act`` against ``THRESH``.  Related work
shows it is one point in a design space: Cao et al. detect the same
attack with a CUSUM sequential test, Yazdani-Abyaneh & Krunz estimate
the sender's effective CWmin from observed backoffs.  This module
defines the shared contract so the receiver pipeline can host any of
them interchangeably.

A detector is *per-sender online state*: the monitoring receiver feeds
it one :class:`Observation` per judged packet (in arrival order) and
reads back a diagnosed/cleared verdict.  Detectors must be
deterministic functions of their observation stream — no hidden
randomness — so that runs remain bit-reproducible and two receivers
fed the same stream agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Protocol, runtime_checkable

#: Version tag carried by every :meth:`Observation.to_dict` record.
#: Bump it when a field is added/renamed; :meth:`Observation.from_dict`
#: rejects records from a version it does not read.
OBSERVATION_SCHEMA_VERSION = 1


class ObservationDecodeError(ValueError):
    """An observation record does not match the versioned schema."""


@dataclass(frozen=True, init=False)
class Observation:
    """One judged packet reception, as seen by the receiver's monitor.

    Attributes
    ----------
    b_exp:
        Backoff (slots) the sender was expected to wait, including any
        reconstructed retransmission stages and standing penalties.
    b_act:
        Idle slots the receiver actually observed before the packet.
    retries:
        Attempt number carried by the observed transmission (1-based).
    time_us:
        Simulation time of the observation, for latency accounting.
    """

    b_exp: float
    b_act: float
    retries: int = 1
    time_us: int = 0

    def __init__(
        self, b_exp: float, b_act: float, retries: int = 1, time_us: int = 0,
    ):
        # The dataclass-generated frozen __init__ assigns each field
        # through object.__setattr__, about twice the cost of filling
        # the instance dict directly; the service builds one
        # Observation per wire line.  Equality, hashing, repr,
        # dataclasses.replace and frozenness still come from the
        # dataclass machinery.
        fields = self.__dict__
        fields["b_exp"] = b_exp
        fields["b_act"] = b_act
        fields["retries"] = retries
        fields["time_us"] = time_us

    @property
    def difference(self) -> float:
        """Signed backoff deficit ``B_exp - B_act`` in slots.

        Positive when the sender waited less than expected — exactly
        the quantity the paper's diagnosis window accumulates.
        """
        return float(self.b_exp - self.b_act)

    # ------------------------------------------------------------------
    # Versioned dict codec (the detection service's wire format; also
    # useful for trace tooling that wants observations as plain JSON).
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """This observation as a plain, versioned, JSON-ready dict.

        The inverse of :meth:`from_dict`: ``Observation.from_dict(
        obs.to_dict()) == obs`` for every observation with finite
        backoff fields (JSON has no portable NaN/Inf).
        """
        return {
            "v": OBSERVATION_SCHEMA_VERSION,
            "b_exp": float(self.b_exp),
            "b_act": float(self.b_act),
            "retries": int(self.retries),
            "time_us": int(self.time_us),
        }

    @classmethod
    def from_dict(cls, data: object) -> "Observation":
        """Decode a :meth:`to_dict` record, strictly.

        The schema is deliberately unforgiving — this is a wire
        format, and a silently mis-read field would corrupt verdicts
        downstream.  Raises :class:`ObservationDecodeError` naming the
        offending field for: a non-mapping payload, a missing or
        unsupported ``v`` (which must be an integer), missing fields,
        unknown fields, wrong types (bools are not numbers),
        non-finite backoffs (including integers beyond float range),
        ``retries < 1`` and ``time_us < 0``.
        """
        if not isinstance(data, dict):
            raise ObservationDecodeError(
                f"observation record must be a JSON object, "
                f"got {type(data).__name__}"
            )
        version = data.get("v")
        if version is None:
            raise ObservationDecodeError(
                "observation record has no 'v' schema-version field "
                f"(this build writes v={OBSERVATION_SCHEMA_VERSION})"
            )
        if (isinstance(version, bool) or not isinstance(version, int)
                or version != OBSERVATION_SCHEMA_VERSION):
            raise ObservationDecodeError(
                f"unsupported observation schema version {version!r}; "
                f"this build reads v={OBSERVATION_SCHEMA_VERSION}"
            )
        expected = ("v", "b_exp", "b_act", "retries", "time_us")
        missing = [name for name in expected if name not in data]
        if missing:
            raise ObservationDecodeError(
                f"observation record missing field(s): "
                f"{', '.join(missing)} (expected {', '.join(expected)})"
            )
        unknown = [name for name in data if name not in expected]
        if unknown:
            raise ObservationDecodeError(
                f"observation record has unknown field(s): "
                f"{', '.join(sorted(unknown))} (schema "
                f"v={OBSERVATION_SCHEMA_VERSION} has {', '.join(expected)})"
            )
        values = {}
        for name in ("b_exp", "b_act"):
            value = data[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ObservationDecodeError(
                    f"observation field {name!r} must be a number, "
                    f"got {value!r}"
                )
            try:
                value = float(value)
            except OverflowError:
                raise ObservationDecodeError(
                    f"observation field {name!r} must be finite, got an "
                    f"integer beyond float range"
                ) from None
            if not math.isfinite(value):
                raise ObservationDecodeError(
                    f"observation field {name!r} must be finite, "
                    f"got {value!r}"
                )
            values[name] = value
        for name, minimum in (("retries", 1), ("time_us", 0)):
            value = data[name]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ObservationDecodeError(
                    f"observation field {name!r} must be an integer, "
                    f"got {value!r}"
                )
            if value < minimum:
                raise ObservationDecodeError(
                    f"observation field {name!r} must be >= {minimum}, "
                    f"got {value}"
                )
            values[name] = value
        return cls(**values)


@runtime_checkable
class Detector(Protocol):
    """Per-sender online misbehavior detector.

    Implementations additionally expose ``observations`` and
    ``flagged_observations`` lifetime counters (see
    :class:`DetectorBase`) so metrics and higher layers can report
    flag rates without knowing the detector family.
    """

    def observe(self, observation: Observation) -> bool:
        """Fold one observation in; return the post-update verdict."""
        ...

    @property
    def is_misbehaving(self) -> bool:
        """Whether the sender currently stands diagnosed."""
        ...

    def reset(self) -> None:
        """Forget all history (e.g. after an administrative pardon)."""
        ...


class DetectorBase:
    """Counter bookkeeping shared by the non-window detectors.

    Subclasses implement :meth:`_update` returning the verdict for one
    observation; this base maintains the ``observations`` /
    ``flagged_observations`` lifetime tallies with the same semantics
    as :class:`repro.core.diagnosis.DiagnosisWindow`.
    """

    def __init__(self) -> None:
        #: Number of observations folded in (lifetime).
        self.observations = 0
        #: Number of observations on which the sender stood diagnosed.
        self.flagged_observations = 0

    def observe(self, observation: Observation) -> bool:
        flagged = self._update(observation)
        self.observations += 1
        if flagged:
            self.flagged_observations += 1
        return flagged

    def _update(self, observation: Observation) -> bool:
        raise NotImplementedError

    @property
    def is_misbehaving(self) -> bool:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear the lifetime counters; subclasses extend with their
        own state (and must call ``super().reset()``)."""
        self.observations = 0
        self.flagged_observations = 0
