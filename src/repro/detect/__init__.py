"""Pluggable online misbehavior-detection subsystem.

The paper hard-codes one detector — the W/THRESH windowed sum of
Section 4.3.  This package turns detection into a first-class design
axis: a :class:`~repro.detect.base.Detector` protocol (per-sender
online state fed one observation per received packet), a string-keyed
registry with compact config parsing, and three built-in families:

``window``
    The paper's scheme: a :class:`repro.core.diagnosis.DiagnosisWindow`
    that speaks the detector protocol, bit-identically (the default
    everywhere).
``cusum``
    One-sided CUSUM sequential test on the normalized backoff deficit,
    after Cao et al.
``estimator``
    Sequential effective-CWmin estimation against the assigned value,
    after Yazdani-Abyaneh & Krunz.

See ``docs/DETECTORS.md`` for the protocol contract, the parameter
mapping to the cited papers, and how to add a detector.
"""

from repro.detect.base import (
    OBSERVATION_SCHEMA_VERSION,
    Detector,
    DetectorBase,
    Observation,
    ObservationDecodeError,
)
from repro.detect.cusum import CusumDetector
from repro.detect.estimator import CwminEstimatorDetector
from repro.detect.registry import (
    DEFAULT_DETECTOR,
    DetectorSpecError,
    detector_factory,
    make_detector,
    parse_spec,
    register,
    registered_detectors,
)
from repro.detect.window import WindowDetector

__all__ = [
    "DEFAULT_DETECTOR",
    "OBSERVATION_SCHEMA_VERSION",
    "CusumDetector",
    "CwminEstimatorDetector",
    "Detector",
    "DetectorBase",
    "DetectorSpecError",
    "Observation",
    "ObservationDecodeError",
    "WindowDetector",
    "detector_factory",
    "make_detector",
    "parse_spec",
    "register",
    "registered_detectors",
]
