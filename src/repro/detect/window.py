"""The paper's W/THRESH diagnosis window as a pluggable detector.

:class:`WindowDetector` adapts :class:`repro.core.diagnosis.DiagnosisWindow`
to the :class:`~repro.detect.base.Detector` protocol without changing a
single arithmetic operation: ``observe`` forwards the same
``B_exp - B_act`` float the monitor previously pushed into
``DiagnosisWindow.update``, so a run using this adapter is
bit-identical to the pre-registry code path (regression-tested in
``tests/test_detect_scenarios.py``).
"""

from __future__ import annotations

from repro.core.diagnosis import DiagnosisWindow
from repro.detect.base import Observation


class WindowDetector:
    """Windowed-sum detector (Section 4.3 of the paper).

    Parameters
    ----------
    window:
        ``W`` — number of most recent packets considered.
    thresh:
        ``THRESH`` — slot threshold on the windowed sum.
    """

    name = "window"
    __slots__ = ("window",)

    def __init__(self, window: int, thresh: float):
        self.window = DiagnosisWindow(int(window), thresh)

    def observe(self, observation: Observation) -> bool:
        return self.window.update(observation.difference)

    @property
    def is_misbehaving(self) -> bool:
        return self.window.is_misbehaving

    @property
    def thresh(self) -> float:
        """Diagnosis threshold (settable: the adaptive-THRESH hook)."""
        return self.window.thresh

    @thresh.setter
    def thresh(self, value: float) -> None:
        self.window.thresh = float(value)

    @property
    def windowed_sum(self) -> float:
        return self.window.windowed_sum

    @property
    def observations(self) -> int:
        return self.window.observations

    @property
    def flagged_observations(self) -> int:
        return self.window.flagged_observations

    def reset(self) -> None:
        self.window.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WindowDetector({self.window!r})"
