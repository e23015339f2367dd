"""The paper's W/THRESH diagnosis window as a pluggable detector.

:class:`WindowDetector` *is* a :class:`repro.core.diagnosis.DiagnosisWindow`
that also speaks the :class:`~repro.detect.base.Detector` protocol:
``observe`` pushes the same ``B_exp - B_act`` float the monitor
previously pushed into ``DiagnosisWindow.update``, so a run using this
detector is bit-identical to the pre-registry code path
(regression-tested in ``tests/test_detect_scenarios.py``).  It is a
subclass rather than a wrapper so that a resident service sender costs
one detector object, not two.
"""

from __future__ import annotations

from repro.core.diagnosis import DiagnosisWindow
from repro.detect.base import Observation


class WindowDetector(DiagnosisWindow):
    """Windowed-sum detector (Section 4.3 of the paper).

    Parameters
    ----------
    window:
        ``W`` — number of most recent packets considered.
    thresh:
        ``THRESH`` — slot threshold on the windowed sum (settable: the
        adaptive-THRESH hook assigns it between observations).
    """

    name = "window"
    __slots__ = ()

    def observe(self, observation: Observation) -> bool:
        return self.update(observation.difference)
