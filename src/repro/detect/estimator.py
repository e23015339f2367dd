"""Effective-CWmin estimator detector.

After Yazdani-Abyaneh & Krunz, "CWmin Estimation and Collision
Identification in Wi-Fi Systems" (see PAPERS.md): a monitor that
observes a station's backoff draws can estimate the contention-window
parameter the station is *actually* using and compare it against the
value it was assigned — a cheater that counts down only part of its
backoff looks exactly like a station configured with a smaller CWmin.

Under the paper's receiver-assigned scheme the expectation ``B_exp``
of every transmission is known, so the estimator reduces to a ratio:
over a sliding sample window,

    CWmin_eff = cw_min * sum(B_act) / sum(B_exp)

an honest sender keeps the ratio near 1 (CWmin_eff ~ cw_min), while a
sender honoring only a fraction ``f`` of its backoffs drives the
estimate toward ``f * cw_min``.  The sender stands diagnosed while the
estimate sits below ``fraction * cw_min`` (after a minimum number of
samples, so a single noisy observation cannot convict).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.detect.base import DetectorBase, Observation


class CwminEstimatorDetector(DetectorBase):
    """Sequential effective-CWmin estimate vs the assigned value.

    Parameters
    ----------
    fraction:
        Diagnosis boundary as a fraction of the assigned CWmin: the
        sender is flagged while ``CWmin_eff < fraction * cw_min``.
    min_samples:
        Observations required before the estimate is trusted.
    window:
        Sliding window length (samples) of the estimate, so a sender
        that reforms is eventually cleared.
    cw_min:
        The assigned minimum contention window (slots).
    """

    name = "estimator"

    def __init__(
        self,
        fraction: float = 0.5,
        min_samples: int = 8,
        window: int = 64,
        cw_min: float = 31.0,
    ):
        super().__init__()
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        if window < min_samples:
            raise ValueError(
                f"window ({window}) must be >= min_samples ({min_samples})"
            )
        if cw_min <= 0:
            raise ValueError(f"cw_min must be > 0, got {cw_min}")
        self.fraction = float(fraction)
        self.min_samples = int(min_samples)
        self.window_size = int(window)
        self.cw_min = float(cw_min)
        self._samples: Deque[Tuple[float, float]] = deque(
            maxlen=self.window_size
        )
        self._act_sum = 0.0
        self._exp_sum = 0.0

    def _update(self, observation: Observation) -> bool:
        self._samples.append(
            (float(observation.b_act), float(observation.b_exp))
        )
        # Recompute both sums over the window, oldest to newest, as
        # DiagnosisWindow.update does: subtracting an evicted huge
        # b_act leaves float residue in the sum long after the sample
        # has left the window, and that residue flags honest senders.
        act_sum = exp_sum = 0.0
        for act, exp in self._samples:
            act_sum += act
            exp_sum += exp
        self._act_sum = act_sum
        self._exp_sum = exp_sum
        return self.is_misbehaving

    @property
    def estimate(self) -> float:
        """Current effective-CWmin estimate in slots.

        With no usable expectation mass yet the sender is given the
        benefit of the doubt: the estimate reports the assigned value.
        """
        if self._exp_sum <= 0.0:
            return self.cw_min
        return self.cw_min * max(self._act_sum, 0.0) / self._exp_sum

    @property
    def is_misbehaving(self) -> bool:
        if len(self._samples) < self.min_samples:
            return False
        return self.estimate < self.fraction * self.cw_min

    def reset(self) -> None:
        super().reset()
        self._samples.clear()
        self._act_sum = 0.0
        self._exp_sum = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CwminEstimatorDetector(est={self.estimate:.1f}, "
            f"bound={self.fraction * self.cw_min:.1f}, "
            f"n={len(self._samples)}/{self.window_size})"
        )
