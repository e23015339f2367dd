"""Diagnosis scheme: windowed misbehavior decision (Section 4.3).

The receiver keeps, per sender, the differences ``B_exp - B_act`` of
the last ``W`` received packets.  The sender is diagnosed as
misbehaving while the *sum* of the stored differences exceeds
``THRESH``.  Positive and negative differences are both kept: an
honest sender that looked deviant on one packet usually over-waits on
another, so its windowed sum hovers near zero, while a persistent
cheater accumulates positive mass.
"""

from __future__ import annotations

from typing import Iterable, Tuple


class DiagnosisWindow:
    """Moving window of backoff differences for one sender.

    The window is a tuple rebuilt on every update, not a
    ``deque(maxlen=W)``: the service keeps one window per resident
    sender, a deque allocates a 64-slot block (~760 bytes) however
    small ``W`` is, and a deque is always GC-tracked, while the
    collector untracks a tuple that holds only floats once it has
    survived one collection.  Together with ``__slots__`` this keeps a
    window at one tracked object.

    Parameters
    ----------
    window:
        ``W`` — number of most recent packets considered.
    thresh:
        ``THRESH`` — slot threshold on the windowed sum.
    """

    __slots__ = ("window", "thresh", "_differences", "_sum",
                 "observations", "flagged_observations")

    def __init__(self, window: int, thresh: float):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.thresh = float(thresh)
        #: The last ``W`` differences, oldest first.
        self._differences: Tuple[float, ...] = ()
        self._sum = 0.0
        #: Number of packets observed (lifetime, not window-limited).
        self.observations = 0
        #: Number of observations on which the sender stood diagnosed.
        self.flagged_observations = 0

    def update(self, difference: float) -> bool:
        """Record one packet's ``B_exp - B_act`` and return the verdict.

        Returns True when, after including this packet, the windowed
        sum exceeds ``THRESH`` (the packet "is classified to be from a
        misbehaving sender", the unit of the paper's accuracy metric).
        """
        # Recompute the sum over the kept window, oldest to newest,
        # instead of subtracting the evicted sample: with mixed
        # magnitudes the subtract leaves float residue (adding 1e12
        # then removing it does not restore the small-value sum), which
        # would let a huge one-off spike poison every later verdict.
        # W is tiny, so the from-scratch sum costs nothing.
        kept = (self._differences + (difference,))[-self.window:]
        total = 0.0
        for value in kept:
            total += value
        self._differences = kept
        self._sum = total
        self.observations += 1
        flagged = self._sum > self.thresh
        if flagged:
            self.flagged_observations += 1
        return flagged

    @property
    def windowed_sum(self) -> float:
        """Current sum of differences over the window."""
        return self._sum

    @property
    def is_misbehaving(self) -> bool:
        """Whether the sender currently stands diagnosed."""
        return self._sum > self.thresh

    @property
    def contents(self) -> Iterable[float]:
        """Snapshot of the stored differences, oldest first."""
        return self._differences

    def reset(self) -> None:
        """Forget all history (e.g. after an administrative pardon)."""
        self._differences = ()
        self._sum = 0.0
        self.observations = 0
        self.flagged_observations = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(sum={self._sum:.1f}, thresh={self.thresh}, "
            f"n={len(self._differences)}/{self.window})"
        )
