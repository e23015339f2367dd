"""Tests for the W/THRESH diagnosis window."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diagnosis import DiagnosisWindow


class TestWindowSemantics:
    def test_not_misbehaving_initially(self):
        win = DiagnosisWindow(window=5, thresh=20)
        assert not win.is_misbehaving

    def test_flags_when_sum_exceeds_thresh(self):
        win = DiagnosisWindow(window=5, thresh=20)
        for _ in range(4):
            assert not win.update(5.0)  # sums 5, 10, 15, 20 (== not >)
        assert win.update(5.0)  # sum 25 > 20

    def test_sum_equal_to_thresh_not_flagged(self):
        win = DiagnosisWindow(window=5, thresh=20)
        win.update(20.0)
        assert not win.is_misbehaving

    def test_old_samples_roll_out(self):
        win = DiagnosisWindow(window=3, thresh=10)
        win.update(100.0)
        assert win.is_misbehaving
        win.update(0.0)
        win.update(0.0)
        win.update(0.0)  # the 100 has rolled out
        assert not win.is_misbehaving
        assert win.windowed_sum == 0.0

    def test_negative_differences_offset_positive(self):
        """Over-waiting on some packets excuses under-waiting on others."""
        win = DiagnosisWindow(window=5, thresh=20)
        win.update(30.0)
        assert win.is_misbehaving
        win.update(-30.0)
        assert not win.is_misbehaving

    def test_window_one_behaves_like_per_packet_test(self):
        win = DiagnosisWindow(window=1, thresh=4)
        assert win.update(5.0)
        assert not win.update(3.0)

    def test_reset_clears_history(self):
        win = DiagnosisWindow(window=3, thresh=5)
        win.update(100.0)
        win.reset()
        assert not win.is_misbehaving
        assert win.windowed_sum == 0.0
        assert win.contents == ()

    def test_counters(self):
        win = DiagnosisWindow(window=2, thresh=0)
        win.update(1.0)   # sum 1 > 0: flagged
        win.update(-5.0)  # sum -4: not flagged
        assert win.observations == 2
        assert win.flagged_observations == 1

    def test_contents_ordered_oldest_first(self):
        win = DiagnosisWindow(window=3, thresh=100)
        for v in (1.0, 2.0, 3.0, 4.0):
            win.update(v)
        assert win.contents == (2.0, 3.0, 4.0)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            DiagnosisWindow(window=0, thresh=10)


class TestWindowProperties:
    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1,
                    max_size=100))
    @settings(max_examples=100)
    def test_sum_matches_last_w_entries(self, values):
        w = 5
        win = DiagnosisWindow(window=w, thresh=0)
        for v in values:
            win.update(v)
        assert win.windowed_sum == pytest.approx(sum(values[-w:]), abs=1e-6)

    @given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=6,
                    max_size=50))
    @settings(max_examples=50)
    def test_persistent_cheater_eventually_flagged(self, values):
        """All-positive differences above thresh/W must trigger."""
        win = DiagnosisWindow(window=5, thresh=20)
        flagged = False
        for v in values:
            flagged = win.update(v + 4.0) or flagged  # each > thresh/W
        assert flagged

    @given(st.lists(st.floats(min_value=-100.0, max_value=0.0), min_size=1,
                    max_size=50))
    @settings(max_examples=50)
    def test_overwaiting_sender_never_flagged(self, values):
        win = DiagnosisWindow(window=5, thresh=20)
        for v in values:
            assert not win.update(v)


class TestWindowEdgeCases:
    """Eviction bookkeeping under float accumulation, and counters."""

    @given(st.lists(
        st.floats(min_value=-1e12, max_value=1e12,
                  allow_nan=False, allow_infinity=False),
        min_size=10, max_size=200,
    ))
    @settings(max_examples=100)
    def test_eviction_keeps_running_sum_consistent(self, values):
        """After every update, the incrementally maintained sum must
        match a from-scratch recomputation over the window contents —
        i.e. eviction subtracts exactly what insertion added, with no
        float drift relative to the same left-to-right summation."""
        win = DiagnosisWindow(window=7, thresh=0)
        for v in values:
            win.update(v)
            recomputed = 0.0
            for kept in win.contents:
                recomputed += kept
            assert win.windowed_sum == pytest.approx(
                recomputed, rel=1e-9, abs=1e-6
            )

    def test_mixed_magnitude_eviction(self):
        """A huge sample rolling out must not leave residue behind."""
        win = DiagnosisWindow(window=3, thresh=1e6)
        for v in (1e15, 1.0, 1.0, 1.0):  # the 1e15 has rolled out
            win.update(v)
        assert win.contents == (1.0, 1.0, 1.0)
        assert win.windowed_sum == pytest.approx(sum(win.contents))

    @given(st.lists(st.floats(min_value=-100.0, max_value=100.0),
                    min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_observation_counters_monotone_and_exact(self, values):
        win = DiagnosisWindow(window=5, thresh=10)
        flagged = 0
        for i, v in enumerate(values, start=1):
            if win.update(v):
                flagged += 1
            assert win.observations == i
            assert win.flagged_observations == flagged
        assert 0 <= win.flagged_observations <= win.observations

    def test_counters_survive_eviction(self):
        """Counters are lifetime tallies, not window-bounded."""
        win = DiagnosisWindow(window=2, thresh=0)
        for _ in range(10):
            win.update(1.0)  # always above thresh
        assert win.observations == 10
        assert win.flagged_observations == 10
        assert len(win.contents) == 2

    def test_reset_clears_counters(self):
        win = DiagnosisWindow(window=2, thresh=0)
        win.update(1.0)
        win.reset()
        assert win.observations == 0
        assert win.flagged_observations == 0


class _DequeWindow:
    """Reference window over a ``deque(maxlen=W)``, summing the way
    :class:`DiagnosisWindow` must: incrementally while filling, from
    scratch oldest to newest once full."""

    def __init__(self, window, thresh):
        self.window = window
        self.thresh = thresh
        self.reset()

    def update(self, difference):
        if len(self.differences) == self.window:
            self.differences.append(difference)
            total = 0.0
            for kept in self.differences:
                total += kept
            self.windowed_sum = total
        else:
            self.differences.append(difference)
            self.windowed_sum += difference
        self.observations += 1
        flagged = self.windowed_sum > self.thresh
        if flagged:
            self.flagged_observations += 1
        return flagged

    def reset(self):
        self.differences = deque(maxlen=self.window)
        self.windowed_sum = 0.0
        self.observations = 0
        self.flagged_observations = 0


#: One step of a window stream: a small difference, a +/-1e12 spike,
#: or ``None`` for a mid-stream ``reset()``.
window_steps = st.one_of(
    st.floats(min_value=-100.0, max_value=100.0),
    st.sampled_from([1e12, -1e12]),
    st.none(),
)


class TestCompactWindowDifferential:
    """The tuple-backed window against the deque reference, step by
    step: sums compare with ``==``, not approximately."""

    @given(
        w=st.integers(min_value=1, max_value=8),
        thresh=st.floats(min_value=-50.0, max_value=50.0),
        steps=st.lists(window_steps, max_size=80),
    )
    @settings(max_examples=200)
    def test_matches_deque_reference(self, w, thresh, steps):
        win = DiagnosisWindow(window=w, thresh=thresh)
        ref = _DequeWindow(w, thresh)
        for step in steps:
            if step is None:
                win.reset()
                ref.reset()
            else:
                assert win.update(step) == ref.update(step)
            assert win.windowed_sum == ref.windowed_sum
            assert win.is_misbehaving == (ref.windowed_sum > ref.thresh)
            assert tuple(win.contents) == tuple(ref.differences)
            assert win.observations == ref.observations
            assert win.flagged_observations == ref.flagged_observations
