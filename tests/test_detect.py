"""Tests for the pluggable detection subsystem (repro.detect)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diagnosis import DiagnosisWindow
from repro.core.monitor import SenderMonitor
from repro.core.params import PAPER_CONFIG
from repro.detect import (
    OBSERVATION_SCHEMA_VERSION,
    CusumDetector,
    CwminEstimatorDetector,
    Detector,
    DetectorSpecError,
    Observation,
    ObservationDecodeError,
    WindowDetector,
    detector_factory,
    make_detector,
    parse_spec,
    registered_detectors,
)

#: Observation streams used by property tests: (b_exp, b_act) pairs.
pairs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=0.0, max_value=1000.0),
    ),
    min_size=1,
    max_size=80,
)


def obs(b_exp, b_act, retries=1, time_us=0):
    return Observation(b_exp=b_exp, b_act=b_act, retries=retries,
                       time_us=time_us)


class TestObservation:
    def test_difference_matches_deviation_arithmetic(self):
        assert obs(31, 7).difference == float(31 - 7)
        assert obs(3.5, 10.0).difference == -6.5

    def test_frozen(self):
        with pytest.raises(AttributeError):
            obs(1, 2).b_exp = 3

    def test_protocol_conformance(self):
        for spec in registered_detectors():
            assert isinstance(
                make_detector(spec, PAPER_CONFIG), Detector
            )


#: JSON-representable observations (finite floats only; JSON has no
#: portable NaN/Inf, and from_dict rejects them anyway).
observations = st.builds(
    Observation,
    b_exp=st.floats(min_value=0.0, max_value=1e6,
                    allow_nan=False, allow_infinity=False),
    b_act=st.floats(min_value=0.0, max_value=1e6,
                    allow_nan=False, allow_infinity=False),
    retries=st.integers(min_value=1, max_value=16),
    time_us=st.integers(min_value=0, max_value=10**12),
)


class TestObservationCodec:
    """The versioned to_dict/from_dict wire schema (strict by design)."""

    @given(observations)
    @settings(max_examples=200)
    def test_round_trip(self, observation):
        """from_dict(to_dict(o)) == o, including through real JSON."""
        import json

        record = observation.to_dict()
        assert record["v"] == OBSERVATION_SCHEMA_VERSION
        assert Observation.from_dict(record) == observation
        rewired = json.loads(json.dumps(record))
        assert Observation.from_dict(rewired) == observation

    def _rejects(self, data, *needles):
        with pytest.raises(ObservationDecodeError) as err:
            Observation.from_dict(data)
        message = str(err.value)
        for needle in needles:
            assert needle in message, (
                f"error message {message!r} does not name {needle!r}"
            )

    def test_non_mapping_rejected(self):
        self._rejects([1, 2, 3], "JSON object", "list")

    def test_missing_version_rejected(self):
        record = obs(31, 7).to_dict()
        del record["v"]
        self._rejects(record, "'v'")

    def test_unsupported_version_rejected(self):
        record = obs(31, 7).to_dict()
        record["v"] = 99
        self._rejects(record, "99", str(OBSERVATION_SCHEMA_VERSION))

    def test_missing_field_named(self):
        record = obs(31, 7).to_dict()
        del record["b_act"]
        self._rejects(record, "b_act", "missing")

    def test_unknown_field_named(self):
        record = obs(31, 7).to_dict()
        record["rssi"] = -42
        self._rejects(record, "rssi", "unknown")

    def test_bool_is_not_a_number(self):
        record = obs(31, 7).to_dict()
        record["b_exp"] = True
        self._rejects(record, "b_exp", "number")

    def test_bool_is_not_an_integer(self):
        record = obs(31, 7).to_dict()
        record["retries"] = True
        self._rejects(record, "retries", "integer")

    def test_non_finite_backoff_rejected(self):
        for bad in (float("nan"), float("inf")):
            record = obs(31, 7).to_dict()
            record["b_act"] = bad
            self._rejects(record, "b_act", "finite")

    def test_float_retries_rejected(self):
        record = obs(31, 7).to_dict()
        record["retries"] = 1.5
        self._rejects(record, "retries", "integer")

    def test_range_violations_rejected(self):
        record = obs(31, 7).to_dict()
        record["retries"] = 0
        self._rejects(record, "retries", ">= 1")
        record = obs(31, 7).to_dict()
        record["time_us"] = -5
        self._rejects(record, "time_us", ">= 0")


class TestWindowAdapter:
    @given(pairs)
    @settings(max_examples=100)
    def test_matches_diagnosis_window_verdict_for_verdict(self, stream):
        """The adapter and the raw window must agree on every packet."""
        raw = DiagnosisWindow(window=5, thresh=20.0)
        adapted = WindowDetector(window=5, thresh=20.0)
        for b_exp, b_act in stream:
            expected = raw.update(float(b_exp - b_act))
            assert adapted.observe(obs(b_exp, b_act)) is expected
            assert adapted.is_misbehaving is raw.is_misbehaving
            assert adapted.windowed_sum == raw.windowed_sum

    def test_counters_forward_to_window(self):
        det = WindowDetector(window=2, thresh=0.0)
        det.observe(obs(5, 0))   # sum 5 > 0: flagged
        det.observe(obs(0, 10))  # sum -5: clear
        assert det.observations == 2
        assert det.flagged_observations == 1

    def test_thresh_setter_reaches_window(self):
        det = WindowDetector(window=5, thresh=20.0)
        det.thresh = 100.0
        assert det.thresh == 100.0
        assert det.observe(obs(50, 0)) is False  # judged against 100

    def test_reset(self):
        det = WindowDetector(window=3, thresh=5.0)
        det.observe(obs(100, 0))
        assert det.is_misbehaving
        det.reset()
        assert not det.is_misbehaving
        assert det.windowed_sum == 0.0


class TestCusum:
    def test_honest_stream_never_flagged(self):
        det = CusumDetector(h=2.0, k=0.25, norm=31.0)
        rng = random.Random(7)
        for _ in range(500):
            # Honest sender: deficit fluctuates around zero.
            x = rng.uniform(-10.0, 10.0)
            det.observe(obs(b_exp=x if x > 0 else 0.0,
                            b_act=-x if x < 0 else 0.0))
        assert not det.is_misbehaving

    def test_sustained_deficit_flags(self):
        det = CusumDetector(h=2.0, k=0.25, norm=31.0)
        flagged = False
        for _ in range(20):
            flagged = det.observe(obs(b_exp=31.0, b_act=3.0)) or flagged
        assert flagged and det.is_misbehaving

    def test_statistic_clamped_at_zero(self):
        det = CusumDetector(h=2.0, k=0.25, norm=31.0)
        for _ in range(50):
            det.observe(obs(b_exp=0.0, b_act=100.0))  # over-waiting
        assert det.statistic == 0.0

    def test_recovers_after_cheating_stops(self):
        det = CusumDetector(h=2.0, k=0.25, norm=31.0)
        for _ in range(20):
            det.observe(obs(b_exp=31.0, b_act=0.0))
        assert det.is_misbehaving
        for _ in range(200):
            det.observe(obs(b_exp=10.0, b_act=10.0))
        assert not det.is_misbehaving

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CusumDetector(h=0.0)
        with pytest.raises(ValueError):
            CusumDetector(k=-1.0)
        with pytest.raises(ValueError):
            CusumDetector(norm=0.0)


class TestEstimator:
    def test_silent_until_min_samples(self):
        det = CwminEstimatorDetector(fraction=0.5, min_samples=8,
                                     window=64, cw_min=31.0)
        for _ in range(7):
            assert not det.observe(obs(b_exp=31.0, b_act=0.0))
        assert det.observe(obs(b_exp=31.0, b_act=0.0))

    def test_estimate_tracks_ratio(self):
        det = CwminEstimatorDetector(cw_min=31.0)
        for _ in range(10):
            det.observe(obs(b_exp=30.0, b_act=15.0))
        assert det.estimate == pytest.approx(15.5)

    def test_honest_sender_not_flagged(self):
        det = CwminEstimatorDetector(fraction=0.5, min_samples=8,
                                     window=64, cw_min=31.0)
        rng = random.Random(11)
        for _ in range(300):
            b = rng.uniform(0.0, 62.0)
            det.observe(obs(b_exp=b, b_act=b + rng.uniform(-2.0, 2.0)))
        assert not det.is_misbehaving

    def test_window_eviction_forgets_old_cheating(self):
        det = CwminEstimatorDetector(fraction=0.5, min_samples=4,
                                     window=8, cw_min=31.0)
        for _ in range(8):
            det.observe(obs(b_exp=31.0, b_act=1.0))
        assert det.is_misbehaving
        for _ in range(8):  # honest samples push the cheating out
            det.observe(obs(b_exp=20.0, b_act=20.0))
        assert not det.is_misbehaving

    def test_evicted_spike_leaves_no_residue(self):
        """Once a huge one-off ``b_act`` has left the window, the
        detector must judge exactly as a fresh one fed the same last
        ``window`` samples.  Subtracting the evicted spike from the
        running sums left residue that flagged most honest senders."""
        window = 64
        det = CwminEstimatorDetector(window=window)
        det.observe(obs(b_exp=31.0, b_act=1e18))
        rng = random.Random(5)
        honest = []
        for _ in range(500):
            b = float(rng.randint(0, 62))
            honest.append(b)
            verdict = det.observe(obs(b_exp=b, b_act=b))
            if len(honest) < window:
                continue  # the spike is still in the window
            fresh = CwminEstimatorDetector(window=window)
            for kept in honest[-window:]:
                fresh_verdict = fresh.observe(obs(b_exp=kept, b_act=kept))
            assert det.estimate == fresh.estimate
            assert verdict == fresh_verdict == fresh.is_misbehaving
            assert not verdict

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CwminEstimatorDetector(fraction=0.0)
        with pytest.raises(ValueError):
            CwminEstimatorDetector(fraction=1.0)
        with pytest.raises(ValueError):
            CwminEstimatorDetector(min_samples=0)
        with pytest.raises(ValueError):
            CwminEstimatorDetector(min_samples=10, window=5)
        with pytest.raises(ValueError):
            CwminEstimatorDetector(cw_min=0.0)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(registered_detectors()) >= {
            "window", "cusum", "estimator"
        }

    def test_parse_plain_name(self):
        assert parse_spec("window") == ("window", {})

    def test_parse_with_params(self):
        name, params = parse_spec("cusum:h=2.5,k=0.1")
        assert name == "cusum"
        assert params == {"h": 2.5, "k": 0.1}

    def test_unknown_name_lists_registered(self):
        with pytest.raises(DetectorSpecError) as err:
            parse_spec("nonsense")
        msg = str(err.value)
        for name in registered_detectors():
            assert name in msg

    def test_empty_spec_rejected(self):
        with pytest.raises(DetectorSpecError):
            parse_spec("")
        with pytest.raises(DetectorSpecError):
            parse_spec("   ")

    def test_malformed_param_actionable(self):
        with pytest.raises(DetectorSpecError, match="key=value"):
            parse_spec("cusum:h")

    def test_unknown_param_lists_accepted(self):
        with pytest.raises(DetectorSpecError) as err:
            parse_spec("cusum:bogus=1")
        assert "h, k, norm" in str(err.value)

    def test_duplicate_param_rejected(self):
        with pytest.raises(DetectorSpecError, match="twice"):
            parse_spec("cusum:h=1,h=2")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(DetectorSpecError, match="not a number"):
            parse_spec("cusum:h=abc")

    def test_invalid_value_cites_spec(self):
        with pytest.raises(DetectorSpecError, match="window:W=0"):
            make_detector("window:W=0", PAPER_CONFIG)

    def test_defaults_come_from_config(self):
        det = make_detector("window", PAPER_CONFIG)
        assert det.window == PAPER_CONFIG.window
        assert det.thresh == PAPER_CONFIG.thresh
        cus = make_detector("cusum", PAPER_CONFIG)
        assert cus.norm == float(PAPER_CONFIG.cw_min)
        est = make_detector("estimator", PAPER_CONFIG)
        assert est.cw_min == float(PAPER_CONFIG.cw_min)

    def test_spec_overrides_config(self):
        det = make_detector("window:W=64,thresh=40", PAPER_CONFIG)
        assert det.window == 64
        assert det.thresh == 40.0

    def test_factory_returns_fresh_instances(self):
        factory = detector_factory("cusum", PAPER_CONFIG)
        a, b = factory(), factory()
        assert a is not b
        a.observe(obs(31, 0))
        assert b.statistic == 0.0

    def test_factory_validates_eagerly(self):
        with pytest.raises(DetectorSpecError):
            detector_factory("nope", PAPER_CONFIG)

    def test_factory_parses_spec_once(self, monkeypatch):
        from repro.detect import registry

        calls = []

        def spy(spec):
            calls.append(spec)
            return parse_spec(spec)

        monkeypatch.setattr(registry, "parse_spec", spy)
        factory = detector_factory("window:W=16", PAPER_CONFIG)
        for _ in range(50):
            factory()
        assert calls == ["window:W=16"]

    def test_factory_invalid_value_raises_on_build(self):
        factory = detector_factory("window:W=0", PAPER_CONFIG)
        with pytest.raises(DetectorSpecError, match="window:W=0"):
            factory()

    @pytest.mark.parametrize("spec", [
        "window:W=nan", "window:W=inf", "estimator:min_samples=nan",
    ])
    def test_factory_unresolvable_value_raises_eagerly(self, spec):
        """Arguments are resolved once, when the factory is made, so a
        value that cannot even be resolved fails there."""
        with pytest.raises(DetectorSpecError, match=spec):
            detector_factory(spec, PAPER_CONFIG)

    @pytest.mark.parametrize("spec, direct", [
        ("window", lambda: WindowDetector(
            window=PAPER_CONFIG.window, thresh=PAPER_CONFIG.thresh)),
        ("window:W=16,thresh=10",
         lambda: WindowDetector(window=16, thresh=10.0)),
        ("cusum", lambda: CusumDetector(
            h=2.0, k=0.25, norm=float(PAPER_CONFIG.cw_min))),
        ("cusum:h=1.5", lambda: CusumDetector(
            h=1.5, k=0.25, norm=float(PAPER_CONFIG.cw_min))),
        ("estimator", lambda: CwminEstimatorDetector(
            fraction=0.5, min_samples=8, window=64,
            cw_min=float(PAPER_CONFIG.cw_min))),
        ("estimator:window=16,min_samples=4",
         lambda: CwminEstimatorDetector(
             fraction=0.5, min_samples=4, window=16,
             cw_min=float(PAPER_CONFIG.cw_min))),
    ])
    def test_factory_builds_match_make_detector(self, spec, direct):
        """Factory builds, ``make_detector`` and the family class built
        by hand with the spec's values agree observation for
        observation."""
        rng = random.Random(spec)
        detectors = [detector_factory(spec, PAPER_CONFIG)(),
                     make_detector(spec, PAPER_CONFIG), direct()]
        assert len({type(d) for d in detectors}) == 1
        for _ in range(300):
            b_exp = rng.uniform(0.0, 62.0)
            o = obs(b_exp, b_exp * rng.choice((0.0, 0.5, 1.0, 1.2)))
            assert len({d.observe(o) for d in detectors}) == 1
            assert len({d.is_misbehaving for d in detectors}) == 1

    @given(pairs)
    @settings(max_examples=25)
    def test_detectors_deterministic(self, stream):
        """Same observation stream -> same verdicts (no hidden RNG)."""
        for spec in registered_detectors():
            one = make_detector(spec, PAPER_CONFIG)
            two = make_detector(spec, PAPER_CONFIG)
            for b_exp, b_act in stream:
                o = obs(b_exp, b_act)
                assert one.observe(o) is two.observe(o)
            assert one.is_misbehaving is two.is_misbehaving


class TestRegistrySpecErrorTokens:
    """Spec errors must name the offending token, not just a category
    — operators paste spec strings into CLI flags and campaign files,
    and 'bad spec' without the token is undebuggable at a distance."""

    def _error(self, spec):
        with pytest.raises(DetectorSpecError) as err:
            parse_spec(spec)
        return str(err.value)

    def test_unknown_name_names_the_token(self):
        message = self._error("cusmu:h=2.0")
        assert "cusmu" in message
        for name in registered_detectors():
            assert name in message  # ...and offers the alternatives

    def test_unknown_param_names_the_token(self):
        message = self._error("window:treshold=20")
        assert "treshold" in message
        assert "W, thresh" in message

    def test_duplicate_param_names_the_key(self):
        assert "'k'" in self._error("cusum:k=1,k=2")

    def test_malformed_numeric_names_the_value(self):
        message = self._error("estimator:fraction=half")
        assert "half" in message and "fraction" in message

    def test_dangling_assignment_quotes_the_fragment(self):
        assert "'thresh='" in self._error("window:thresh=")

    def test_empty_spec_lists_registered(self):
        message = self._error("   ")
        for name in registered_detectors():
            assert name in message


def _detector_fingerprint(detector):
    """Every externally observable piece of detector state."""
    fingerprint = {
        "misbehaving": detector.is_misbehaving,
        "observations": getattr(detector, "observations", None),
        "flagged_observations": getattr(
            detector, "flagged_observations", None
        ),
    }
    for attr in ("windowed_sum", "statistic", "estimate", "thresh"):
        if hasattr(detector, attr):
            fingerprint[attr] = getattr(detector, attr)
    return fingerprint


class TestResetLifecycle:
    """reset() must equal fresh construction, bit for bit.

    The service's sharded store recycles evicted detector instances
    through reset() (repro.service.store), so an evicted-then-
    readmitted sender is judged by a recycled detector: any residue
    would make its verdicts diverge from a never-seen sender's.
    """

    @given(dirty=pairs, stream=pairs)
    @settings(max_examples=50)
    def test_reset_equals_fresh_for_all_families(self, dirty, stream):
        for spec in registered_detectors():
            recycled = make_detector(spec, PAPER_CONFIG)
            for b_exp, b_act in dirty:
                recycled.observe(obs(b_exp, b_act))
            recycled.reset()
            fresh = make_detector(spec, PAPER_CONFIG)
            assert _detector_fingerprint(recycled) == \
                _detector_fingerprint(fresh), spec
            for b_exp, b_act in stream:
                o = obs(b_exp, b_act)
                assert recycled.observe(o) is fresh.observe(o), spec
            assert _detector_fingerprint(recycled) == \
                _detector_fingerprint(fresh), spec


class _RecordingDetector:
    """Fake detector capturing what the monitor feeds it."""

    def __init__(self):
        self.seen = []

    def observe(self, observation):
        self.seen.append(observation)
        return False

    @property
    def is_misbehaving(self):
        return False

    def reset(self):
        self.seen.clear()


class TestMonitorIntegration:
    def _drive(self, monitor, idle, attempt=1):
        verdict = monitor.on_rts(attempt, idle, now_us=idle * 20)
        monitor.on_response_sent("ack", attempt, idle)
        return verdict

    def test_first_packet_not_fed_to_detector(self):
        det = _RecordingDetector()
        monitor = SenderMonitor(1, PAPER_CONFIG, random.Random(1),
                                detector=det)
        self._drive(monitor, idle=0)
        assert det.seen == []  # no expectation existed yet

    def test_subsequent_packets_feed_observations(self):
        det = _RecordingDetector()
        monitor = SenderMonitor(1, PAPER_CONFIG, random.Random(1),
                                detector=det)
        self._drive(monitor, idle=0)
        self._drive(monitor, idle=10)
        assert len(det.seen) == 1
        seen = det.seen[0]
        assert seen.b_act == 10
        assert seen.b_exp >= 0
        assert seen.retries == 1
        assert seen.time_us == 200

    def test_default_detector_is_paper_window(self):
        monitor = SenderMonitor(1, PAPER_CONFIG, random.Random(1))
        assert isinstance(monitor.detector, WindowDetector)
        assert isinstance(monitor.diagnosis, DiagnosisWindow)
        assert monitor.diagnosis.window == PAPER_CONFIG.window
