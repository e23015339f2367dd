"""Tests for the online detection service (repro.service).

Covers the wire codec, the sharded LRU detector store, the verdict
log, the ingest facade (in-process, stdin-style streams, TCP), the
HTTP query API, and the subsystem's central promise: serving a
detector changes nothing — the ``window`` detector hosted online
produces the identical per-sender flag/clear verdict sequence as the
same detector inside the in-sim ``SenderMonitor`` on the same
observation stream.
"""

from __future__ import annotations

import gc
import io
import json
import math
import socket
import threading
import tracemalloc
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect import Observation
from repro.detect.window import WindowDetector
from repro.experiments.scenarios import (
    PROTOCOL_CORRECT,
    ScenarioConfig,
    run_scenario,
)
from repro.net import circle_topology
from repro.service import (
    DetectionService,
    ServiceHTTPServer,
    ShardedDetectorStore,
    TcpIngestServer,
    VerdictLog,
    WireError,
    decode_lines,
    decode_record,
    encode_record,
    ingest_stream,
    record_scenario_stream,
    recorded_verdicts,
    replay_stream,
    sender_of_line,
    shard_of,
)
from repro.service.codec import _decode_strict
from repro.service.store import FlagEvent


def obs(b_exp, b_act, retries=1, time_us=0):
    return Observation(b_exp=b_exp, b_act=b_act, retries=retries,
                       time_us=time_us)


def window_factory(window=5, thresh=20.0):
    return lambda: WindowDetector(window=window, thresh=thresh)


#: A canonical wire line with each field as a raw JSON token, for
#: spelling records that ``encode_record`` would never write.
WIRE_TEMPLATE = ('{{"b_act":{b_act},"b_exp":{b_exp},"retries":{retries},'
                 '"sender":"{sender}","time_us":{time_us},"v":{v}}}')


def wire_line(**tokens):
    fields = dict(b_act="7.0", b_exp="31.0", retries="1", sender="3",
                  time_us="0", v="1")
    fields.update(tokens)
    return WIRE_TEMPLATE.format(**fields)


#: Well-formed JSON whose numbers overflow the decoder: a 400-digit
#: backoff is beyond float range, a 5000-digit integer exceeds
#: Python's int-string digit limit inside json.loads.
OVERFLOW_LINES = {
    "b_act": wire_line(b_act="9" * 400),
    "retries": wire_line(retries="1" * 5000),
}


def decode_outcome(decode, line):
    try:
        sender, observation = decode(line)
    except WireError as exc:
        return "error", str(exc)
    return "ok", sender, observation


def assert_decodes_like_strict(line):
    """decode_record (fast path or not) agrees with the strict path:
    the same error message, or the same (sender, Observation) down to
    field types and the sign of zero."""
    fast = decode_outcome(decode_record, line)
    strict = decode_outcome(_decode_strict, line)
    assert fast == strict
    if fast[0] == "ok":
        for name in ("b_exp", "b_act", "retries", "time_us"):
            mine = getattr(fast[2], name)
            theirs = getattr(strict[2], name)
            assert type(mine) is type(theirs), name
            assert math.copysign(1, mine) == math.copysign(1, theirs), name
    return fast


finite = st.floats(allow_nan=False, allow_infinity=False)
observations = st.builds(
    Observation, b_exp=finite, b_act=finite,
    retries=st.integers(min_value=-3, max_value=2**70),
    time_us=st.integers(min_value=-3, max_value=2**70),
)
senders = st.text(min_size=0, max_size=300) | st.text(
    st.characters(codec="ascii"), min_size=250, max_size=260)
canonical_lines = st.builds(encode_record, senders, observations)
#: Number-ish JSON (and non-JSON) tokens for the templated lines.
number_tokens = st.from_regex(
    r"-?[0-9]{1,24}(\.[0-9]{0,4})?([eE][-+]?[0-9]{1,3})?", fullmatch=True
) | st.sampled_from(["-0", "-0.0", "00", "01.5", "1e400", "NaN",
                     "Infinity", "true", "null", '"1"', "1.", ".5"])
templated_lines = st.builds(
    wire_line, b_act=number_tokens, b_exp=number_tokens,
    retries=number_tokens, time_us=number_tokens, v=number_tokens,
)
#: Characters a single-character mutation inserts or substitutes.
MUTATION_ALPHABET = '0123456789-+.eE",:{}[] \\\x00ab'


@st.composite
def mutated_lines(draw):
    line = draw(canonical_lines)
    index = draw(st.integers(min_value=0, max_value=len(line)))
    char = draw(st.sampled_from(MUTATION_ALPHABET))
    kind = draw(st.sampled_from(["insert", "replace", "delete"]))
    if kind == "insert":
        return line[:index] + char + line[index:]
    if kind == "replace":
        return line[:index] + char + line[index + 1:]
    return line[:index] + line[index + 1:]


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
class TestCodec:
    def test_round_trip(self):
        original = obs(31.0, 7.5, retries=2, time_us=480)
        sender, decoded = decode_record(encode_record("node-3", original))
        assert sender == "node-3"
        assert decoded == original

    def test_wire_line_is_flat_sorted_json(self):
        line = encode_record("3", obs(31, 7))
        data = json.loads(line)
        assert data == {"v": 1, "sender": "3", "b_exp": 31.0,
                        "b_act": 7.0, "retries": 1, "time_us": 0}
        assert "\n" not in line

    def test_invalid_json_rejected(self):
        with pytest.raises(WireError, match="not valid JSON"):
            decode_record("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(WireError, match="JSON object.*list"):
            decode_record("[1, 2]")

    def test_missing_sender_rejected(self):
        line = json.dumps(obs(31, 7).to_dict())
        with pytest.raises(WireError, match="'sender'"):
            decode_record(line)

    def test_bad_sender_rejected(self):
        for sender in ("", 3, None):
            record = obs(31, 7).to_dict()
            record["sender"] = sender
            with pytest.raises(WireError, match="'sender'"):
                decode_record(json.dumps(record))

    def test_oversized_sender_rejected(self):
        record = obs(31, 7).to_dict()
        record["sender"] = "x" * 300
        with pytest.raises(WireError, match="256"):
            decode_record(json.dumps(record))

    def test_observation_schema_errors_become_wire_errors(self):
        record = obs(31, 7).to_dict()
        record["sender"] = "3"
        record["bogus"] = 1
        with pytest.raises(WireError, match="bogus"):
            decode_record(json.dumps(record))

    def test_schema_version_must_be_an_integer(self):
        """``True == 1`` and ``1.0 == 1`` in Python; neither is the
        integer schema version on the wire (bools are not numbers)."""
        for token in ("true", "1.0"):
            with pytest.raises(WireError, match="schema version"):
                decode_record(wire_line(v=token))

    def test_overflowing_numbers_rejected_naming_the_field(self):
        for field, line in OVERFLOW_LINES.items():
            with pytest.raises(WireError, match=repr(field)):
                decode_record(line)
        # Integer literals anywhere else are still a WireError.
        for tail in ("]", ", {nope", ", " + "[" * 100_000):
            with pytest.raises(WireError, match="too long"):
                decode_record("[" + "1" * 5000 + tail)
        with pytest.raises(WireError, match="not valid JSON"):
            decode_record("[" * 100_000)

    def test_canonical_line_takes_the_fast_path(self, monkeypatch):
        """encode_record output never reaches json.loads."""
        def no_loads(*args, **kwargs):
            raise AssertionError("json.loads called on a canonical line")

        monkeypatch.setattr(json, "loads", no_loads)
        for sender in ("3", "node-x", "a b", "x" * 256):
            original = obs(31.0, -0.0, retries=7, time_us=10**15)
            assert decode_record(encode_record(sender, original)) \
                == (sender, original)

    @pytest.mark.parametrize("line, expected", [
        (wire_line(retries="0"), "'retries' must be >= 1"),
        (wire_line(time_us="-1"), "'time_us' must be >= 0"),
        (wire_line(b_act="1e400"), "'b_act' must be finite"),
        (wire_line(b_exp="NaN"), "'b_exp' must be finite"),
        (wire_line(b_act="00"), "not valid JSON"),
        (wire_line(b_act="-0"), None),
        (wire_line(b_act="-0.0"), None),
        (wire_line(b_act="12", b_exp="-3"), None),
        (wire_line(time_us="-0"), None),
        (wire_line(sender="x" * 256), None),
        (wire_line(sender="x" * 257), "exceeds 256 characters (257)"),
        (wire_line(sender=""), "non-empty string"),
        (wire_line(sender="a\tb"), "not valid JSON"),
        (wire_line(b_act="1" * 308), None),
        (wire_line(b_act="1" * 309), None),
        (wire_line(b_act="9" * 309), "'b_act' must be finite"),
        (" " + wire_line(), None),
    ])
    def test_fast_path_edge_cases(self, line, expected):
        outcome = assert_decodes_like_strict(line)
        if expected is None:
            assert outcome[0] == "ok", outcome
        else:
            assert outcome[0] == "error" and expected in outcome[1], outcome

    def test_integer_backoffs_decode_like_json(self):
        _, decoded = decode_record(wire_line(b_act="-0", b_exp="12"))
        assert decoded.b_act == 0.0 and math.copysign(1, decoded.b_act) == 1
        assert decoded.b_exp == 12.0 and type(decoded.b_exp) is float

    @given(canonical_lines)
    @settings(max_examples=300, deadline=None)
    def test_fast_path_matches_strict_on_canonical_lines(self, line):
        assert_decodes_like_strict(line)

    @given(mutated_lines())
    @settings(max_examples=500, deadline=None)
    def test_fast_path_matches_strict_on_mutated_lines(self, line):
        assert_decodes_like_strict(line)

    @given(templated_lines)
    @settings(max_examples=200, deadline=None)
    def test_fast_path_matches_strict_on_number_spellings(self, line):
        assert_decodes_like_strict(line)

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_fast_path_matches_strict_on_arbitrary_text(self, line):
        assert_decodes_like_strict(line)

    def test_decode_lines_skips_blank_keepalives(self):
        lines = [encode_record("a", obs(1, 1)), "", "   ",
                 encode_record("b", obs(2, 2))]
        decoded = list(decode_lines(lines))
        assert [sender for sender, _ in decoded] == ["a", "b"]

    def test_sender_of_line_matches_decode(self):
        for sender in ("3", "node-x", "a b", "station_42"):
            line = encode_record(sender, obs(31, 7))
            assert sender_of_line(line) == sender
            assert sender_of_line(line) == decode_record(line)[0]

    def test_sender_of_line_undecided_never_wrong(self):
        """The scan may answer None (undecided) but never a sender
        different from the strict decoder's."""
        # Escaped sender: the raw span contains backslashes -> None.
        record = obs(31, 7).to_dict()
        record["sender"] = 'quo"te\\'
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        assert sender_of_line(line) is None
        assert decode_record(line)[0] == 'quo"te\\'
        # Non-ASCII sender: json.dumps \u-escapes it -> None, and the
        # strict decoder still recovers the real key.
        unicode_line = encode_record("ü", obs(31, 7))
        assert sender_of_line(unicode_line) is None
        assert decode_record(unicode_line)[0] == "ü"
        # No sender span at all -> None (decode rejects too).
        assert sender_of_line(json.dumps(obs(31, 7).to_dict())) is None
        # Oversized span -> None, deferring to decode's rejection.
        record["sender"] = "x" * 300
        long_line = json.dumps(record, separators=(",", ":"),
                               sort_keys=True)
        assert sender_of_line(long_line) is None

    def test_sender_of_line_undecided_on_duplicate_sender_key(self):
        """JSON keeps the last duplicate key, so a scan that stops at
        the first ``"sender"`` would route by the wrong key."""
        for second in ('"sender":"B"', '"sender" : "B"',
                       '"s\\u0065nder":"B"'):
            line = wire_line(sender="A").replace(
                ',"time_us"', "," + second + ',"time_us"')
            assert decode_record(line)[0] == "B"
            assert sender_of_line(line) is None


# ----------------------------------------------------------------------
# Sharded store
# ----------------------------------------------------------------------
class TestShardOf:
    def test_deterministic_and_in_range(self):
        for sender in ("1", "3", "node-x", "ffff"):
            index = shard_of(sender, 8)
            assert 0 <= index < 8
            assert index == shard_of(sender, 8)  # stable across calls

    def test_spreads_keys(self):
        hit = {shard_of(str(i), 8) for i in range(1000)}
        assert hit == set(range(8))


class TestShardedDetectorStore:
    def test_verdict_matches_bare_detector(self):
        store = ShardedDetectorStore(window_factory(), shards=2,
                                     max_entries=8)
        bare = WindowDetector(window=5, thresh=20.0)
        for i in range(10):
            o = obs(31.0, 2.0, time_us=i)
            verdict, _ = store.observe("3", o)
            assert verdict is bare.observe(o)

    def test_first_flag_event_once_per_tenure(self):
        store = ShardedDetectorStore(window_factory(), shards=1,
                                     max_entries=8)
        events = []
        for i in range(6):
            _, event = store.observe("3", obs(31.0, 0.0, time_us=i * 10))
            if event is not None:
                events.append(event)
        assert len(events) == 1
        event = events[0]
        assert isinstance(event, FlagEvent)
        assert event.sender == "3"
        assert event.observations == 1  # deficit 31 > thresh 20: first obs
        assert event.wall >= event.first_obs_wall

    def test_lru_eviction_counts_and_bounds(self):
        store = ShardedDetectorStore(window_factory(), shards=1,
                                     max_entries=3)
        for i in range(10):
            store.observe(str(i), obs(1.0, 1.0))
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["evictions"] == 7
        assert len(store) == 3
        # Oldest evicted: senders 0..6 gone, 7..9 resident.
        assert store.get("0") is None
        assert store.get("9") is not None

    def test_touch_refreshes_lru_order(self):
        store = ShardedDetectorStore(window_factory(), shards=1,
                                     max_entries=2)
        store.observe("a", obs(1, 1))
        store.observe("b", obs(1, 1))
        store.observe("a", obs(1, 1))  # refresh a; b is now coldest
        store.observe("c", obs(1, 1))  # evicts b
        assert store.get("a") is not None
        assert store.get("b") is None
        assert store.get("c") is not None

    def test_recycled_detector_judges_like_fresh(self):
        """Evict a flagged sender, readmit it: verdicts start clean."""
        store = ShardedDetectorStore(window_factory(), shards=1,
                                     max_entries=1)
        for _ in range(3):
            store.observe("cheat", obs(31.0, 0.0))
        assert store.get("cheat")["flagged"]
        store.observe("other", obs(1.0, 1.0))  # evicts (and recycles)
        assert store.stats()["flagged_evictions"] == 1
        verdict, event = store.observe("cheat", obs(1.0, 1.0))
        assert verdict is False  # no residue from the earlier tenure
        snapshot = store.get("cheat")
        assert snapshot["observations"] == 1
        assert snapshot["flagged_observations"] == 0

    def test_transition_log_bounded_and_ordered(self):
        store = ShardedDetectorStore(window_factory(window=1, thresh=5.0),
                                     shards=1, max_entries=4,
                                     transition_cap=4)
        for i in range(20):
            # Alternate flagging/clear observations: a transition each.
            deficit = 10.0 if i % 2 == 0 else -10.0
            store.observe("3", obs(max(deficit, 0.0),
                                   max(-deficit, 0.0), time_us=i))
        transitions = store.get("3")["transitions"]
        assert len(transitions) == 4  # capped, oldest dropped
        kinds = [t["verdict"] for t in transitions]
        assert kinds in (["flag", "clear"] * 2, ["clear", "flag"] * 2)

    def test_snapshot_and_flagged_senders(self):
        store = ShardedDetectorStore(window_factory(), shards=4,
                                     max_entries=8)
        store.observe("honest", obs(5.0, 5.0))
        store.observe("cheat", obs(31.0, 0.0))
        assert store.flagged_senders() == ["cheat"]
        snapshot = store.get("cheat")
        assert snapshot["flagged"] is True
        assert snapshot["first_flag"]["observations"] == 1
        assert snapshot["shard"] == shard_of("cheat", 4)

    def test_resident_sender_footprint(self):
        """A resident honest ``window`` sender costs at most 3
        GC-tracked objects (entry, detector, window) and 600 bytes:
        the store holds up to ``shards * max_entries`` of them, and
        every full collection walks each tracked object."""
        senders = [f"sender-{i:05d}" for i in range(10_000)]
        honest = [obs(31.0, 31.0, time_us=i) for i in range(7)]
        store = ShardedDetectorStore(window_factory(), shards=8,
                                     max_entries=len(senders))
        gc.collect()
        tracked_before = len(gc.get_objects())
        tracemalloc.start()
        try:
            bytes_before = tracemalloc.get_traced_memory()[0]
            for o in honest:  # fills and then wraps every window
                for sender in senders:
                    store.observe(sender, o)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - bytes_before
        finally:
            tracemalloc.stop()
        tracked = len(gc.get_objects()) - tracked_before
        assert len(store) == len(senders)
        assert tracked / len(senders) <= 3.0
        assert held / len(senders) <= 600

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedDetectorStore(window_factory(), shards=0)
        with pytest.raises(ValueError, match="max_entries"):
            ShardedDetectorStore(window_factory(), max_entries=0)
        with pytest.raises(ValueError, match="transition_cap"):
            ShardedDetectorStore(window_factory(), transition_cap=1)


# ----------------------------------------------------------------------
# Verdict log
# ----------------------------------------------------------------------
def _flag_event(sender, time_us=100):
    return FlagEvent(sender=sender, time_us=time_us, wall=2.0,
                     first_obs_wall=1.5, observations=4)


class TestVerdictLog:
    def test_ids_dense_from_one(self):
        log = VerdictLog()
        assert [log.publish(_flag_event(str(i))) for i in range(3)] \
            == [1, 2, 3]

    def test_events_after_cursor(self):
        log = VerdictLog()
        for i in range(5):
            log.publish(_flag_event(str(i)))
        events, newest, info = log.events_after(2)
        assert [e["id"] for e in events] == [3, 4, 5]
        assert newest == 5
        assert info == {"oldest": 1, "dropped": 0}
        assert events[0]["latency_s"] == pytest.approx(0.5)
        events, newest, _ = log.events_after(5)
        assert events == [] and newest == 5

    def test_limit_moves_cursor_to_last_returned(self):
        log = VerdictLog()
        for i in range(5):
            log.publish(_flag_event(str(i)))
        events, newest, _ = log.events_after(0, limit=2)
        assert [e["id"] for e in events] == [1, 2]
        assert newest == 2  # resuming from here misses nothing

    def test_cap_drops_oldest_and_counts(self):
        log = VerdictLog(cap=3)
        for i in range(5):
            log.publish(_flag_event(str(i)))
        stats = log.stats()
        assert stats == {"flags": 5, "retained": 3, "dropped": 2,
                         "oldest": 3, "cap": 3}
        events, _, info = log.events_after(0)
        assert [e["id"] for e in events] == [3, 4, 5]
        # The docstring's promise: every read reports the retained
        # window, so a resuming poller can detect its gap.
        assert info == {"oldest": 3, "dropped": 2}

    def test_empty_log_reports_no_oldest(self):
        events, newest, info = VerdictLog().events_after(0)
        assert events == [] and newest == 0
        assert info == {"oldest": None, "dropped": 0}

    def test_wait_for_returns_immediately_when_ready(self):
        log = VerdictLog()
        log.publish(_flag_event("3"))
        events, newest, _ = log.wait_for(0, timeout=0.01)
        assert [e["id"] for e in events] == [1]

    def test_wait_for_times_out_empty(self):
        log = VerdictLog()
        events, newest, info = log.wait_for(0, timeout=0.01)
        assert events == [] and newest == 0
        assert info == {"oldest": None, "dropped": 0}

    def test_wait_for_wakes_on_publish(self):
        log = VerdictLog()
        got = {}

        def wait():
            got["events"], got["newest"], _ = log.wait_for(0, timeout=5.0)

        waiter = threading.Thread(target=wait)
        waiter.start()
        log.publish(_flag_event("3"))
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert [e["sender"] for e in got["events"]] == ["3"]


# ----------------------------------------------------------------------
# Ingest facade
# ----------------------------------------------------------------------
class TestDetectionService:
    def test_ingest_and_stats(self):
        service = DetectionService(shards=2, max_entries=8)
        assert service.ingest_observation("3", obs(31.0, 0.0)) is True
        assert service.ingest_observation("5", obs(1.0, 1.0)) is False
        stats = service.stats()
        assert stats["detector"] == "window"
        assert stats["observations"] == 2
        assert stats["store"]["currently_flagged"] == 1
        assert stats["verdicts"]["flags"] == 1

    def test_ingest_stream_counts_rejects(self):
        service = DetectionService(shards=1, max_entries=8)
        lines = [
            encode_record("3", obs(31.0, 0.0)),
            "",                       # keep-alive, skipped
            "{broken",                # rejected
            encode_record("5", obs(1.0, 1.0)),
            json.dumps({"v": 1, "b_exp": 1}),  # missing fields: rejected
        ]
        errors = io.StringIO()
        ingested, rejected = ingest_stream(service, lines, errors=errors)
        assert (ingested, rejected) == (2, 2)
        assert service.stats()["decode_errors"] == 2
        report = errors.getvalue()
        assert "line 3" in report and "line 5" in report

    def test_cusum_detector_spec_served(self):
        service = DetectionService(detector="cusum:h=2.0,k=0.25",
                                   shards=1, max_entries=8)
        flagged = False
        for _ in range(20):
            flagged = service.ingest_observation("3", obs(31.0, 3.0))
        assert flagged
        assert service.stats()["detector"] == "cusum:h=2.0,k=0.25"

    def test_concurrent_counters_are_exact(self):
        """Counter updates from many ingest threads must not lose
        increments: ``_ingested``/``decode_errors``/``disconnects``
        are lock-guarded, and an unlocked ``+=`` would silently skew
        them (this hammer fails reliably without the lock)."""
        service = DetectionService(shards=4, max_entries=1_000)
        threads_n, per_thread = 8, 2_000
        start_gate = threading.Barrier(threads_n)

        def hammer(worker):
            start_gate.wait()
            for i in range(per_thread):
                service.ingest_observation(
                    f"{worker}-{i % 50}", obs(1.0, 1.0, time_us=i)
                )
                service.record_decode_error()
                service.record_disconnect()

        threads = [
            threading.Thread(target=hammer, args=(n,))
            for n in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        stats = service.stats()
        expected = threads_n * per_thread
        assert stats["observations"] == expected
        assert stats["decode_errors"] == expected
        assert stats["disconnects"] == expected
        assert service._ingested == expected

    def test_gap_reported_when_cursor_precedes_retention(self):
        """A poller resuming from before the retained window must see
        the gap (dropped events it can never observe), not a silently
        truncated history."""
        service = DetectionService(shards=1, max_entries=64,
                                   verdict_cap=3)
        for i in range(6):  # six first flags through a cap-3 log
            service.ingest_observation(f"cheat-{i}", obs(31.0, 0.0))
        payload = service.api_verdicts("0")
        assert [e["id"] for e in payload["events"]] == [4, 5, 6]
        assert payload["oldest"] == 4
        assert payload["dropped"] == 3
        assert payload["gap"] is True  # ids 1..3 are unobservable
        # Resuming from the returned cursor: no gap.
        follow = service.api_verdicts(str(payload["next"]))
        assert follow["events"] == [] and follow["gap"] is False
        # A cursor exactly at the retention edge is not a gap either.
        assert service.api_verdicts("3")["gap"] is False

    def test_spool_replay_restores_flag_history(self, tmp_path):
        from repro.service import FlagSpool, spool_path

        path = spool_path(tmp_path, 0, 1)
        with FlagSpool(path, detector="window") as spool:
            service = DetectionService(shards=1, max_entries=8,
                                       spool=spool)
            service.ingest_observation("cheat", obs(31.0, 0.0))
            service.ingest_observation("honest", obs(1.0, 1.0))
            before = service.api_verdicts("0")
        with FlagSpool(path, detector="window") as spool:
            restarted = DetectionService(shards=1, max_entries=8,
                                         spool=spool)
            assert restarted.replayed_flags == 1
            after = restarted.api_verdicts("0")
        assert after["events"] == before["events"]  # byte-identical
        assert len(spool.replayed) == 1  # replay never re-appends


class TestTcpIngest:
    def test_stream_over_socket(self):
        service = DetectionService(shards=1, max_entries=8)
        server = TcpIngestServer(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=5) as conn:
                payload = "\n".join([
                    encode_record("3", obs(31.0, 0.0)),
                    "{broken",
                    encode_record("5", obs(1.0, 1.0)),
                ]) + "\n"
                conn.sendall(payload.encode())
                conn.shutdown(socket.SHUT_WR)
                reply = conn.makefile().read()
            rejects = [json.loads(line) for line in reply.splitlines()]
            assert len(rejects) == 1
            assert "JSON" in rejects[0]["error"]
            deadline = 50
            while service.stats()["observations"] < 2 and deadline:
                threading.Event().wait(0.05)
                deadline -= 1
            stats = service.stats()
            assert stats["observations"] == 2
            assert stats["decode_errors"] == 1
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("field", sorted(OVERFLOW_LINES))
    def test_overflowing_line_rejected_and_stream_continues(self, field):
        """A well-formed line whose number overflows the decoder is one
        reject, not a dead connection handler."""
        service = DetectionService(shards=1, max_entries=8)
        server = TcpIngestServer(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=5) as conn:
                payload = OVERFLOW_LINES[field] + "\n" + encode_record(
                    "5", obs(1.0, 1.0)) + "\n"
                conn.sendall(payload.encode())
                conn.shutdown(socket.SHUT_WR)
                reply = conn.makefile().read()
            rejects = [json.loads(line) for line in reply.splitlines()]
            assert len(rejects) == 1 and repr(field) in rejects[0]["error"]
            deadline = 50
            while service.stats()["observations"] < 1 and deadline:
                threading.Event().wait(0.05)
                deadline -= 1
            stats = service.stats()
            assert stats["observations"] == 1
            assert stats["decode_errors"] == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_client_dying_mid_stream_is_counted_not_raised(self):
        """A peer that resets the connection mid-record must not dump
        a traceback from the handler thread: the reset is counted as a
        disconnect and everything ingested before it survives."""
        service = DetectionService(shards=1, max_entries=8)
        server = TcpIngestServer(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            conn = socket.create_connection((host, port), timeout=5)
            conn.sendall((encode_record("3", obs(31.0, 0.0)) + "\n"
                          + '{"half a rec').encode())  # dies mid-line
            deadline = 100
            while service.stats()["observations"] < 1 and deadline:
                threading.Event().wait(0.05)
                deadline -= 1
            # SO_LINGER with zero timeout turns close() into a hard
            # RST, which surfaces as ConnectionResetError server-side.
            import struct
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            conn.close()
            deadline = 100
            while service.stats()["disconnects"] < 1 and deadline:
                threading.Event().wait(0.05)
                deadline -= 1
            stats = service.stats()
            assert stats["disconnects"] == 1
            assert stats["observations"] == 1  # pre-reset line folded in
        finally:
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
# HTTP API
# ----------------------------------------------------------------------
@pytest.fixture
def api():
    """(base_url, service) with a live threaded HTTP server."""
    service = DetectionService(shards=2, max_entries=8)
    server = ServiceHTTPServer(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", service
    finally:
        server.shutdown()
        server.server_close()


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHttpApi:
    def test_stats(self, api):
        base, service = api
        service.ingest_observation("3", obs(31.0, 0.0))
        status, body = _get(f"{base}/stats")
        assert status == 200
        assert body["observations"] == 1
        assert body["store"]["shards"] == 2

    def test_verdicts_polling(self, api):
        base, service = api
        service.ingest_observation("3", obs(31.0, 0.0))
        service.ingest_observation("7", obs(1.0, 1.0))
        status, body = _get(f"{base}/verdicts")
        assert status == 200
        assert [e["sender"] for e in body["events"]] == ["3"]
        assert body["flagged"] == ["3"]
        cursor = body["next"]
        status, body = _get(f"{base}/verdicts?after={cursor}")
        assert body["events"] == []
        assert body["next"] == cursor

    def test_sender_snapshot_and_404(self, api):
        base, service = api
        service.ingest_observation("3", obs(31.0, 0.0))
        status, body = _get(f"{base}/senders/3")
        assert status == 200
        assert body["flagged"] is True
        status, body = _get(f"{base}/senders/unknown")
        assert status == 404
        assert "evicted" in body["error"]

    def test_unknown_endpoint_lists_routes(self, api):
        base, _ = api
        status, body = _get(f"{base}/nope")
        assert status == 404
        assert "/verdicts" in body["endpoints"]

    def test_bad_query_param_is_400(self, api):
        base, _ = api
        status, body = _get(f"{base}/verdicts?after=abc")
        assert status == 400
        assert "'after'" in body["error"]
        status, body = _get(f"{base}/watch?timeout=-1")
        assert status == 400

    def test_watch_long_poll_wakes_on_flag(self, api):
        base, service = api
        got = {}

        def poll():
            got["status"], got["body"] = _get(
                f"{base}/watch?after=0&timeout=10"
            )

        poller = threading.Thread(target=poll)
        poller.start()
        service.ingest_observation("3", obs(31.0, 0.0))
        poller.join(timeout=10.0)
        assert not poller.is_alive()
        assert got["status"] == 200
        assert [e["sender"] for e in got["body"]["events"]] == ["3"]

    def test_watch_timeout_returns_empty(self, api):
        base, _ = api
        status, body = _get(f"{base}/watch?after=0&timeout=0.05")
        assert status == 200
        assert body["events"] == []
        assert body["gap"] is False and body["dropped"] == 0

    def test_verdicts_limit_walk_loses_nothing(self, api):
        """Walking the full event list with ?limit=N across polls
        (always resuming from the returned ``next``) must yield every
        event exactly once, whatever N."""
        base, service = api
        for i in range(10):
            service.ingest_observation(f"cheat-{i}", obs(31.0, 0.0))
        for limit in (1, 3, 4, 10, 25):
            walked, cursor, polls = [], 0, 0
            while True:
                status, body = _get(
                    f"{base}/verdicts?after={cursor}&limit={limit}"
                )
                assert status == 200
                assert len(body["events"]) <= limit
                if not body["events"]:
                    assert body["next"] == cursor
                    break
                walked.extend(e["id"] for e in body["events"])
                cursor = body["next"]
                polls += 1
                assert polls <= 20, "cursor walk failed to terminate"
            assert walked == list(range(1, 11))  # no loss, no dupes

    def test_verdicts_gap_surfaces_over_http(self):
        """Cap overflow between polls: the next poll's payload says
        events were dropped instead of silently skipping them."""
        service = DetectionService(shards=1, max_entries=64,
                                   verdict_cap=2)
        server = ServiceHTTPServer(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            for i in range(5):
                service.ingest_observation(f"cheat-{i}", obs(31.0, 0.0))
            status, body = _get(f"{base}/verdicts?after=1")
            assert status == 200
            assert [e["id"] for e in body["events"]] == [4, 5]
            assert body["oldest"] == 4
            assert body["dropped"] == 3
            assert body["gap"] is True  # ids 2 and 3 fell out of view
        finally:
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
# Sim adapter: the served-equals-simulated contract
# ----------------------------------------------------------------------
def _scenario(seconds=0.4, seed=1):
    topo = circle_topology(8, misbehaving=(3,), pm_percent=60.0)
    return ScenarioConfig(topology=topo, protocol=PROTOCOL_CORRECT,
                          duration_us=int(seconds * 1_000_000), seed=seed)


class TestSimAdapter:
    def test_recording_does_not_perturb_the_run(self):
        config = _scenario()
        records, recorded_result = record_scenario_stream(config)
        plain_result = run_scenario(config)
        assert recorded_result.events_processed \
            == plain_result.events_processed
        assert recorded_result.collector.deliveries \
            == plain_result.collector.deliveries
        assert records, "a saturated 0.4 s run must judge observations"

    def test_stream_is_judged_observations_in_arrival_order(self):
        records, _ = record_scenario_stream(_scenario())
        assert [r.seq for r in records] == sorted(r.seq for r in records)
        senders = {r.sender for r in records}
        assert "3" in senders and len(senders) > 1

    def test_rejects_baseline_protocol(self):
        topo = circle_topology(4)
        config = ScenarioConfig(topology=topo, protocol="802.11",
                                duration_us=100_000, seed=1)
        with pytest.raises(ValueError, match="correct"):
            record_scenario_stream(config)

    def test_served_verdicts_bit_identical_to_sim(self):
        """THE subsystem contract: window served online == in-sim."""
        records, _ = record_scenario_stream(_scenario())
        in_sim = recorded_verdicts(records)
        service = DetectionService(detector="window", shards=4,
                                   max_entries=10_000)
        served = replay_stream(service, records)
        assert served == in_sim
        # The cheater must actually have been flagged at some point,
        # or the equality above proves nothing interesting.
        assert any(in_sim["3"]), "cheater at PM=60 never flagged in-sim"
        honest = [s for s in in_sim if s != "3"]
        assert honest and all(not any(in_sim[s]) for s in honest)

    def test_wire_round_trip_preserves_bit_identity(self):
        """Same contract with the JSONL wire format in the middle."""
        records, _ = record_scenario_stream(_scenario(seconds=0.25))
        lines = [encode_record(r.sender, r.observation) for r in records]
        service = DetectionService(detector="window", shards=4,
                                   max_entries=10_000)
        errors = io.StringIO()
        ingested, rejected = ingest_stream(service, lines, errors=errors)
        assert rejected == 0 and ingested == len(records)
        for sender, sequence in recorded_verdicts(records).items():
            snapshot = service.store.get(sender)
            assert snapshot["observations"] == len(sequence)
            assert snapshot["flagged"] == sequence[-1]
            assert snapshot["flagged_observations"] == sum(sequence)


# ----------------------------------------------------------------------
# Load generator (bench correctness at toy scale)
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_generate_stream_is_deterministic(self):
        from repro.service import BenchConfig, generate_stream

        config = BenchConfig(senders=500, observations=1_500, seed=9)
        one, cheaters_one = generate_stream(config)
        two, cheaters_two = generate_stream(config)
        assert one == two and cheaters_one == cheaters_two
        assert len(one) == 1_500
        assert len({sender for sender, _ in one}) == 500

    def test_run_bench_invariants_at_toy_scale(self):
        from repro.service import BenchConfig, run_bench

        config = BenchConfig(senders=2_000, observations=8_000,
                             shards=2, max_entries=400, seed=3)
        result = run_bench(config)  # asserts honest-never-flagged
        assert result.distinct_senders == 2_000
        assert result.evictions > 0
        assert result.flagged > 0
        assert result.obs_per_sec > 0
        assert result.observations == 8_000
        assert result.p99_flag_latency_s is not None

    def test_config_validation(self):
        from repro.service import BenchConfig

        with pytest.raises(ValueError, match="senders"):
            BenchConfig(senders=0)
        with pytest.raises(ValueError, match="observations"):
            BenchConfig(senders=100, observations=50)
        with pytest.raises(ValueError, match="cheater_fraction"):
            BenchConfig(cheater_fraction=1.5)
        with pytest.raises(ValueError, match="pm"):
            BenchConfig(pm=0.0)
        with pytest.raises(ValueError, match="workers"):
            BenchConfig(workers=0)

    def test_p99_tiny_samples(self):
        """Nearest-rank p99 on samples the naive ``int(0.99*n)-1``
        index got wrong: it answered the *minimum* of a 2-element
        sample (and crashed the spirit of p99 generally below n=100,
        where the only honest answer is the maximum)."""
        from repro.service import p99_latency

        assert p99_latency([]) is None
        assert p99_latency([0.7]) == 0.7
        assert p99_latency([0.1, 0.9]) == 0.9  # naive formula said 0.1
        assert p99_latency([0.1, 0.5, 0.9]) == 0.9
        ninety_nine = [float(i) for i in range(1, 100)]
        assert p99_latency(ninety_nine) == 99.0
        hundred = [float(i) for i in range(1, 101)]
        assert p99_latency(hundred) == 99.0  # rank ceil(99.0) = 99
        two_hundred = [float(i) for i in range(1, 201)]
        assert p99_latency(two_hundred) == 198.0  # rank ceil(198.0)

    @pytest.mark.parametrize(
        "config_kwargs, expected_flagged",
        [
            (dict(senders=50, observations=500, cheater_fraction=0.0), 0),
            # cheater_every = round(1/fraction): 0.001 puts only rank
            # 0 (the hottest) among the cheaters; 0.04 adds rank 25.
            (dict(senders=20, observations=800,
                  cheater_fraction=0.001), 1),
            (dict(senders=50, observations=2_000,
                  cheater_fraction=0.04), 2),
        ],
    )
    def test_run_bench_p99_with_few_flagged_senders(
        self, config_kwargs, expected_flagged,
    ):
        """The bench's p99 must be well-defined for 0, 1 and 2 flagged
        senders — the regime where the old ``int(0.99*n)-1`` index
        answered the minimum (n=2) or the question was vacuous (n=0).
        The stream is deterministic given the seed, so the flagged
        counts here are exact, not probabilistic."""
        from repro.service import BenchConfig, run_bench

        config = BenchConfig(shards=1, max_entries=1_000, seed=5,
                             **config_kwargs)
        result = run_bench(config)
        assert result.flagged == expected_flagged
        if expected_flagged == 0:
            assert result.p99_flag_latency_s is None
        else:
            assert result.p99_flag_latency_s is not None
            assert result.p99_flag_latency_s >= 0.0
