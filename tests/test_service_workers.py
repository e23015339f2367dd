"""Tests for multi-process ingest (repro.service.workers + spool).

Covers worker routing (disjointness, decorrelation from shard
placement), the scatter-gather query surface, the merged ``/verdicts``
cursor (no loss, no duplication across limited polls), the
crash-safety of the flag spool (graceful restart, SIGKILL restart,
torn-tail repair), and the subsystem's inherited central promise: the
worker pool serves the identical verdicts the single-process service
does on the same stream.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import signal
import sys
import threading
import time

import pytest

from repro.detect import Observation
from repro.service import (
    DetectionService,
    FlagSpool,
    IngestWorkerPool,
    ServiceHTTPServer,
    SpoolError,
    WireError,
    encode_record,
    ingest_stream,
    read_spool_events,
    shard_of,
    spool_path,
    worker_of,
)
from repro.service.store import FlagEvent
from tests.test_service import OVERFLOW_LINES


def obs(b_exp, b_act, retries=1, time_us=0):
    return Observation(b_exp=b_exp, b_act=b_act, retries=retries,
                       time_us=time_us)


def cheat_line(sender, time_us=0):
    return encode_record(sender, obs(31.0, 0.0, time_us=time_us))


def honest_line(sender, time_us=0):
    return encode_record(sender, obs(31.0, 31.0, time_us=time_us))


@pytest.fixture
def pool3():
    pool = IngestWorkerPool(workers=3, shards=4, max_entries=1_000)
    try:
        yield pool
    finally:
        pool.close()


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestWorkerOf:
    def test_deterministic_and_in_range(self):
        for sender in ("1", "3", "node-x", "ffff"):
            index = worker_of(sender, 4)
            assert 0 <= index < 4
            assert index == worker_of(sender, 4)

    def test_spreads_keys(self):
        hit = {worker_of(str(i), 4) for i in range(1000)}
        assert hit == set(range(4))

    def test_single_worker_owns_everything(self):
        assert all(worker_of(str(i), 1) == 0 for i in range(100))

    def test_decorrelated_from_shard_placement(self):
        """The reason worker_of has its own crc seed: the senders one
        worker owns must still spread over all of that worker's
        shards.  With worker_of == shard_of, worker k of 4 would only
        ever fill shards {k, k+4} of 8."""
        workers, shards = 4, 8
        for worker in range(workers):
            owned = [str(i) for i in range(4_000)
                     if worker_of(str(i), workers) == worker]
            hit = {shard_of(sender, shards) for sender in owned}
            assert hit == set(range(shards)), (
                f"worker {worker}'s senders land on only {sorted(hit)} "
                f"of {shards} shards: worker/shard placement correlated"
            )


# ----------------------------------------------------------------------
# Pool ingest + scatter-gather queries
# ----------------------------------------------------------------------
class TestIngestWorkerPool:
    def test_requires_at_least_one_worker(self):
        with pytest.raises(ValueError, match="workers"):
            IngestWorkerPool(workers=0)

    def test_ingest_and_merged_stats(self, pool3):
        for i in range(300):
            pool3.ingest_line(honest_line(str(i % 30), time_us=i))
        pool3.barrier()
        stats = pool3.api_stats()
        assert stats["workers"] == 3
        assert stats["observations"] == 300
        assert stats["decode_errors"] == 0
        assert stats["misroutes"] == 0
        assert stats["store"]["entries"] == 30
        assert len(stats["per_worker"]) == 3
        # Every observation landed on exactly one worker.
        assert sum(w["observations"] for w in stats["per_worker"]) == 300
        # The pool's recent rate is the sum of its workers' rates.
        recent = [w["recent_obs_per_sec"] for w in stats["per_worker"]]
        assert all(rate > 0 for rate in recent)
        assert stats["recent_obs_per_sec"] == round(sum(recent), 1)

    def test_malformed_line_raises_before_routing(self, pool3):
        with pytest.raises(WireError):
            pool3.ingest_line("{broken")
        with pytest.raises(WireError):
            pool3.ingest_line(json.dumps({"v": 1, "b_exp": 1}))

    def test_ingest_stream_compatibility(self, pool3):
        """The stdin pump drives the pool exactly like a service."""
        lines = [honest_line("a"), "", "{broken", honest_line("b")]
        errors = io.StringIO()
        ingested, rejected = ingest_stream(pool3, lines, errors=errors)
        assert (ingested, rejected) == (2, 1)
        pool3.barrier()
        stats = pool3.api_stats()
        assert stats["observations"] == 2
        assert stats["decode_errors"] == 1

    @pytest.mark.parametrize("field", sorted(OVERFLOW_LINES))
    def test_overflowing_line_does_not_kill_a_worker(self, field):
        """The sender scan routes these well-formed lines to a worker,
        whose decoder must count them as errors and carry on."""
        pool = IngestWorkerPool(workers=2, shards=2, max_entries=100)
        try:
            pool.ingest_line(OVERFLOW_LINES[field])
            pool.ingest_line(honest_line("3"))
            stats = pool.api_stats()
            assert stats["observations"] == 1
            assert stats["decode_errors"] == 1
            assert pool.api_sender("3")["observations"] == 1
        finally:
            pool.close()

    def test_duplicate_sender_key_folded_like_single_process(self):
        """JSON keeps the last duplicate key: the pool must route the
        line by the sender the single-process service folds it under."""
        first, last = "A", "C"
        assert worker_of(first, 2) != worker_of(last, 2)
        line = honest_line(first).replace(
            ',"time_us"', f',"sender":"{last}","time_us"')
        single = DetectionService(shards=2, max_entries=100)
        single.ingest_line(line)
        pool = IngestWorkerPool(workers=2, shards=2, max_entries=100)
        try:
            pool.ingest_line(line)
            stats = pool.api_stats()
            assert stats["observations"] == 1
            assert stats["misroutes"] == 0
            for service in (single, pool):
                assert service.api_sender(first) is None
                assert service.api_sender(last)["observations"] == 1
        finally:
            pool.close()

    def test_exotic_sender_routed_via_full_decode(self, pool3):
        """A \\u-escaped sender defeats the fast scan; the router must
        fall back to a strict decode and still route it correctly."""
        pool3.ingest_line(encode_record("ü", obs(31.0, 0.0)))
        pool3.barrier()
        stats = pool3.api_stats()
        assert stats["observations"] == 1
        assert stats["misroutes"] == 0
        snapshot = pool3.api_sender("ü")
        assert snapshot is not None and snapshot["flagged"] is True

    def test_sender_query_routes_to_owning_worker(self, pool3):
        for i in range(60):
            pool3.ingest_line(honest_line(str(i)))
        for sender in ("0", "17", "42"):
            snapshot = pool3.api_sender(sender)
            assert snapshot["sender"] == sender
            assert snapshot["worker"] == worker_of(sender, 3)
        assert pool3.api_sender("never-seen") is None

    def test_queries_observe_all_prior_ingest_without_barrier(self, pool3):
        """FIFO pipes + batch flush before queries: a query issued
        after ingest_line returned sees that line, no explicit
        barrier needed."""
        for i in range(10):
            pool3.ingest_line(cheat_line(f"cheat-{i}", time_us=i))
        stats = pool3.api_stats()  # no barrier()
        assert stats["observations"] == 10
        assert stats["store"]["currently_flagged"] == 10

    def test_close_is_idempotent(self):
        pool = IngestWorkerPool(workers=2)
        pool.ingest_line(honest_line("a"))
        pool.close()
        pool.close()


class TestMergedVerdicts:
    def test_merged_events_tag_worker_and_seq(self, pool3):
        for i in range(12):
            pool3.ingest_line(cheat_line(f"cheat-{i}", time_us=i))
        payload = pool3.api_verdicts()
        assert len(payload["events"]) == 12
        for event in payload["events"]:
            assert event["worker"] == worker_of(event["sender"], 3)
            assert event["seq"] >= 1
            assert "id" not in event  # (worker, seq) is the identity
        assert payload["gap"] is False
        assert sorted(payload["flagged"]) == payload["flagged"]
        assert len(payload["flagged"]) == 12

    def test_merge_is_chronological(self, pool3):
        """Flags ingested in a known wall-clock order come back merged
        in that order even though three logs were scattered."""
        for i in range(9):
            pool3.ingest_line(cheat_line(f"cheat-{i}", time_us=i))
            pool3.barrier()  # serialize: each flag's wall strictly later
        payload = pool3.api_verdicts()
        assert [e["sender"] for e in payload["events"]] \
            == [f"cheat-{i}" for i in range(9)]

    def test_cursor_walk_loses_nothing(self, pool3):
        """Walking the merged history with every limit must visit each
        (worker, seq) exactly once — the ISSUE's cursor-resumption
        contract."""
        for i in range(20):
            pool3.ingest_line(cheat_line(f"cheat-{i}", time_us=i))
        pool3.barrier()
        full = [(e["worker"], e["seq"])
                for e in pool3.api_verdicts()["events"]]
        assert len(full) == 20
        for limit in (1, 3, 7, 20, 50):
            walked, cursor, polls = [], None, 0
            while True:
                payload = pool3.api_verdicts(cursor, limit)
                if not payload["events"]:
                    break
                walked.extend(
                    (e["worker"], e["seq"]) for e in payload["events"]
                )
                cursor = payload["next"]
                polls += 1
                assert polls <= 40, "cursor walk failed to terminate"
            assert walked == full, f"walk with limit={limit} diverged"

    def test_cursor_validation(self, pool3):
        with pytest.raises(ValueError, match="3"):
            pool3.api_verdicts("1.2")  # wrong component count
        with pytest.raises(ValueError, match="integer"):
            pool3.api_verdicts("a.b.c")
        with pytest.raises(ValueError, match=">= 0"):
            pool3.api_verdicts("-1.0.0")
        # "0" and None both mean "from the beginning".
        assert pool3.api_verdicts("0") == pool3.api_verdicts(None)

    def test_watch_returns_events_or_times_out(self, pool3):
        payload = pool3.api_watch(timeout=0.05)
        assert payload["events"] == []
        pool3.ingest_line(cheat_line("cheat"))
        payload = pool3.api_watch(timeout=5.0)
        assert [e["sender"] for e in payload["events"]] == ["cheat"]

    def test_watch_polls_skip_flagged_list(self, pool3, monkeypatch):
        """A /watch poll never asks workers for the flagged scan; a
        plain /verdicts still does."""
        requests = []
        query = IngestWorkerPool._query

        def spy(self, handle, request):
            requests.append(request)
            return query(self, handle, request)

        monkeypatch.setattr(IngestWorkerPool, "_query", spy)
        pool3.ingest_line(honest_line("honest"))
        payload = pool3.api_watch(timeout=0.2)  # several empty polls
        pool3.ingest_line(cheat_line("cheat"))
        payload = pool3.api_watch(payload["next"], timeout=5.0)
        assert [e["sender"] for e in payload["events"]] == ["cheat"]
        assert "flagged" not in payload
        watched = [r for r in requests if r[0] == "verdicts"]
        assert len(watched) >= 2 * 3
        assert all(r[3] is False for r in watched)

        requests.clear()
        assert pool3.api_verdicts()["flagged"] == ["cheat"]
        assert [r[3] for r in requests] == [True] * 3


class _GatedConn:
    """A worker pipe whose first ``recv_bytes`` waits for ``gate`` —
    parks one query mid-reply for as long as a test needs — and which
    records every message read as ``(thread name, message)``."""

    def __init__(self, conn):
        self._conn = conn
        self.gate = threading.Event()
        self.parked = threading.Event()
        self.received = []

    def recv_bytes(self):
        if not self.parked.is_set():
            self.parked.set()
            self.gate.wait()
        data = self._conn.recv_bytes()
        self.received.append(
            (threading.current_thread().name, pickle.loads(data))
        )
        return data

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestLockDiscipline:
    """Queries take ``query_lock`` → ``lock`` and read their reply
    under ``query_lock`` alone, so a slow query never stalls ingest,
    and ``close`` (both locks) never races a query reply."""

    def test_ingest_proceeds_while_query_awaits_reply(self):
        from repro.service.workers import BATCH_LINES

        pool = IngestWorkerPool(workers=1, shards=2, max_entries=1_000)
        conn = pool._handles[0].conn = _GatedConn(pool._handles[0].conn)
        safety = threading.Timer(10.0, conn.gate.set)  # never hang
        safety.start()
        try:
            result = {}
            query = threading.Thread(
                target=lambda: result.update(pool.api_stats()), daemon=True
            )
            query.start()
            assert conn.parked.wait(5.0)
            lines = BATCH_LINES + 10  # forces at least one batch ship
            started = time.monotonic()
            for i in range(lines):
                pool.ingest_line(honest_line(str(i % 50), time_us=i))
            elapsed = time.monotonic() - started
            assert elapsed < 2.0, f"ingest stalled {elapsed:.1f}s behind a query"
            assert query.is_alive()  # the query is still parked
            conn.gate.set()
            query.join(5.0)
            assert not query.is_alive()
            assert result["observations"] == 0  # issued before the lines
            assert pool.api_stats()["observations"] == lines
        finally:
            safety.cancel()
            conn.gate.set()
            pool.close()

    def test_close_during_watch_never_reads_stop_reply(self):
        from repro.service.workers import WorkerPoolError, _SHUTDOWN_TIMEOUT

        pool = IngestWorkerPool(workers=1, shards=2, max_entries=1_000)
        conn = pool._handles[0].conn = _GatedConn(pool._handles[0].conn)
        outcome = []

        def watch():
            try:
                outcome.append(pool.api_watch(timeout=30.0))
            except Exception as exc:  # recorded for the assertion
                outcome.append(exc)

        watcher = threading.Thread(target=watch, name="watcher", daemon=True)
        try:
            watcher.start()
            assert conn.parked.wait(5.0)  # a watch poll is mid-query
            closer = threading.Thread(target=pool.close, name="closer",
                                      daemon=True)
            started = time.monotonic()
            closer.start()
            time.sleep(0.1)  # let close queue up behind the query
            conn.gate.set()
            closer.join(_SHUTDOWN_TIMEOUT)
            assert not closer.is_alive()
            assert time.monotonic() - started < _SHUTDOWN_TIMEOUT
            watcher.join(5.0)
            assert not watcher.is_alive()
            assert len(outcome) == 1
            assert isinstance(outcome[0], (dict, WorkerPoolError)), outcome
            # The watcher read only query replies, close only the stop
            # acknowledgement.
            byes = [(name, message) for name, message in conn.received
                    if message == ("bye", 0)]
            assert byes == [("closer", ("bye", 0))], conn.received
        finally:
            conn.gate.set()
            pool.close()

    def test_concurrent_ingest_and_queries_keep_replies_paired(self):
        """Ingest threads race query threads on a 2-worker pool with a
        tiny switch interval: every line is folded exactly once and
        every query gets its own reply (a crossed reply would hand a
        sender query another query's payload)."""
        pool = IngestWorkerPool(workers=2, shards=2, max_entries=10_000)
        feeders, per_feeder, errors = 3, 1_500, []
        stop = threading.Event()

        def feed(f):
            try:
                for i in range(per_feeder):
                    pool.ingest_line(honest_line(f"s{f}-{i % 40}", time_us=i))
            except Exception as exc:  # recorded for the assertion
                errors.append(exc)

        def query(q):
            try:
                while not stop.is_set():
                    sender = f"s{q}-{q}"
                    snapshot = pool.api_sender(sender)
                    assert snapshot is None or snapshot["sender"] == sender
                    assert isinstance(pool.api_stats()["observations"], int)
                    assert "flagged" not in pool.api_watch(timeout=0.0)
            except Exception as exc:  # recorded for the assertion
                errors.append(exc)

        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            try:
                queriers = [threading.Thread(target=query, args=(q,),
                                             daemon=True) for q in range(2)]
                threads = [threading.Thread(target=feed, args=(f,),
                                            daemon=True)
                           for f in range(feeders)]
                for thread in queriers + threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                    assert not thread.is_alive()
            finally:
                stop.set()
                sys.setswitchinterval(interval)
            for thread in queriers:
                thread.join(30.0)
                assert not thread.is_alive()
            assert errors == []
            stats = pool.api_stats()
            assert stats["observations"] == feeders * per_feeder
            assert stats["store"]["entries"] == feeders * 40
        finally:
            pool.close()


# ----------------------------------------------------------------------
# Equivalence with the single-process service
# ----------------------------------------------------------------------
class TestPoolEquivalence:
    def test_pool_verdicts_identical_to_single_process(self):
        """The inherited central contract: sharding ingest over worker
        processes changes nothing about who gets flagged, when (in
        stream time), or after how many observations."""
        lines = []
        for i in range(600):
            sender = str(i % 40)
            cheating = int(sender) % 8 == 3
            lines.append(
                cheat_line(sender, time_us=i) if cheating
                else honest_line(sender, time_us=i)
            )
        single = DetectionService(shards=4, max_entries=1_000)
        for line in lines:
            single.ingest_line(line)
        pool = IngestWorkerPool(workers=4, shards=4, max_entries=1_000)
        try:
            pool.ingest_lines(lines)
            pool.barrier()
            single_payload = single.api_verdicts("0")
            pool_payload = pool.api_verdicts()

            def key(event):
                return (event["sender"], event["time_us"],
                        event["observations"])

            assert sorted(map(key, pool_payload["events"])) \
                == sorted(map(key, single_payload["events"]))
            assert pool_payload["flagged"] == single_payload["flagged"]
            # And the honest-sender-never-flagged invariant holds.
            assert all(int(s) % 8 == 3 for s in pool_payload["flagged"])
            for sender in ("3", "11", "0", "1"):
                mine = pool.api_sender(sender)
                theirs = single.api_sender(sender)
                for field in ("flagged", "observations",
                              "flagged_observations", "transitions"):
                    assert mine[field] == theirs[field]
        finally:
            pool.close()

    def test_multi_worker_bench_invariants_at_toy_scale(self):
        from repro.service import BenchConfig, run_bench

        config = BenchConfig(senders=2_000, observations=8_000,
                             shards=2, max_entries=400, seed=3,
                             workers=2)
        result = run_bench(config)  # asserts honest-never-flagged
        assert result.distinct_senders == 2_000
        assert result.flagged > 0
        assert result.obs_per_sec > 0


# ----------------------------------------------------------------------
# HTTP API over the pool
# ----------------------------------------------------------------------
class TestPoolHttpApi:
    def test_endpoints_over_pool(self):
        import urllib.request

        pool = IngestWorkerPool(workers=2, shards=2, max_entries=100)
        server = ServiceHTTPServer(pool)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            for i in range(5):
                pool.ingest_line(cheat_line(f"cheat-{i}", time_us=i))
            pool.barrier()

            def get(url):
                try:
                    with urllib.request.urlopen(url, timeout=10) as resp:
                        return resp.status, json.loads(resp.read())
                except urllib.error.HTTPError as error:
                    return error.code, json.loads(error.read())

            status, body = get(f"{base}/stats")
            assert status == 200 and body["observations"] == 5
            status, body = get(f"{base}/verdicts")
            assert status == 200 and len(body["events"]) == 5
            cursor = body["next"]
            status, body = get(f"{base}/verdicts?after={cursor}")
            assert status == 200 and body["events"] == []
            assert body["next"] == cursor
            status, body = get(f"{base}/verdicts?after=0.1.2")
            assert status == 400 and "2 dot-joined" in body["error"]
            status, body = get(f"{base}/senders/cheat-0")
            assert status == 200 and body["flagged"] is True
        finally:
            server.shutdown()
            server.server_close()
            pool.close()


# ----------------------------------------------------------------------
# Spool: crash-safe flag history
# ----------------------------------------------------------------------
def _flag_event(sender, time_us=100):
    return FlagEvent(sender=sender, time_us=time_us, wall=2.25,
                     first_obs_wall=1.5, observations=4)


class TestFlagSpool:
    def test_round_trip(self, tmp_path):
        path = spool_path(tmp_path, 0, 1)
        with FlagSpool(path, detector="window") as spool:
            assert spool.replayed == []
            for i in range(5):
                spool.append(_flag_event(str(i), time_us=i))
        with FlagSpool(path, detector="window") as spool:
            assert [e.sender for e in spool.replayed] \
                == [str(i) for i in range(5)]
            assert not spool.repaired
            # Wall clocks round-trip exactly (JSON float repr).
            assert spool.replayed[0] == _flag_event("0", time_us=0)

    def test_replay_appends_only_new_events(self, tmp_path):
        path = spool_path(tmp_path, 0, 1)
        with FlagSpool(path, detector="window") as spool:
            spool.append(_flag_event("a"))
        with FlagSpool(path, detector="window") as spool:
            spool.append(_flag_event("b"))
        events = read_spool_events(path)
        assert [e.sender for e in events] == ["a", "b"]  # no dupes

    def test_torn_tail_repaired_on_reopen(self, tmp_path):
        path = spool_path(tmp_path, 0, 1)
        with FlagSpool(path, detector="window") as spool:
            spool.append(_flag_event("kept"))
        with path.open("ab") as fh:
            fh.write(b"deadbeef {\"torn mid-append")  # no newline
        with FlagSpool(path, detector="window") as spool:
            assert spool.repaired
            assert [e.sender for e in spool.replayed] == ["kept"]
        # The repair truncated the torn bytes away durably.
        with FlagSpool(path, detector="window") as spool:
            assert not spool.repaired

    def test_geometry_and_detector_mismatch_refused(self, tmp_path):
        path = spool_path(tmp_path, 0, 2)
        FlagSpool(path, detector="window", worker=0, workers=2).close()
        with pytest.raises(SpoolError, match="workers"):
            FlagSpool(path, detector="window", worker=0, workers=4)
        with pytest.raises(SpoolError, match="detector"):
            FlagSpool(path, detector="cusum:h=2.0,k=0.25",
                      worker=0, workers=2)
        with pytest.raises(SpoolError, match="worker"):
            FlagSpool(spool_path(tmp_path, 0, 2), detector="window",
                      worker=1, workers=2)

    def test_worker_slot_validation(self, tmp_path):
        with pytest.raises(ValueError, match="worker"):
            FlagSpool(tmp_path / "x.jsonl", detector="window",
                      worker=2, workers=2)

    def test_not_a_spool_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        from repro.experiments.campaign.journal import encode_record \
            as enc
        path.write_text(enc({"kind": "campaign", "schema": 1}) + "\n")
        with pytest.raises(SpoolError, match="not a flag spool"):
            FlagSpool(path, detector="window")


class TestPoolRestartReplay:
    def _flag_some(self, pool, n=9):
        for i in range(n):
            pool.ingest_line(cheat_line(f"cheat-{i}", time_us=i))
        pool.barrier()

    def test_graceful_restart_replays_history(self, tmp_path):
        pool = IngestWorkerPool(workers=3, spool_dir=tmp_path)
        self._flag_some(pool)
        before = pool.api_verdicts()
        pool.close()

        restarted = IngestWorkerPool(workers=3, spool_dir=tmp_path)
        try:
            assert restarted.replayed_flags == 9
            after = restarted.api_verdicts()
            assert after["events"] == before["events"]  # byte-identical
            assert restarted.api_stats()["replayed_flags"] == 9
        finally:
            restarted.close()

    def test_sigkill_restart_replays_history(self, tmp_path):
        """SIGKILL every worker mid-flight: appends are flushed per
        event, so the restarted pool replays every published flag —
        no graceful shutdown required."""
        pool = IngestWorkerPool(workers=3, spool_dir=tmp_path)
        self._flag_some(pool)
        before = pool.api_verdicts()
        for handle in pool._handles:
            os.kill(handle.process.pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        for handle in pool._handles:
            handle.process.join(max(0.1, deadline - time.monotonic()))
        pool.close()  # reaps; pipes are already dead

        restarted = IngestWorkerPool(workers=3, spool_dir=tmp_path)
        try:
            assert restarted.replayed_flags == 9
            after = restarted.api_verdicts()
            assert after["events"] == before["events"]
            # Replayed flags keep flowing into the same spool:
            # flag one more and restart again.
            restarted.ingest_line(cheat_line("late", time_us=99))
            restarted.barrier()
        finally:
            restarted.close()
        third = IngestWorkerPool(workers=3, spool_dir=tmp_path)
        try:
            assert third.replayed_flags == 10
        finally:
            third.close()

    def test_restart_with_different_worker_count_refused(self, tmp_path):
        pool = IngestWorkerPool(workers=2, spool_dir=tmp_path)
        self._flag_some(pool, n=4)
        pool.close()
        from repro.service import WorkerPoolError
        with pytest.raises(WorkerPoolError, match="workers"):
            IngestWorkerPool(workers=3, spool_dir=tmp_path)

    def test_single_process_and_pool_spools_are_distinct(self, tmp_path):
        """A 1-worker pool and a bare DetectionService use the same
        spool slot (worker 0 of 1): history written by one is replayed
        by the other."""
        service = DetectionService(
            spool=FlagSpool(spool_path(tmp_path, 0, 1), detector="window")
        )
        service.ingest_observation("cheat", obs(31.0, 0.0))
        service.close()
        pool = IngestWorkerPool(workers=1, spool_dir=tmp_path)
        try:
            assert pool.replayed_flags == 1
            assert [e["sender"] for e in pool.api_verdicts()["events"]] \
                == ["cheat"]
        finally:
            pool.close()
