"""Observation ingest: the facade tying codec, store and verdicts.

:class:`DetectionService` is the long-running object the CLI, the
HTTP API, the load generator and the tests all share.  It accepts
observations three ways:

* **in-process** — :meth:`DetectionService.ingest_observation`
  (already-decoded ``(sender, Observation)``; the hot path the bench
  measures and the trace-replay adapter drives);
* **stdin** — :func:`ingest_stream` pumps JSONL wire lines from any
  text stream (``python -m repro serve --stdin < trace.jsonl``);
* **TCP** — :class:`TcpIngestServer`, a threaded line-oriented
  socket server; each connection streams wire lines and receives one
  JSON error line back per rejected record (accepted records are
  silent, so a well-formed stream never blocks on responses).

Malformed lines never kill an ingest source: they are counted
(``decode_errors`` in :meth:`DetectionService.stats`), reported to the
offender where a back-channel exists (TCP), and skipped.  A peer that
dies mid-line is not an error either: the reset is counted
(``disconnects``) and the handler closes quietly.

Ingest runs on many TCP handler threads at once.  The observation
count lives in the store, exact under its shard locks, so a folded
line takes no lock beyond its shard's.  The counters the service owns
itself (``decode_errors``, ``disconnects``) and the rate-sample deque
are guarded by one mutex — unlocked ``+=`` from concurrent threads
loses updates, which silently skews them (regression-tested by a
many-threads hammer in ``tests/test_service.py``).

With a :class:`~repro.service.spool.FlagSpool` attached, every
published first-flag event is also persisted, and the spool's replayed
history is published into the verdict log *at construction* — before
any ingest source is wired up — so a restarted service serves its
pre-crash ``/verdicts`` history byte-identically.
"""

from __future__ import annotations

import json
import socketserver
import time
from collections import deque
from threading import Lock
from typing import Deque, Dict, IO, Iterable, Optional, Tuple

from repro.core.params import PAPER_CONFIG, ProtocolConfig
from repro.detect import DEFAULT_DETECTOR, detector_factory
from repro.detect.base import Observation
from repro.service.codec import WireError, decode_record
from repro.service.spool import FlagSpool
from repro.service.store import (
    DEFAULT_MAX_ENTRIES,
    DEFAULT_SHARDS,
    DEFAULT_TRANSITION_CAP,
    ShardedDetectorStore,
)
from repro.service.verdicts import DEFAULT_VERDICT_CAP, VerdictLog

#: ``stats()`` samples kept for ``recent_obs_per_sec``.
_RATE_SAMPLES = 64


class DetectionService:
    """One hosted detector family serving many senders.

    Parameters
    ----------
    detector:
        Detector spec string (see :mod:`repro.detect`); any registered
        family works — the service never looks inside the detector.
    config:
        Protocol parameters supplying spec defaults (W/THRESH for
        ``window``, CWmin scaling for the others) — the same defaults
        the in-sim receiver pipeline uses, so served verdicts match
        simulated ones.
    shards / max_entries / transition_cap / verdict_cap:
        See :class:`~repro.service.store.ShardedDetectorStore` and
        :class:`~repro.service.verdicts.VerdictLog`.
    spool:
        Optional :class:`~repro.service.spool.FlagSpool`.  Its
        replayed events are published into the verdict log here, in
        spool order, before the constructor returns; every new first
        flag is appended to it.
    """

    def __init__(
        self,
        detector: str = DEFAULT_DETECTOR,
        config: ProtocolConfig = PAPER_CONFIG,
        shards: int = DEFAULT_SHARDS,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        transition_cap: int = DEFAULT_TRANSITION_CAP,
        verdict_cap: int = DEFAULT_VERDICT_CAP,
        spool: Optional[FlagSpool] = None,
    ):
        self.detector_spec = detector
        self.store = ShardedDetectorStore(
            detector_factory(detector, config),
            shards=shards,
            max_entries=max_entries,
            transition_cap=transition_cap,
        )
        self.verdicts = VerdictLog(cap=verdict_cap)
        self.spool = spool
        self.replayed_flags = 0
        if spool is not None:
            for event in spool.replayed:
                self.verdicts.publish(event)
            self.replayed_flags = len(spool.replayed)
        self.started = time.monotonic()
        self.decode_errors = 0
        self.disconnects = 0
        #: Guards the two counters above plus the rate-sample deque.
        self._counter_lock = Lock()
        #: ``(monotonic, store observations)`` taken by each
        #: :meth:`stats` call, for the recent-rate estimate.
        self._rate_samples: Deque[Tuple[float, int]] = deque(
            maxlen=_RATE_SAMPLES
        )
        self._rate_samples.append((self.started, 0))

    # ------------------------------------------------------------------
    # Ingest paths
    # ------------------------------------------------------------------
    def ingest_observation(self, sender: str, observation: Observation) -> bool:
        """Fold one decoded observation in; returns the verdict."""
        verdict, event = self.store.observe(sender, observation)
        if event is not None:
            self.verdicts.publish(event)
            if self.spool is not None:
                self.spool.append(event)
        return verdict

    def ingest_line(self, line: str) -> bool:
        """Decode and ingest one wire line (raises :class:`WireError`)."""
        sender, observation = decode_record(line)
        return self.ingest_observation(sender, observation)

    def record_decode_error(self) -> None:
        with self._counter_lock:
            self.decode_errors += 1

    def record_disconnect(self) -> None:
        """Count a peer that vanished mid-stream (TCP reset)."""
        with self._counter_lock:
            self.disconnects += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The ``/stats`` payload: rates, occupancy, counters.

        ``recent_obs_per_sec`` is the observation rate since the
        oldest of the last 64 calls (since start-up until 64 calls
        were made): each call samples the clock and the store's
        observation total, so ingest itself never reads the clock.
        """
        with self._counter_lock:
            # Clock and store total are read under the lock, so the
            # samples grow in both coordinates whatever threads poll.
            now = time.monotonic()
            store = self.store.stats()
            total = store["observations"]
            decode_errors = self.decode_errors
            disconnects = self.disconnects
            self._rate_samples.append((now, total))
            oldest_wall, oldest_total = self._rate_samples[0]
        uptime = max(now - self.started, 1e-9)
        window = max(now - oldest_wall, 1e-9)
        return {
            "detector": self.detector_spec,
            "uptime_s": round(uptime, 3),
            "observations": total,
            "decode_errors": decode_errors,
            "disconnects": disconnects,
            "replayed_flags": self.replayed_flags,
            "obs_per_sec": round(total / uptime, 1),
            "recent_obs_per_sec": round(
                (total - oldest_total) / window, 1
            ),
            "store": store,
            "verdicts": self.verdicts.stats(),
        }

    # ------------------------------------------------------------------
    # Query surface shared with IngestWorkerPool (what the HTTP layer
    # calls; see repro.service.server).
    # ------------------------------------------------------------------
    @staticmethod
    def parse_cursor(after: Optional[str]) -> int:
        """A single-process cursor is the newest-seen event id."""
        if after is None or after == "":
            return 0
        try:
            value = int(after)
        except ValueError:
            raise ValueError(
                f"cursor 'after' must be an integer event id, "
                f"got {after!r}"
            ) from None
        if value < 0:
            raise ValueError("cursor 'after' must be >= 0")
        return value

    def api_stats(self) -> Dict[str, object]:
        return self.stats()

    def api_verdicts(
        self, after: Optional[str] = None, limit: Optional[int] = None,
    ) -> Dict[str, object]:
        """The ``/verdicts`` payload, including the retention fields a
        resuming watcher needs to detect dropped flags."""
        cursor = self.parse_cursor(after)
        events, newest, info = self.verdicts.events_after(cursor, limit)
        return {
            "events": events,
            "next": newest,
            "oldest": info["oldest"],
            "dropped": info["dropped"],
            "gap": _has_gap(cursor, info["oldest"]),
            "flagged": self.store.flagged_senders(),
        }

    def api_watch(
        self,
        after: Optional[str] = None,
        timeout: float = 30.0,
        limit: Optional[int] = None,
    ) -> Dict[str, object]:
        cursor = self.parse_cursor(after)
        events, newest, info = self.verdicts.wait_for(
            cursor, timeout=timeout, limit=limit
        )
        return {
            "events": events,
            "next": newest,
            "oldest": info["oldest"],
            "dropped": info["dropped"],
            "gap": _has_gap(cursor, info["oldest"]),
        }

    def api_sender(self, sender: str) -> Optional[Dict[str, object]]:
        return self.store.get(sender)

    def close(self) -> None:
        """Release durable resources (the spool, when attached)."""
        if self.spool is not None:
            self.spool.close()


def _has_gap(cursor: int, oldest: Optional[int]) -> bool:
    """True when event ids in ``(cursor, oldest)`` were dropped — a
    watcher resuming from ``cursor`` can never see them."""
    return oldest is not None and cursor + 1 < oldest


# ----------------------------------------------------------------------
# Stream (stdin) ingest
# ----------------------------------------------------------------------
def ingest_stream(
    service: "DetectionService",
    lines: Iterable[str],
    errors: Optional[IO[str]] = None,
    max_reported: int = 10,
) -> Tuple[int, int]:
    """Pump wire lines into the service until the stream ends.

    Works against anything with ``ingest_line`` / ``record_decode_
    error`` — a :class:`DetectionService` or an
    :class:`~repro.service.workers.IngestWorkerPool`.  Returns
    ``(ingested, rejected)``.  Blank lines are keep-alives.  The first
    ``max_reported`` rejects are echoed to ``errors`` (e.g.  stderr)
    with their line number; the rest are only counted.
    """
    ingested = rejected = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            service.ingest_line(line)
            ingested += 1
        except WireError as exc:
            service.record_decode_error()
            rejected += 1
            if errors is not None and rejected <= max_reported:
                print(f"ingest: line {lineno} rejected: {exc}", file=errors)
    if errors is not None and rejected > max_reported:
        print(f"ingest: ... and {rejected - max_reported} more rejected "
              f"line(s)", file=errors)
    return ingested, rejected


# ----------------------------------------------------------------------
# TCP ingest
# ----------------------------------------------------------------------
class _TcpIngestHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        service = self.server.service  # type: ignore[attr-defined]
        try:
            for raw in self.rfile:
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError:
                    service.record_decode_error()
                    self._reject("line is not valid UTF-8")
                    continue
                if not line:
                    continue
                try:
                    service.ingest_line(line)
                except WireError as exc:
                    service.record_decode_error()
                    self._reject(str(exc))
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            # A peer that dies mid-line (crash, network partition,
            # impatient client) must not dump a traceback per
            # connection: count it and close quietly.  Everything
            # ingested before the reset is already folded in.
            service.record_disconnect()

    def _reject(self, message: str) -> None:
        try:
            self.wfile.write(
                (json.dumps({"error": message}) + "\n").encode("utf-8")
            )
        except OSError:  # peer already gone; the count still happened
            pass


class TcpIngestServer(socketserver.ThreadingTCPServer):
    """Line-oriented TCP ingest on ``host:port`` (port 0 = ephemeral).

    Use like ``http.server``: construct, then ``serve_forever()`` on a
    thread, ``shutdown()`` to stop.  The bound port is
    ``server.server_address[1]``.  ``service`` may be a
    :class:`DetectionService` or an ``IngestWorkerPool`` — the handler
    only needs ``ingest_line`` (raising :class:`WireError` on bad
    lines), ``record_decode_error`` and ``record_disconnect``.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        service: "DetectionService",
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        super().__init__((host, port), _TcpIngestHandler)
        self.service = service
