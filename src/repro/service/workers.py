"""Multi-process ingest: N workers, disjoint crc32 key ranges.

A single ``DetectionService`` tops out near the one-interpreter
ceiling — every JSON decode and detector update serializes on one
GIL.  This module scales past it with the only partition the data
admits: *senders*.  Detector state is strictly per-sender, so ``N``
worker processes each owning the senders in one crc32 residue class
(:func:`~repro.service.store.worker_of`) share nothing at all; the
front-end process routes wire lines by scanning out the sender key
(:func:`~repro.service.codec.sender_of_line` — no JSON parse on the
routing path), batches them per worker, and ships each batch down
that worker's pipe.  All the expensive work — strict decode, store
lookup, detector update, flag bookkeeping — happens inside the
workers, in parallel.

Each worker hosts a full private :class:`~repro.service.ingest.
DetectionService` (its own :class:`~repro.service.store.
ShardedDetectorStore`, :class:`~repro.service.verdicts.VerdictLog`
and optional :class:`~repro.service.spool.FlagSpool`), and the
worker's single-threaded loop gives a useful ordering guarantee for
free: because a worker's pipe is FIFO and queries travel down the
same pipe as data, a query reply reflects every observation routed
to that worker before the query was issued.

Queries scatter-gather.  ``/stats`` merges worker counters;
``/senders/<id>`` routes to the one owning worker; ``/verdicts``
merges the per-worker verdict logs — a verdict's identity becomes a
``(worker, seq)`` pair, and the poll cursor becomes one dot-joined
token of per-worker sequence numbers (``"12.7.9.4"``), so a resuming
watcher still walks the merged history with no loss and no
duplicates (property-tested in ``tests/test_service_workers.py``).
``/watch`` is a bounded polling loop over the scatter (worker loops
must never block on a long-poll, or ingest would stall behind it);
its polls skip the ``flagged`` list, so a poll does not make every
worker scan and sort its resident senders.

Each worker handle carries two locks, always taken in the order
``query_lock`` → ``lock``.  ``lock`` guards the pending batch and
every write to the pipe; ``query_lock`` makes one query's request and
reply a single exchange.  A query holds ``lock`` only to flush the
batch and send its request, then reads the reply under ``query_lock``
alone — so a query waiting for a busy worker never stalls
``ingest_line``, and pipe FIFO order still makes the reply reflect
every line routed before the request.  ``close`` takes both, so its
stop acknowledgement is never read as a query reply.

Worker processes are started with the ``fork`` method where the
platform offers it (cheap, and the pool is constructed before any
server threads exist) and ``spawn`` elsewhere; both route through
picklable plain-data configs.
"""

from __future__ import annotations

import multiprocessing
import pathlib
import pickle
import signal
import time
from dataclasses import dataclass
from threading import Lock
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.params import PAPER_CONFIG, ProtocolConfig
from repro.detect import DEFAULT_DETECTOR
from repro.service.codec import WireError, decode_record, sender_of_line
from repro.service.store import (
    DEFAULT_MAX_ENTRIES,
    DEFAULT_SHARDS,
    DEFAULT_TRANSITION_CAP,
    worker_of,
)
from repro.service.verdicts import DEFAULT_VERDICT_CAP, event_payload

#: Routed lines buffered per worker before a batch is shipped.
BATCH_LINES = 512
#: Buffered bytes per worker that force a batch flush.
BATCH_BYTES = 64 * 1024
#: Seconds the pool waits for a worker to come up / shut down.
_STARTUP_TIMEOUT = 60.0
_SHUTDOWN_TIMEOUT = 10.0
#: Poll interval of the /watch scatter loop (seconds).
_WATCH_POLL_S = 0.05

_TAG_DATA = b"D"
_TAG_QUERY = b"Q"
_TAG_STOP = b"S"


class WorkerPoolError(RuntimeError):
    """A worker failed to start, died, or answered a query with an
    error."""


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to build its service
    (plain picklable data — it crosses the process boundary)."""

    index: int
    workers: int
    detector: str
    config: ProtocolConfig
    shards: int
    max_entries: int
    transition_cap: int
    verdict_cap: int
    spool_dir: Optional[str]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(conn, cfg: WorkerConfig) -> None:
    """One ingest worker: build the service (replaying its spool
    slice first), then serve the pipe until told to stop."""
    from repro.service.ingest import DetectionService
    from repro.service.spool import FlagSpool, SpoolError, spool_path

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # front-end owns ^C
    try:
        spool = None
        if cfg.spool_dir is not None:
            spool = FlagSpool(
                spool_path(cfg.spool_dir, cfg.index, cfg.workers),
                detector=cfg.detector,
                worker=cfg.index,
                workers=cfg.workers,
            )
        service = DetectionService(
            detector=cfg.detector,
            config=cfg.config,
            shards=cfg.shards,
            max_entries=cfg.max_entries,
            transition_cap=cfg.transition_cap,
            verdict_cap=cfg.verdict_cap,
            spool=spool,
        )
    except (SpoolError, Exception) as exc:  # noqa: B014 - report, then die
        conn.send_bytes(pickle.dumps(("__error__", f"{type(exc).__name__}: {exc}")))
        return
    conn.send_bytes(pickle.dumps(("ready", cfg.index, service.replayed_flags)))

    misroutes = 0
    try:
        while True:
            try:
                message = conn.recv_bytes()
            except EOFError:
                break  # front-end died; flush durable state and exit
            tag, body = message[:1], message[1:]
            if tag == _TAG_DATA:
                for line in body.decode("utf-8").split("\n"):
                    if not line:
                        continue
                    try:
                        sender, observation = decode_record(line)
                    except WireError:
                        service.record_decode_error()
                        continue
                    if worker_of(sender, cfg.workers) != cfg.index:
                        # Defensive: honestly-encoded lines always route
                        # correctly (the router falls back to a full
                        # decode when in doubt); ingesting a misrouted
                        # sender would split its state across workers.
                        misroutes += 1
                        continue
                    service.ingest_observation(sender, observation)
            elif tag == _TAG_QUERY:
                request = pickle.loads(body)
                try:
                    reply = _handle_query(service, cfg, misroutes, request)
                except Exception as exc:  # pragma: no cover - defensive
                    reply = ("__error__", f"{type(exc).__name__}: {exc}")
                conn.send_bytes(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
            elif tag == _TAG_STOP:
                conn.send_bytes(pickle.dumps(("bye", cfg.index)))
                break
    finally:
        service.close()


def _handle_query(service, cfg: WorkerConfig, misroutes: int, request):
    kind = request[0]
    if kind == "ping":
        return ("pong", cfg.index)
    if kind == "stats":
        stats = service.stats()
        stats["worker"] = cfg.index
        stats["misroutes"] = misroutes
        return stats
    if kind == "verdicts":
        _, after, limit, with_flagged = request
        pairs, newest, info = service.verdicts.raw_events_after(after, limit)
        flagged = service.store.flagged_senders() if with_flagged else None
        return (pairs, newest, info, flagged)
    if kind == "sender":
        return service.store.get(request[1])
    raise ValueError(f"unknown worker query {kind!r}")


def _check_spool_geometry(spool_dir, workers: int) -> None:
    """Refuse to start over another geometry's flag history.

    Spool filenames encode ``(worker, workers)``, so a pool restarted
    with a different worker count would open brand-new empty files and
    silently serve an empty flag history while the real one sits in
    the same directory.  Per-file header validation cannot catch that
    (the old files are never opened) — this directory-level check can.
    """
    for path in sorted(pathlib.Path(spool_dir).glob("flags-*-of-*.jsonl")):
        try:
            found = int(path.stem.rsplit("-of-", 1)[1])
        except (IndexError, ValueError):  # not ours; header check governs
            continue
        if found != workers:
            raise WorkerPoolError(
                f"spool directory {spool_dir} holds flag history for a "
                f"{found}-worker service ({path.name}) but this pool has "
                f"{workers} workers; replaying would mis-assign senders "
                f"— restart with --workers {found} or move the spools "
                f"aside"
            )


# ----------------------------------------------------------------------
# Front-end side
# ----------------------------------------------------------------------
class _WorkerHandle:
    __slots__ = ("index", "process", "conn", "lock", "query_lock",
                 "pending", "pending_bytes")

    def __init__(self, index, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        #: Guards ``pending`` and every write to ``conn``.
        self.lock = Lock()
        #: One query (request + reply) at a time; taken before ``lock``.
        self.query_lock = Lock()
        self.pending: List[str] = []
        self.pending_bytes = 0


class IngestWorkerPool:
    """Front-end facade over ``N`` ingest worker processes.

    Exposes the same ingest surface as :class:`~repro.service.ingest.
    DetectionService` (``ingest_line`` raising :class:`WireError` on
    malformed lines, ``record_decode_error``, ``record_disconnect``)
    and the same query surface (``api_stats`` / ``api_verdicts`` /
    ``api_watch`` / ``api_sender``), so the TCP ingest server, the
    stdin pump and the HTTP API drive either interchangeably.

    Ingested lines are *asynchronous*: they buffer per worker and ship
    in batches.  Queries flush the relevant buffers first, so a query
    issued after ``ingest_line`` returned always observes that line.
    :meth:`barrier` flushes everything and round-trips every worker —
    after it returns, all previously ingested lines are folded in.
    """

    def __init__(
        self,
        workers: int,
        detector: str = DEFAULT_DETECTOR,
        config: ProtocolConfig = PAPER_CONFIG,
        shards: int = DEFAULT_SHARDS,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        transition_cap: int = DEFAULT_TRANSITION_CAP,
        verdict_cap: int = DEFAULT_VERDICT_CAP,
        spool_dir: Optional[str] = None,
        start_method: Optional[str] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if spool_dir is not None:
            _check_spool_geometry(spool_dir, workers)
        self.workers = workers
        self.detector_spec = detector
        self.spool_dir = spool_dir
        self.started = time.monotonic()
        self.replayed_flags = 0
        self._closed = False
        self._counter_lock = Lock()
        self._decode_errors = 0
        self._disconnects = 0

        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        context = multiprocessing.get_context(start_method)
        self._handles: List[_WorkerHandle] = []
        try:
            for index in range(workers):
                parent_conn, child_conn = context.Pipe(duplex=True)
                cfg = WorkerConfig(
                    index=index,
                    workers=workers,
                    detector=detector,
                    config=config,
                    shards=shards,
                    max_entries=max_entries,
                    transition_cap=transition_cap,
                    verdict_cap=verdict_cap,
                    spool_dir=spool_dir,
                )
                process = context.Process(
                    target=_worker_main,
                    args=(child_conn, cfg),
                    name=f"repro-ingest-{index}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._handles.append(_WorkerHandle(index, process, parent_conn))
            for handle in self._handles:
                if not handle.conn.poll(_STARTUP_TIMEOUT):
                    raise WorkerPoolError(
                        f"worker {handle.index} did not come up within "
                        f"{_STARTUP_TIMEOUT:g}s"
                    )
                reply = pickle.loads(handle.conn.recv_bytes())
                if reply[0] == "__error__":
                    raise WorkerPoolError(
                        f"worker {handle.index} failed to start: {reply[1]}"
                    )
                self.replayed_flags += reply[2]
        except BaseException:
            self._terminate()
            raise

    # ------------------------------------------------------------------
    # Ingest surface
    # ------------------------------------------------------------------
    def ingest_line(self, line: str) -> None:
        """Route one wire line to its owning worker (batched).

        Raises :class:`WireError` for lines that are provably
        malformed — the router scans the sender out without a JSON
        parse and only falls back to a strict decode when the scan is
        undecided, so well-formed traffic never pays for a front-end
        parse.
        """
        sender = sender_of_line(line)
        if sender is None:
            # Undecided: either malformed (raise so the TCP handler
            # can reject with a reason) or exotically escaped (route
            # by the decoded sender; the worker re-decodes).
            sender, _ = decode_record(line)
        handle = self._handles[worker_of(sender, self.workers)]
        with handle.lock:
            handle.pending.append(line)
            handle.pending_bytes += len(line) + 1
            if (len(handle.pending) >= BATCH_LINES
                    or handle.pending_bytes >= BATCH_BYTES):
                self._ship_locked(handle)

    def ingest_lines(self, lines: Sequence[str]) -> int:
        """Bulk :meth:`ingest_line`; returns lines routed.  Raises on
        the first malformed line (the bench path pre-validates)."""
        for line in lines:
            self.ingest_line(line)
        return len(lines)

    def record_decode_error(self) -> None:
        with self._counter_lock:
            self._decode_errors += 1

    def record_disconnect(self) -> None:
        with self._counter_lock:
            self._disconnects += 1

    def flush(self) -> None:
        """Ship every buffered batch now (without waiting)."""
        for handle in self._handles:
            with handle.lock:
                if handle.pending:
                    self._ship_locked(handle)

    def barrier(self) -> None:
        """Flush, then round-trip every worker: when this returns,
        every line previously accepted by :meth:`ingest_line` has been
        folded into its worker's detector state."""
        for handle in self._handles:
            self._query(handle, ("ping",))

    def _ship_locked(self, handle: _WorkerHandle) -> None:
        payload = "\n".join(handle.pending).encode("utf-8")
        handle.pending.clear()
        handle.pending_bytes = 0
        try:
            handle.conn.send_bytes(_TAG_DATA + payload)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerPoolError(
                f"worker {handle.index} pipe is gone "
                f"({type(exc).__name__}); did the worker die?"
            ) from exc

    # ------------------------------------------------------------------
    # Scatter-gather queries
    # ------------------------------------------------------------------
    def _query(self, handle: _WorkerHandle, request: tuple):
        message = _TAG_QUERY + pickle.dumps(request, pickle.HIGHEST_PROTOCOL)
        with handle.query_lock:
            try:
                with handle.lock:
                    if handle.pending:
                        self._ship_locked(handle)
                    handle.conn.send_bytes(message)
                # The reply is read without ``lock``: ingest keeps
                # shipping while the worker drains its backlog.
                reply = pickle.loads(handle.conn.recv_bytes())
            except (EOFError, BrokenPipeError, OSError) as exc:
                raise WorkerPoolError(
                    f"worker {handle.index} died mid-query "
                    f"({type(exc).__name__})"
                ) from exc
        if isinstance(reply, tuple) and reply and reply[0] == "__error__":
            raise WorkerPoolError(
                f"worker {handle.index} query {request[0]!r} failed: "
                f"{reply[1]}"
            )
        return reply

    # ------------------------------------------------------------------
    # Cursor codec: one dot-joined token of per-worker sequence ids
    # ------------------------------------------------------------------
    def parse_cursor(self, after: Optional[str]) -> List[int]:
        """``"12.7.9.4"`` → per-worker newest-seen sequence numbers."""
        if after is None or after in ("", "0"):
            return [0] * self.workers
        parts = str(after).split(".")
        if len(parts) != self.workers:
            raise ValueError(
                f"cursor 'after' must have {self.workers} dot-joined "
                f"component(s) for a {self.workers}-worker service "
                f"(or be 0), got {after!r}"
            )
        try:
            cursors = [int(part) for part in parts]
        except ValueError:
            raise ValueError(
                f"cursor 'after' components must be integers, "
                f"got {after!r}"
            ) from None
        if any(cursor < 0 for cursor in cursors):
            raise ValueError("cursor 'after' components must be >= 0")
        return cursors

    @staticmethod
    def format_cursor(cursors: Sequence[int]) -> str:
        return ".".join(str(cursor) for cursor in cursors)

    # ------------------------------------------------------------------
    # Query surface shared with DetectionService
    # ------------------------------------------------------------------
    def api_stats(self) -> Dict[str, object]:
        per_worker = [self._query(h, ("stats",)) for h in self._handles]
        now = time.monotonic()
        uptime = max(now - self.started, 1e-9)
        observations = sum(w["observations"] for w in per_worker)
        with self._counter_lock:
            decode_errors = self._decode_errors
            disconnects = self._disconnects
        return {
            "detector": self.detector_spec,
            "workers": self.workers,
            "uptime_s": round(uptime, 3),
            "observations": observations,
            "decode_errors": decode_errors
            + sum(w["decode_errors"] for w in per_worker),
            "disconnects": disconnects,
            "misroutes": sum(w["misroutes"] for w in per_worker),
            "replayed_flags": sum(w["replayed_flags"] for w in per_worker),
            "obs_per_sec": round(observations / uptime, 1),
            "recent_obs_per_sec": round(
                sum(w["recent_obs_per_sec"] for w in per_worker), 1
            ),
            "store": {
                "shards": sum(w["store"]["shards"] for w in per_worker),
                "max_entries_per_shard":
                    per_worker[0]["store"]["max_entries_per_shard"],
                "entries": sum(w["store"]["entries"] for w in per_worker),
                "observations":
                    sum(w["store"]["observations"] for w in per_worker),
                "evictions":
                    sum(w["store"]["evictions"] for w in per_worker),
                "flagged_evictions":
                    sum(w["store"]["flagged_evictions"] for w in per_worker),
                "currently_flagged":
                    sum(w["store"]["currently_flagged"] for w in per_worker),
            },
            "verdicts": {
                "flags": sum(w["verdicts"]["flags"] for w in per_worker),
                "retained":
                    sum(w["verdicts"]["retained"] for w in per_worker),
                "dropped": sum(w["verdicts"]["dropped"] for w in per_worker),
            },
            "per_worker": per_worker,
        }

    def api_verdicts(
        self,
        after: Optional[str] = None,
        limit: Optional[int] = None,
        *,
        flagged: bool = True,
    ) -> Dict[str, object]:
        """Merged ``/verdicts``: scatter, tag with ``(worker, seq)``,
        sort by flag wall clock, honor ``limit`` across the merge.
        ``flagged=False`` leaves out the ``flagged`` list (and the
        per-worker scan that builds it).

        The per-worker cursor advance is prefix-safe: a worker's
        events arrive in sequence order with non-decreasing wall
        clocks (its ingest loop is single-threaded), so consuming a
        prefix of the merged order consumes a prefix of each worker's
        list — resuming from the returned token loses nothing and
        duplicates nothing.
        """
        cursors = self.parse_cursor(after)
        results = [
            self._query(
                handle, ("verdicts", cursors[handle.index], limit, flagged)
            )
            for handle in self._handles
        ]
        tagged = [
            (event.wall, index, seq, event)
            for index, (pairs, _, _, _) in enumerate(results)
            for seq, event in pairs
        ]
        tagged.sort(key=lambda item: (item[0], item[1], item[2]))
        if limit is not None:
            tagged = tagged[:limit]

        consumed: Dict[int, int] = {}
        events = []
        for _, index, seq, event in tagged:
            consumed[index] = seq
            payload = event_payload(seq, event)
            del payload["id"]
            payload["worker"] = index
            payload["seq"] = seq
            events.append(payload)

        next_ids = list(cursors)
        gap = False
        dropped = 0
        per_worker = []
        for index, (pairs, newest, info, _) in enumerate(results):
            if index in consumed:
                if consumed[index] == pairs[-1][0]:
                    next_ids[index] = newest  # consumed all returned
                else:
                    next_ids[index] = consumed[index]
            elif not pairs:
                # Nothing retained after the cursor: advance past the
                # newest id (anything in between was dropped by the
                # cap and can never be observed — the gap flag says so).
                next_ids[index] = newest
            # else: worker returned events but the merge cut them all
            # (limit): leave the cursor put, they come back next poll.
            worker_gap = (
                info["oldest"] is not None
                and cursors[index] + 1 < info["oldest"]
            )
            gap = gap or worker_gap
            dropped += info["dropped"]
            per_worker.append({
                "worker": index,
                "newest": newest,
                "oldest": info["oldest"],
                "dropped": info["dropped"],
                "gap": worker_gap,
            })

        payload = {
            "events": events,
            "next": self.format_cursor(next_ids),
            "dropped": dropped,
            "gap": gap,
            "workers": self.workers,
            "per_worker": per_worker,
        }
        if flagged:
            payload["flagged"] = sorted(
                sender for _, _, _, flagged_list in results
                for sender in flagged_list
            )
        return payload

    def api_watch(
        self,
        after: Optional[str] = None,
        timeout: float = 30.0,
        limit: Optional[int] = None,
    ) -> Dict[str, object]:
        """Poll the merged verdict scatter until events appear or the
        timeout passes.  Bounded polling, not a blocking worker-side
        wait: a worker blocked in a long-poll could not ingest."""
        deadline = time.monotonic() + max(timeout, 0.0)
        while True:
            payload = self.api_verdicts(after, limit, flagged=False)
            remaining = deadline - time.monotonic()
            if payload["events"] or remaining <= 0:
                return payload
            time.sleep(min(_WATCH_POLL_S, max(remaining, 0.0)))

    def api_sender(self, sender: str) -> Optional[Dict[str, object]]:
        index = worker_of(sender, self.workers)
        snapshot = self._query(self._handles[index], ("sender", sender))
        if snapshot is not None:
            snapshot["worker"] = index
        return snapshot

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush buffers, stop every worker, reap the processes."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            # Both locks: no query can be waiting for a reply when the
            # stop acknowledgement arrives.
            with handle.query_lock, handle.lock:
                try:
                    if handle.pending:
                        self._ship_locked(handle)
                    handle.conn.send_bytes(_TAG_STOP)
                    if handle.conn.poll(_SHUTDOWN_TIMEOUT):
                        handle.conn.recv_bytes()  # ("bye", index)
                except (WorkerPoolError, EOFError, BrokenPipeError, OSError):
                    pass  # already dead; reap below
                finally:
                    handle.conn.close()
        self._terminate()

    def _terminate(self) -> None:
        for handle in self._handles:
            handle.process.join(_SHUTDOWN_TIMEOUT)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(_SHUTDOWN_TIMEOUT)

    def __enter__(self) -> "IngestWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "BATCH_BYTES",
    "BATCH_LINES",
    "IngestWorkerPool",
    "WorkerConfig",
    "WorkerPoolError",
]
