"""Sharded per-sender detector state with measured, bounded memory.

The serving-shaped heart of :mod:`repro.service`: ``N`` shards keyed
by ``crc32(sender) % N``, each an ordered dict of per-sender detector
instances in least-recently-observed order.  A configurable per-shard
entry budget is enforced by LRU eviction, and evictions are *counted
and surfaced* through :meth:`ShardedDetectorStore.stats` — bounded
memory is a measured property of the service, not a hope.

Detector instances are recycled through a small per-shard free pool:
an evicted sender's detector is :meth:`~repro.detect.Detector.reset`
and handed to the next admitted sender, so sustained churn does not
churn the allocator.  This is why the detector contract demands that
``reset()`` be bit-identical to fresh construction (property-tested in
``tests/test_detect.py``): an evicted-then-readmitted sender must be
judged exactly as a never-seen one.

Verdict bookkeeping happens at the same layer, under the same shard
lock: each entry tracks its current flag state, a bounded list of
flag/clear transitions, and its first flag; the store hands a
:class:`FlagEvent` back to the caller exactly once per tenure so the
service can publish first-flag notifications.  The transitions list is
allocated lazily, on a sender's first transition: most senders are
honest and never get one, and the store holds up to ``shards *
max_entries`` entries, so a ``window`` entry is kept to two GC-tracked
objects (the entry and its detector, which is its own window).
"""

from __future__ import annotations

import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock
from typing import Callable, Dict, List, Optional, Tuple

from repro.detect.base import Detector, Observation

#: Default shard count (``serve --shards`` overrides it).
DEFAULT_SHARDS = 8
#: Default per-shard entry budget (``serve --max-entries`` overrides it).
DEFAULT_MAX_ENTRIES = 10_000
#: Flag/clear transitions kept per sender entry (oldest dropped).
DEFAULT_TRANSITION_CAP = 64
#: Evicted detectors kept around per shard for recycling.
_FREE_POOL_CAP = 32


#: Routing-domain suffix of :func:`worker_of` (see its docstring for
#: why a *suffix*, not a seed or prefix).
_WORKER_SUFFIX = b"\x00wrkr"


def shard_of(sender: str, shards: int) -> int:
    """Deterministic shard index for a sender key.

    Uses crc32, not :func:`hash`: Python string hashing is salted per
    process, and two service replicas (or a service and its tests)
    must agree on placement.
    """
    return zlib.crc32(sender.encode("utf-8")) % shards


def worker_of(sender: str, workers: int) -> int:
    """Deterministic ingest-worker index for a sender key.

    Same determinism argument as :func:`shard_of` — the front-end
    router, every worker, the spool replayer and the tests must agree
    on which worker owns a sender.  Hashed differently from
    :func:`shard_of` on purpose: with the same hash, the senders
    routed to worker ``k`` of ``N`` would all satisfy ``crc32 % N ==
    k``, so a worker-local store with ``shards`` a multiple of ``N``
    would fill only ``shards / N`` of its shards (e.g. 2 of 8 with 4
    workers) — one residue class per worker.

    The decorrelation has to be a fixed *suffix*: crc32 is
    GF(2)-linear, so a different seed (or a fixed prefix, which is
    just a different initial state) only XORs the checksum of a
    same-length key by a constant and leaves the two placements
    correlated.  Appending a suffix multiplies the state by a
    bit-mixing polynomial matrix instead, making the worker index
    depend on all bits of the key's checksum (asserted in
    ``tests/test_service_workers.py``).
    """
    return zlib.crc32(sender.encode("utf-8") + _WORKER_SUFFIX) % workers


@dataclass(frozen=True)
class FlagEvent:
    """A sender's first flag of its current tenure.

    Attributes
    ----------
    sender:
        The flagged sender's wire key.
    time_us:
        Stream time of the flagging observation.
    wall:
        Monotonic wall clock at the flag (:func:`time.monotonic`).
    first_obs_wall:
        Monotonic wall clock of the sender's first observation this
        tenure — ``wall - first_obs_wall`` is the service-level
        latency from first sight to flag.
    observations:
        Observations folded into the sender this tenure, inclusive of
        the flagging one.
    """

    sender: str
    time_us: int
    wall: float
    first_obs_wall: float
    observations: int


class SenderEntry:
    """Per-sender state held inside one shard (one tenure).

    Slotted, with no per-instance dict, because the store holds up to
    ``shards * max_entries`` of these (see the module docstring).
    """

    __slots__ = ("detector", "first_obs_wall", "first_obs_time_us",
                 "observations", "flagged", "first_flag", "transitions")

    def __init__(
        self, detector: Detector, first_obs_wall: float,
        first_obs_time_us: int,
    ):
        self.detector = detector
        self.first_obs_wall = first_obs_wall
        self.first_obs_time_us = first_obs_time_us
        self.observations = 0
        self.flagged = False
        self.first_flag: Optional[FlagEvent] = None
        #: Bounded ``(observation_index, "flag"|"clear", time_us)``
        #: log, allocated on the first transition.
        self.transitions: Optional[List[Tuple[int, str, int]]] = None


class _Shard:
    """One lock + ordered entry dict + its counters."""

    __slots__ = ("lock", "entries", "evictions", "flagged_evictions",
                 "observations", "free_pool")

    def __init__(self) -> None:
        self.lock = Lock()
        self.entries: "OrderedDict[str, SenderEntry]" = OrderedDict()
        self.evictions = 0
        self.flagged_evictions = 0
        self.observations = 0
        self.free_pool: List[Detector] = []


class ShardedDetectorStore:
    """N-sharded, LRU-bounded map of sender key -> detector state.

    Parameters
    ----------
    factory:
        Zero-argument callable producing a fresh detector (see
        :func:`repro.detect.detector_factory`).
    shards:
        Shard count; each shard has its own lock, so ingest threads
        touching different shards never contend.
    max_entries:
        Per-shard entry budget.  The store holds at most
        ``shards * max_entries`` sender entries, ever.
    transition_cap:
        Flag/clear transitions retained per entry.
    """

    def __init__(
        self,
        factory: Callable[[], Detector],
        shards: int = DEFAULT_SHARDS,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        transition_cap: int = DEFAULT_TRANSITION_CAP,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if transition_cap < 2:
            raise ValueError(
                f"transition_cap must be >= 2, got {transition_cap}"
            )
        self.factory = factory
        self.shards = shards
        self.max_entries = max_entries
        self.transition_cap = transition_cap
        self._shards = [_Shard() for _ in range(shards)]

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def observe(
        self, sender: str, observation: Observation,
    ) -> Tuple[bool, Optional[FlagEvent]]:
        """Fold one observation into ``sender``'s detector.

        Returns ``(verdict, first_flag_event)``: the post-update
        verdict, plus a :class:`FlagEvent` exactly when this
        observation flagged the sender for the first time in its
        current tenure (``None`` otherwise).
        """
        shard = self._shards[shard_of(sender, self.shards)]
        with shard.lock:
            entries = shard.entries
            entry = entries.get(sender)
            if entry is None:
                if shard.free_pool:
                    detector = shard.free_pool.pop()
                    detector.reset()
                else:
                    detector = self.factory()
                entry = SenderEntry(
                    detector, time.monotonic(), observation.time_us,
                )
                entries[sender] = entry
                if len(entries) > self.max_entries:
                    _, evicted = entries.popitem(last=False)
                    shard.evictions += 1
                    if evicted.flagged:
                        shard.flagged_evictions += 1
                    if len(shard.free_pool) < _FREE_POOL_CAP:
                        shard.free_pool.append(evicted.detector)
            else:
                entries.move_to_end(sender)
            shard.observations += 1
            entry.observations += 1
            verdict = entry.detector.observe(observation)
            event = None
            if verdict != entry.flagged:
                entry.flagged = verdict
                transitions = entry.transitions
                if transitions is None:
                    transitions = entry.transitions = []
                transitions.append((
                    entry.observations,
                    "flag" if verdict else "clear",
                    observation.time_us,
                ))
                if len(transitions) > self.transition_cap:
                    del transitions[0]
                if verdict and entry.first_flag is None:
                    event = FlagEvent(
                        sender=sender,
                        time_us=observation.time_us,
                        wall=time.monotonic(),
                        first_obs_wall=entry.first_obs_wall,
                        observations=entry.observations,
                    )
                    entry.first_flag = event
            return verdict, event

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, sender: str) -> Optional[Dict[str, object]]:
        """Snapshot of one sender's state, or ``None`` if not resident
        (never observed, or evicted under the entry budget)."""
        index = shard_of(sender, self.shards)
        shard = self._shards[index]
        with shard.lock:
            entry = shard.entries.get(sender)
            if entry is None:
                return None
            detector = entry.detector
            return {
                "sender": sender,
                "shard": index,
                "flagged": entry.flagged,
                "observations": entry.observations,
                "flagged_observations": detector.flagged_observations,
                "first_obs_time_us": entry.first_obs_time_us,
                "first_flag": None if entry.first_flag is None else {
                    "time_us": entry.first_flag.time_us,
                    "observations": entry.first_flag.observations,
                    "latency_s": round(
                        entry.first_flag.wall - entry.first_flag.first_obs_wall,
                        6,
                    ),
                },
                "transitions": [
                    {"observation": n, "verdict": kind, "time_us": t}
                    for n, kind, t in entry.transitions or ()
                ],
            }

    def flagged_senders(self) -> List[str]:
        """Senders currently resident *and* flagged, sorted."""
        flagged: List[str] = []
        for shard in self._shards:
            with shard.lock:
                flagged.extend(
                    sender for sender, entry in shard.entries.items()
                    if entry.flagged
                )
        return sorted(flagged)

    def stats(self) -> Dict[str, object]:
        """Occupancy, eviction and observation counters, per shard."""
        occupancy: List[int] = []
        observations = evictions = flagged_evictions = flagged = 0
        for shard in self._shards:
            with shard.lock:
                occupancy.append(len(shard.entries))
                observations += shard.observations
                evictions += shard.evictions
                flagged_evictions += shard.flagged_evictions
                flagged += sum(
                    1 for entry in shard.entries.values() if entry.flagged
                )
        return {
            "shards": self.shards,
            "max_entries_per_shard": self.max_entries,
            "occupancy": occupancy,
            "entries": sum(occupancy),
            "observations": observations,
            "evictions": evictions,
            "flagged_evictions": flagged_evictions,
            "currently_flagged": flagged,
        }

    def __len__(self) -> int:
        return sum(len(shard.entries) for shard in self._shards)
