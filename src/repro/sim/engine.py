"""Discrete-event simulation kernel.

The kernel is intentionally small: a priority queue of timestamped
events, a monotonically advancing clock, and cancellable event handles.
It plays the role ns-2's scheduler plays for the paper's evaluation.

Time is kept as an integer number of *microseconds*.  All IEEE 802.11
timing constants in this reproduction are integer microseconds (slot
time 20 us, SIFS 10 us, DIFS 50 us), so integer time avoids the float
drift that would otherwise desynchronise slot boundaries over a
50-second run.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> handle = sim.schedule(100, lambda: fired.append(sim.now))
>>> sim.run()
>>> fired
[100]
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

# Heap entries are plain ``(time, seq, obj)`` tuples: ordering is
# (time, sequence) so that events scheduled for the same timestamp fire
# in FIFO order -- a property several MAC races rely on (e.g. two
# stations whose backoff counters expire on the same slot boundary must
# both observe an idle medium before either transmission begins).  The
# monotonically increasing ``seq`` also guarantees tuple comparison
# never reaches the (incomparable) third element.  Tuples beat a
# dataclass here: the scheduler allocates and compares one entry per
# event, and this is the hottest allocation in the kernel.
#
# ``obj`` is either an :class:`EventHandle` (cancellable timers) or a
# bare callable scheduled through :meth:`Simulator.call_later` /
# :meth:`Simulator.call_at`.  The bare form exists for the dominant
# fire-and-forget patterns profiled by ``REPRO_PROFILE`` — transmission
# completions, SIFS-spaced response chains, IFS waits that are never
# cancelled — where allocating a handle per event is pure overhead.
#
# A cancelled handle stays in the heap as a *tombstone* until it is
# popped or the heap is compacted.  The simulator counts its tombstones
# and, once they outnumber the live entries (and exceed
# ``COMPACT_MIN_TOMBSTONES``), rebuilds the heap in place without them
# -- the rule asyncio's event loop uses for its timer heap.  Live
# entries keep their unique ``(time, seq)`` keys, so re-heapifying them
# cannot change the dispatch order.  The heap therefore never holds
# more than ``2 * live + COMPACT_MIN_TOMBSTONES`` entries, and each
# cancel costs amortised O(1): a rebuild touches at most twice as many
# entries as there were cancels since the previous one.


#: Tombstones tolerated before the heap may be compacted, so small
#: queues never pay for a rebuild.
COMPACT_MIN_TOMBSTONES = 64


#: Effectively-infinite horizon sentinel: comparing against one int is
#: cheaper in the dispatch loop than re-testing ``horizon is None``.
INFINITE_TIME = 1 << 62


class SimulationError(RuntimeError):
    """Raised when the kernel is used inconsistently.

    Examples include scheduling an event in the past or running a
    simulator that was already stopped.
    """


class SimulationStalled(SimulationError):
    """A watchdog guard tripped: the run exceeded its event, simulated
    time or wall-clock budget.

    Carries the recent dispatch history (:attr:`trace`) so a stall —
    typically two MACs re-scheduling each other in a tight loop — can
    be diagnosed from the exception alone.
    """

    def __init__(self, reason: str, trace: List[Tuple[int, str]]):
        lines = "\n".join(f"  t={t} us  {desc}" for t, desc in trace)
        super().__init__(
            f"simulation stalled: {reason}\nmost recent events:\n{lines}"
            if trace else f"simulation stalled: {reason}"
        )
        self.reason = reason
        self.trace = trace


@dataclass(frozen=True)
class Watchdog:
    """Budget guards for :meth:`Simulator.run`.

    Any guard left ``None`` is disabled.  ``max_wall_s`` is checked
    every ``check_interval`` events (a ``time.monotonic`` call per
    event would dominate the kernel's hot loop); the others are exact.
    The watched loop also keeps the last ``trace_len`` dispatches for
    the :class:`SimulationStalled` report.
    """

    max_events: Optional[int] = None
    max_wall_s: Optional[float] = None
    max_sim_us: Optional[int] = None
    trace_len: int = 32
    check_interval: int = 256

    def __post_init__(self):
        if self.trace_len < 1:
            raise ValueError("trace_len must be >= 1")
        if self.check_interval < 1:
            raise ValueError("check_interval must be >= 1")


def _describe_callback(callback: Callable[[], None]) -> str:
    """Human-readable event label for watchdog traces."""
    name = getattr(callback, "__qualname__", None) or repr(callback)
    owner = getattr(callback, "__self__", None)
    node = getattr(owner, "node_id", None)
    return f"{name} [node {node}]" if node is not None else name


class EventHandle:
    """A cancellable handle for a scheduled callback.

    Cancellation is lazy: the heap entry becomes a tombstone that is
    skipped when popped, or dropped earlier when the simulator compacts
    its heap.  This is amortised O(1) and is the standard approach for
    simulators with frequent timer cancellation (MAC timeouts are
    cancelled on nearly every successful frame exchange).
    """

    __slots__ = ("time", "callback", "cancelled", "fired", "_sim")

    def __init__(self, time: int, callback: Callable[[], None],
                 sim: "Simulator"):
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.  Safe to call repeatedly."""
        if self.cancelled:
            return
        self.cancelled = True
        if not self.fired:
            sim = self._sim
            sim._tombstones += 1
            sim._compact_if_due()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and may still fire."""
        return not self.cancelled and not self.fired


class Simulator:
    """Event-driven simulator with integer-microsecond time.

    Parameters
    ----------
    until:
        Optional default horizon (microseconds) used by :meth:`run`
        when no explicit horizon is passed.
    profile:
        When true, tally dispatched events per subsystem (the module of
        each callback) into :attr:`event_counts`.  Costs one dict
        update per event, never touches any RNG, and is off by default
        so the hot path stays lean.
    watchdog:
        Optional :class:`Watchdog`.  When set, :meth:`run` uses a
        guarded dispatch loop that raises :class:`SimulationStalled`
        (with a recent-event trace) once any budget is exceeded; when
        ``None`` (the default) the original unguarded fast loop runs
        and per-event cost is unchanged.
    """

    def __init__(self, until: Optional[int] = None, profile: bool = False,
                 watchdog: Optional["Watchdog"] = None):
        self.now: int = 0
        self._queue: list[tuple[int, int, EventHandle]] = []
        #: Cancelled handles still in ``_queue``.
        self._tombstones = 0
        self._seq = itertools.count()
        self._default_until = until
        self._running = False
        self._stopped = False
        self.events_processed = 0
        #: Per-module dispatch counts; populated only under ``profile``.
        self.event_counts: Dict[str, int] = {}
        self._profile = profile
        self.watchdog = watchdog

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` microseconds from now.

        Returns an :class:`EventHandle` that can be cancelled.  A zero
        delay is allowed and fires after all events already queued for
        the current timestamp.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        handle = EventHandle(time, callback, self)
        heapq.heappush(self._queue, (time, next(self._seq), handle))
        return handle

    def schedule_at(self, time: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulation ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        handle = EventHandle(time, callback, self)
        heapq.heappush(self._queue, (time, next(self._seq), handle))
        return handle

    def call_later(self, delay: int, callback: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, not cancellable.

        The hot-path variant for callbacks that are never cancelled
        (transmission completions, SIFS response chains): the heap
        entry carries the bare callable, so no :class:`EventHandle` is
        allocated and dispatch skips the cancellation check.  Fires in
        the same FIFO-per-timestamp order as handle events.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(
            self._queue, (self.now + delay, next(self._seq), callback)
        )

    def call_at(self, time: int, callback: Callable[[], None]) -> None:
        """Absolute-time :meth:`call_later` (fire-and-forget)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        heapq.heappush(self._queue, (time, next(self._seq), callback))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> None:
        """Process events until the queue drains or ``until`` is reached.

        When the horizon is hit, ``now`` is advanced exactly to the
        horizon so that rate computations (bits / elapsed time) use the
        intended duration.
        """
        horizon = until if until is not None else self._default_until
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        try:
            if self.watchdog is None:
                self._run_fast(horizon)
            else:
                self._run_watched(horizon, self.watchdog)
            if horizon is not None and self.now < horizon and not self._stopped:
                self.now = horizon
        finally:
            self._running = False

    def _run_fast(self, horizon: Optional[int]) -> None:
        # Everything the loop touches per event is bound to a local:
        # at ~100 ns of useful work per dispatch, attribute lookups on
        # ``self`` are a measurable fraction of the kernel's cost.
        queue = self._queue
        heappop = heapq.heappop
        profile = self._profile
        handle_cls = EventHandle
        floor = COMPACT_MIN_TOMBSTONES
        limit = INFINITE_TIME if horizon is None else horizon
        events = self.events_processed
        try:
            while queue and not self._stopped:
                entry = queue[0]
                event_time = entry[0]
                if event_time > limit:
                    break
                heappop(queue)
                obj = entry[2]
                if obj.__class__ is handle_cls:
                    if obj.cancelled:
                        self._tombstones -= 1
                        continue
                    obj.fired = True
                    callback = obj.callback
                else:
                    callback = obj
                # Inlined ``_compact_if_due`` (hot: once per event).
                tombstones = self._tombstones
                if tombstones > floor and 2 * tombstones > len(queue):
                    self._compact()
                if event_time < self.now:  # pragma: no cover - defensive
                    raise SimulationError("event queue went backwards in time")
                self.now = event_time
                events += 1
                if profile:
                    module = getattr(
                        callback, "__module__", None
                    ) or "unknown"
                    self.event_counts[module] = (
                        self.event_counts.get(module, 0) + 1
                    )
                callback()
        finally:
            self.events_processed = events

    def _run_watched(self, horizon: Optional[int], dog: "Watchdog") -> None:
        """The fast loop plus budget guards and a rolling event trace.

        Duplicated rather than folded into :meth:`_run_fast` so the
        unguarded path keeps zero per-event overhead.
        """
        queue = self._queue
        heappop = heapq.heappop
        trace: deque = deque(maxlen=dog.trace_len)
        dispatched = 0
        deadline = (
            _time.monotonic() + dog.max_wall_s
            if dog.max_wall_s is not None else None
        )
        handle_cls = EventHandle
        while queue and not self._stopped:
            entry = queue[0]
            event_time = entry[0]
            if horizon is not None and event_time > horizon:
                break
            heappop(queue)
            obj = entry[2]
            if obj.__class__ is handle_cls:
                if obj.cancelled:
                    self._tombstones -= 1
                    continue
                obj.fired = True
                callback = obj.callback
            else:
                callback = obj
            self._compact_if_due()
            if event_time < self.now:  # pragma: no cover - defensive
                raise SimulationError("event queue went backwards in time")
            if dog.max_sim_us is not None and event_time > dog.max_sim_us:
                raise SimulationStalled(
                    f"simulated time {event_time} us exceeds the "
                    f"{dog.max_sim_us} us budget", list(trace),
                )
            dispatched += 1
            if dog.max_events is not None and dispatched > dog.max_events:
                raise SimulationStalled(
                    f"dispatched more than {dog.max_events} events in one "
                    "run() call", list(trace),
                )
            if deadline is not None and dispatched % dog.check_interval == 0:
                if _time.monotonic() > deadline:
                    raise SimulationStalled(
                        f"wall clock exceeded the {dog.max_wall_s} s budget",
                        list(trace),
                    )
            self.now = event_time
            self.events_processed += 1
            trace.append((event_time, _describe_callback(callback)))
            if self._profile:
                module = getattr(
                    callback, "__module__", None
                ) or "unknown"
                self.event_counts[module] = (
                    self.event_counts.get(module, 0) + 1
                )
            callback()

    def stop(self) -> None:
        """Stop processing after the current event completes."""
        self._stopped = True

    def peek(self) -> Optional[int]:
        """Timestamp of the next pending event, or ``None`` if drained."""
        while self._queue:
            obj = self._queue[0][2]
            if obj.__class__ is EventHandle and obj.cancelled:
                heapq.heappop(self._queue)
                self._tombstones -= 1
            else:
                break
        return self._queue[0][0] if self._queue else None

    def _compact_if_due(self) -> None:
        """Compact once tombstones outnumber live entries (past the floor).

        Checked after every cancel and every live pop: those are the
        only operations that move the tombstone/live balance upwards.
        """
        tombstones = self._tombstones
        if (tombstones > COMPACT_MIN_TOMBSTONES
                and 2 * tombstones > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap in place without its tombstones.

        In place, because the dispatch loops hold the list in a local.
        """
        queue = self._queue
        handle_cls = EventHandle
        queue[:] = [
            entry for entry in queue
            if entry[2].__class__ is not handle_cls or not entry[2].cancelled
        ]
        heapq.heapify(queue)
        self._tombstones = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now}, pending={len(self._queue)}, "
            f"processed={self.events_processed})"
        )
