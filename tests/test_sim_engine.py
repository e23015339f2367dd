"""Unit tests for the discrete-event kernel."""

import heapq
import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import engine
from repro.sim.engine import EventHandle, SimulationError, Simulator, Watchdog


class TestScheduling:
    def test_single_event_fires_at_time(self, sim):
        fired = []
        sim.schedule(100, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [100]

    def test_zero_delay_allowed(self, sim):
        fired = []
        sim.schedule(0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(250, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [250]

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(100, lambda: None)
        sim.run()
        assert sim.now == 100
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(300, lambda: order.append("c"))
        sim.schedule(100, lambda: order.append("a"))
        sim.schedule(200, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self, sim):
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule(50, lambda tag=tag: order.append(tag))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_nested_scheduling_from_callback(self, sim):
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(10, lambda: fired.append(("inner", sim.now)))

        sim.schedule(5, outer)
        sim.run()
        assert fired == [("outer", 5), ("inner", 15)]

    def test_nested_zero_delay_fires_same_timestamp(self, sim):
        fired = []

        def outer():
            sim.schedule(0, lambda: fired.append(sim.now))

        sim.schedule(7, outer)
        sim.run()
        assert fired == [7]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(100, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(100, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()
        assert not handle.pending

    def test_pending_transitions(self, sim):
        handle = sim.schedule(100, lambda: None)
        assert handle.pending
        sim.run()
        assert not handle.pending
        assert handle.fired

    def test_cancel_one_of_several(self, sim):
        fired = []
        sim.schedule(10, lambda: fired.append("keep1"))
        victim = sim.schedule(10, lambda: fired.append("victim"))
        sim.schedule(10, lambda: fired.append("keep2"))
        victim.cancel()
        sim.run()
        assert fired == ["keep1", "keep2"]


class TestHorizon:
    def test_run_until_stops_before_late_events(self, sim):
        fired = []
        sim.schedule(100, lambda: fired.append("early"))
        sim.schedule(900, lambda: fired.append("late"))
        sim.run(until=500)
        assert fired == ["early"]
        assert sim.now == 500

    def test_clock_advances_to_horizon_when_queue_drains(self, sim):
        sim.schedule(10, lambda: None)
        sim.run(until=1_000_000)
        assert sim.now == 1_000_000

    def test_event_exactly_at_horizon_fires(self, sim):
        fired = []
        sim.schedule(500, lambda: fired.append(1))
        sim.run(until=500)
        assert fired == [1]

    def test_resume_after_horizon(self, sim):
        fired = []
        sim.schedule(900, lambda: fired.append(sim.now))
        sim.run(until=500)
        sim.run(until=1000)
        assert fired == [900]

    def test_default_horizon_from_constructor(self):
        sim = Simulator(until=50)
        fired = []
        sim.schedule(100, lambda: fired.append(1))
        sim.run()
        assert fired == []
        assert sim.now == 50


class TestStopAndIntrospection:
    def test_stop_halts_processing(self, sim):
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()

        sim.schedule(10, stopper)
        sim.schedule(20, lambda: fired.append("never"))
        sim.run()
        assert fired == ["stop"]

    def test_peek_returns_next_time(self, sim):
        sim.schedule(30, lambda: None)
        sim.schedule(10, lambda: None)
        assert sim.peek() == 10

    def test_peek_skips_cancelled(self, sim):
        first = sim.schedule(10, lambda: None)
        sim.schedule(30, lambda: None)
        first.cancel()
        assert sim.peek() == 30

    def test_peek_empty_returns_none(self, sim):
        assert sim.peek() is None

    def test_events_processed_counts_fired_only(self, sim):
        sim.schedule(10, lambda: None)
        cancelled = sim.schedule(20, lambda: None)
        cancelled.cancel()
        sim.run()
        assert sim.events_processed == 1

    def test_reentrant_run_rejected(self, sim):
        def recurse():
            sim.run()

        sim.schedule(1, recurse)
        with pytest.raises(SimulationError):
            sim.run()


class TestDispatchLoopParity:
    """The fast and watched dispatch loops must count identically.

    ``REPRO_PROFILE`` plus a watchdog routes dispatch through
    ``_run_watched``; without a watchdog the same run uses
    ``_run_fast``.  Both results and every per-subsystem event tally
    must agree — a double-counted dispatch in either loop would skew
    the kernel profiles that performance work keys off (and would
    betray a dispatch executed twice).
    """

    def test_profiled_counters_match_between_fast_and_watched(self):
        from repro.experiments.scenarios import ScenarioConfig, build_scenario
        from repro.net.topology import circle_topology

        def run(watchdog):
            config = ScenarioConfig(
                topology=circle_topology(3, misbehaving=(2,), pm_percent=60.0),
                protocol="correct",
                duration_us=250_000,
                seed=5,
            )
            sim, nodes, collector = build_scenario(
                config, profile=True, watchdog=watchdog
            )
            for node in nodes:
                node.start()
            sim.run(until=config.duration_us)
            return sim, collector

        fast_sim, fast_collector = run(watchdog=None)
        watched_sim, watched_collector = run(
            watchdog=Watchdog(max_events=10_000_000)
        )
        assert fast_sim.events_processed > 0
        assert fast_sim.events_processed == watched_sim.events_processed
        assert dict(fast_sim.event_counts) == dict(watched_sim.event_counts)
        assert sum(fast_sim.event_counts.values()) == fast_sim.events_processed
        assert (fast_collector.throughputs(250_000)
                == watched_collector.throughputs(250_000))


# ----------------------------------------------------------------------
# Heap compaction: differential test against a kernel that never compacts
# ----------------------------------------------------------------------
class _RefHandle:
    __slots__ = ("cancelled", "fired")

    def __init__(self):
        self.cancelled = False
        self.fired = False

    def cancel(self):
        self.cancelled = True

    @property
    def pending(self):
        return not self.cancelled and not self.fired


class ReferenceKernel:
    """The kernel's contract at its simplest: one heap of
    ``(time, seq, handle, callback)`` entries, lazy cancellation, and
    no compaction -- every tombstone waits until it is popped."""

    def __init__(self):
        self.now = 0
        self.events_processed = 0
        self._heap = []
        self._seq = itertools.count()

    def _push(self, time, callback):
        handle = _RefHandle()
        heapq.heappush(self._heap, (time, next(self._seq), handle, callback))
        return handle

    def schedule(self, delay, callback):
        return self._push(self.now + delay, callback)

    def schedule_at(self, time, callback):
        return self._push(time, callback)

    def call_later(self, delay, callback):
        self._push(self.now + delay, callback)

    def call_at(self, time, callback):
        self._push(time, callback)

    def run(self, until):
        while self._heap and self._heap[0][0] <= until:
            time, _, handle, callback = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            handle.fired = True
            self.now = time
            self.events_processed += 1
            callback()
        self.now = max(self.now, until)

    def peek(self):
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None


_SCHEDULERS = ("schedule", "schedule_at", "call_later", "call_at")
_DELAYS = st.integers(min_value=0, max_value=200)
#: A cancel names a handle by its distance from the newest one: small
#: distances mostly hit pending handles (so tombstones pile up past the
#: live entries), large ones hit fired and already-cancelled handles.
_CANCEL = st.tuples(
    st.just("cancel"), st.integers(0, 4) | st.integers(0, 10_000)
)
#: Operations a callback may perform when it fires (no ``run``: the
#: kernel is not re-entrant).
_NESTED_OP = st.one_of(
    _CANCEL,
    st.tuples(st.sampled_from(_SCHEDULERS), _DELAYS, st.just(())),
    st.tuples(st.just("peek")),
)
_OP = st.one_of(
    _CANCEL,
    st.tuples(
        st.sampled_from(_SCHEDULERS), _DELAYS,
        st.lists(_NESTED_OP, max_size=4).map(tuple),
    ),
    st.tuples(st.just("peek")),
    st.tuples(st.just("run"), st.integers(0, 60)),
)


#: Two cancels outnumber the one live (bare) entry: compaction on cancel.
_BARE_SURVIVES_COMPACTION = [
    ("call_later", 5, ()), ("schedule", 10, ()), ("schedule", 10, ()),
    ("cancel", 0), ("cancel", 1), ("run", 20),
]
#: Tombstones equal the live entries until the first live pop.
_LIVE_POP_COMPACTS = [
    ("call_later", 1, ()), ("call_later", 2, ()), ("schedule", 50, ()),
    ("schedule", 50, ()), ("cancel", 0), ("cancel", 1), ("run", 5),
]


def execute(kernel, program, check):
    """Run ``program`` on ``kernel``; return everything observable.

    ``check`` is called after every top-level operation and at the end
    of every callback.
    """
    log = []
    handles = []
    tags = itertools.count()

    def apply(op):
        kind = op[0]
        if kind == "cancel":
            if handles:
                handles[-1 - op[1] % len(handles)].cancel()
        elif kind == "peek":
            log.append(("peek", kernel.now, kernel.peek()))
        elif kind == "run":
            kernel.run(until=kernel.now + op[1])
            log.append(("ran", kernel.now, kernel.events_processed))
        else:
            tag = next(tags)
            reaction = op[2]

            def fire():
                log.append(("fire", tag, kernel.now))
                for nested in reaction:
                    apply(nested)
                check()

            if kind in ("schedule_at", "call_at"):
                handle = getattr(kernel, kind)(kernel.now + op[1], fire)
            else:
                handle = getattr(kernel, kind)(op[1], fire)
            if handle is not None:
                handles.append(handle)

    for op in program:
        apply(op)
        check()
    kernel.run(until=kernel.now + 10_000)
    check()
    return (log, kernel.now, kernel.events_processed,
            [h.pending for h in handles])


def heap_census(sim):
    """(entries, tombstones) of ``sim``'s heap, counted by inspection."""
    tombstones = sum(
        1 for entry in sim._queue
        if isinstance(entry[2], EventHandle) and entry[2].cancelled
    )
    return len(sim._queue), tombstones


class TestCompaction:
    """Compacting the heap must be invisible except in its size."""

    @settings(max_examples=300, deadline=None)
    @example(program=_BARE_SURVIVES_COMPACTION, floor=0, watched=False)
    @example(program=_LIVE_POP_COMPACTS, floor=0, watched=False)
    @example(program=_LIVE_POP_COMPACTS, floor=0, watched=True)
    @given(
        program=st.lists(_OP, max_size=120),
        floor=st.sampled_from((0, 1, 3, engine.COMPACT_MIN_TOMBSTONES)),
        watched=st.booleans(),
    )
    def test_matches_reference_and_stays_bounded(self, program, floor,
                                                 watched):
        sim = Simulator(
            watchdog=Watchdog(max_events=10**9) if watched else None
        )

        def check():
            size, tombstones = heap_census(sim)
            assert sim._tombstones == tombstones
            live = size - tombstones
            assert size <= 2 * live + floor

        with mock.patch.object(engine, "COMPACT_MIN_TOMBSTONES", floor):
            got = execute(sim, program, check)
        want = execute(ReferenceKernel(), program, lambda: None)
        assert got == want

    @pytest.mark.parametrize("watched", [False, True])
    def test_live_pops_recheck_the_bound(self, watched):
        """Dispatching live events can leave tombstones outnumbering
        them without any further cancel; the loop must compact then."""
        sim = Simulator(
            watchdog=Watchdog(max_events=10**9) if watched else None
        )
        sizes = []
        for delay in range(1, 5):
            sim.call_later(delay, lambda: sizes.append(heap_census(sim)))
        doomed = [sim.schedule(100, lambda: None) for _ in range(4)]
        for handle in doomed:
            handle.cancel()
        with mock.patch.object(engine, "COMPACT_MIN_TOMBSTONES", 0):
            sim.run(until=50)
        assert len(sizes) == 4
        assert all(size <= 2 * (size - dead) for size, dead in sizes)
        assert heap_census(sim) == (0, 0)

    def test_cancel_counts_once_and_never_after_firing(self, sim):
        fired = sim.schedule(1, lambda: None)
        queued = sim.schedule(5, lambda: None)
        sim.run(until=2)
        fired.cancel()
        queued.cancel()
        queued.cancel()
        assert sim._tombstones == 1
        assert sim.peek() is None
        assert sim._tombstones == 0

    def test_mass_cancellation_is_compacted(self, sim):
        # Scheduled out of time order, so the filtered heap is not a
        # valid heap until it is re-heapified.
        times = [(i * 7919) % 1000 for i in range(1000)]
        order = []
        handles = {}
        for t in times:
            if t % 10 == 1:  # fire-and-forget entries must survive too
                sim.call_at(t, lambda t=t: order.append(t))
            else:
                handles[t] = sim.schedule(t, lambda t=t: order.append(t))
        for t, handle in handles.items():
            if t % 3:
                handle.cancel()
        survivors = sorted(t for t in times if t % 3 == 0 or t % 10 == 1)
        size, tombstones = heap_census(sim)
        assert size <= 2 * len(survivors) + engine.COMPACT_MIN_TOMBSTONES
        assert sim._tombstones == tombstones
        sim.run()
        assert order == survivors
        assert sim.events_processed == len(survivors)

    def test_paper_scale_run_keeps_heap_bounded(self):
        """A 64-sender TWO-FLOW 802.11 cell re-draws its sampled
        decrements on every marginal edge; without compaction the old
        draws (often far past the horizon) pile up as tombstones -- over
        10k of them after 0.5 s, with about 60 live events."""
        from repro.experiments.scenarios import (
            PROTOCOL_80211,
            ScenarioConfig,
            build_scenario,
        )
        from repro.net.topology import circle_topology

        config = ScenarioConfig(
            topology=circle_topology(64, with_interferers=True),
            protocol=PROTOCOL_80211, duration_us=500_000, seed=1,
        )
        sim, nodes, _ = build_scenario(config)
        for node in nodes:
            node.start()
        sim.run(until=config.duration_us)
        size, tombstones = heap_census(sim)
        assert size <= 2 * (size - tombstones) + engine.COMPACT_MIN_TOMBSTONES
        assert sim._tombstones == tombstones
