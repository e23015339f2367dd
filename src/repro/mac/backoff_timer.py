"""Backoff countdown with blocked-freeze and per-slot marginal sampling.

The timer implements 802.11 countdown semantics from one node's point
of view:

* it waits an interframe space (DIFS, or EIFS after a corrupted frame)
  of *unblocked* channel before counting;
* while unblocked and no marginal transmission is on the air, the
  remaining slots elapse deterministically (one completion event);
* while a marginal transmission is on the air, each slot is idle with
  probability ``1 - p`` and only idle slots decrement; the timer
  samples the gaps geometrically (one event per decrement, not per
  slot);
* when blocked (strong carrier, NAV, or the MAC is mid-exchange) the
  counter freezes *at slot boundaries* — progress inside a partial
  slot is discarded, exactly as in the standard;
* on reaching zero the owner's callback fires and the owner transmits
  unconditionally (stations are committed at the slot boundary; this
  preserves the genuine collision race between contenders whose
  counters expire on the same boundary).

The "blocked" notion is owned by the MAC, which ORs physical carrier
sense, virtual carrier sense (NAV) and its own transceiver state and
calls :meth:`set_blocked` on the edges.
"""

from __future__ import annotations

import random
from math import log
from typing import Callable, Optional

from repro.sim.engine import EventHandle, Simulator


class BackoffTimer:
    """One node's backoff engine.

    Parameters
    ----------
    sim:
        Event kernel.
    slot_us:
        Slot duration.
    rng:
        Stream for marginal-slot sampling.
    marginal_probability:
        Callable returning the current combined per-slot busy
        probability from marginally-sensed transmissions.  Read once
        per counting segment; the owner must call
        :meth:`marginal_changed` whenever the value changes.
    ifs_provider:
        Callable returning the interframe space to observe before
        (re)starting the countdown — DIFS normally, EIFS after a
        reception error.
    on_expire:
        Fired when the countdown reaches zero.
    """

    def __init__(
        self,
        sim: Simulator,
        slot_us: int,
        rng: random.Random,
        marginal_probability: Callable[[], float],
        ifs_provider: Callable[[], int],
        on_expire: Callable[[], None],
    ):
        self.sim = sim
        self.slot_us = slot_us
        self.rng = rng
        self.marginal_probability = marginal_probability
        self.ifs_provider = ifs_provider
        self.on_expire = on_expire
        self.remaining = 0
        self.active = False
        self.blocked = False
        self._state = "idle"  # idle | wait_ifs | counting | frozen
        self._handle: Optional[EventHandle] = None
        self._segment_start = 0
        self._segment_sampled = False
        #: Busy probability of the current sampled segment: constant
        #: until :meth:`marginal_changed` starts a new segment.
        self._segment_p = 0.0
        #: Lifetime slot count actually waited (for tests/metrics).
        self.slots_counted = 0

    # ------------------------------------------------------------------
    # Owner API
    # ------------------------------------------------------------------
    def start(self, slots: int) -> None:
        """Begin a countdown of ``slots`` idle slots (may be zero)."""
        if self.active:
            raise RuntimeError("timer already active")
        if slots < 0:
            raise ValueError("slots must be >= 0")
        self.remaining = slots
        self.active = True
        if self.blocked:
            self._state = "frozen"
        else:
            self._enter_wait_ifs()

    def cancel(self) -> None:
        """Abandon the countdown entirely."""
        self._cancel_handle()
        self.active = False
        self._state = "idle"

    def set_blocked(self, blocked: bool) -> None:
        """Update the channel-blocked flag (idempotent on no-change)."""
        if blocked == self.blocked:
            return
        self.blocked = blocked
        if not self.active:
            return
        if blocked:
            self._freeze()
        else:
            self._enter_wait_ifs()

    def marginal_changed(self) -> None:
        """The combined marginal busy probability changed; resegment."""
        if not self.active or self._state != "counting":
            return
        if not self._segment_sampled:
            self._account_clean_progress()
        if self.remaining == 0:
            # The countdown completes at this very timestamp; the
            # pending completion event fires later in FIFO order.
            return
        # Inlined ``_cancel_handle`` (hot: every marginal edge of a
        # counting timer); ``_begin_segment`` sets the new handle.
        if self._handle is not None:
            self._handle.cancel()
        self._begin_segment()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _enter_wait_ifs(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
        self._state = "wait_ifs"
        self._handle = self.sim.schedule(self.ifs_provider(), self._ifs_elapsed)

    def _ifs_elapsed(self) -> None:
        if self.remaining == 0:
            self._expire()
            return
        self._begin_segment()

    def _begin_segment(self) -> None:
        self._state = "counting"
        self._segment_start = self.sim.now
        if self.remaining <= 0:
            self._segment_sampled = False
            self._handle = self.sim.schedule(0, self._clean_complete)
            return
        p_busy = self.marginal_probability()
        if p_busy <= 0.0:
            self._segment_sampled = False
            self._handle = self.sim.schedule(
                self.remaining * self.slot_us, self._clean_complete
            )
        else:
            self._segment_sampled = True
            self._segment_p = p_busy
            self._schedule_sampled_decrement(p_busy)

    def _schedule_sampled_decrement(self, p_busy: float) -> None:
        if p_busy >= 1.0:
            # Every slot busy: no decrement until the marginal set
            # changes; park without an event.
            self._handle = None
            return
        # Inlined ``geometric_skip`` (hot: once per counted slot under
        # marginal interference); draws and arithmetic are identical.
        if p_busy <= 0.0:
            busy_run = 0
        else:
            u = self.rng.random()
            busy_run = int(log(u) / log(p_busy)) if u > 0.0 else 0
        delay = (busy_run + 1) * self.slot_us
        self._handle = self.sim.schedule(delay, self._sampled_decrement)

    def _sampled_decrement(self) -> None:
        self.remaining -= 1
        self.slots_counted += 1
        self._segment_start = self.sim.now
        if self.remaining == 0:
            self._expire()
            return
        # The owner reports every change of the probability through
        # :meth:`marginal_changed`, which starts a new segment, so the
        # segment's value still holds.
        self._schedule_sampled_decrement(self._segment_p)

    def _clean_complete(self) -> None:
        self.slots_counted += self.remaining
        self.remaining = 0
        self._expire()

    def _account_clean_progress(self) -> None:
        """Credit whole slots elapsed in a clean counting segment."""
        if self._segment_sampled or self._state != "counting":
            return
        elapsed_slots = (self.sim.now - self._segment_start) // self.slot_us
        credited = min(int(elapsed_slots), self.remaining)
        self.remaining -= credited
        self.slots_counted += credited

    def _freeze(self) -> None:
        handle = self._handle
        if self._state == "wait_ifs":
            # A zero-slot countdown whose IFS completes on this very
            # timestamp is already committed (same rule as the counting
            # branch below): let the pending completion fire and expire.
            if (
                self.remaining == 0
                and handle is not None
                and handle.time == self.sim.now
                and handle.pending
            ):
                self._state = "frozen"
                return
            if handle is not None:
                handle.cancel()
                self._handle = None
            self._state = "frozen"
            return
        if self._state != "counting":
            self._state = "frozen"
            return
        # A completion/decrement due at this very timestamp represents
        # a countdown that hit zero on the same slot boundary as the
        # channel became busy: the station is already committed, so we
        # let the event fire (this is what makes same-boundary
        # collisions possible).
        if (
            handle is not None
            and handle.time == self.sim.now
            and handle.pending
            and self._would_expire_now()
        ):
            self._state = "frozen"
            return
        self._account_clean_progress()
        if handle is not None:
            handle.cancel()
            self._handle = None
        self._state = "frozen"

    def _would_expire_now(self) -> bool:
        if not self._segment_sampled:
            return True  # clean completion event means remaining -> 0
        return self.remaining == 1

    def _expire(self) -> None:
        self._cancel_handle()
        self.active = False
        self._state = "idle"
        self.on_expire()

    def _cancel_handle(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BackoffTimer(state={self._state}, remaining={self.remaining}, "
            f"blocked={self.blocked})"
        )
