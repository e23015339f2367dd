"""IEEE 802.11 DCF MAC state machine (sender + responder roles).

:class:`DcfMac` implements the standard Distributed Coordination
Function over the probabilistic medium: DIFS/EIFS deference, random
backoff with binary-exponential contention windows, the four-way
RTS/CTS/DATA/ACK exchange, NAV-based virtual carrier sense, CTS/ACK
timeouts, and retry limits.  A node plays both roles: its *sender*
half drains a traffic source toward a destination; its *responder*
half answers RTS/DATA addressed to it.

The paper's modified protocol (:class:`repro.mac.correct.CorrectMac`)
subclasses this and overrides a small set of hooks: how initial and
retry backoffs are chosen, what extra fields CTS/ACK carry, and what
receiver-side monitoring happens around each exchange.

Misbehavior is injected through a
:class:`~repro.core.sender_policy.ConformingPolicy`-style policy
object: the MAC asks it how many of the nominal backoff slots to
actually count and what attempt number to advertise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.sender_policy import ConformingPolicy
from repro.mac.backoff_timer import BackoffTimer
from repro.mac.frames import Frame, FrameKind, ack_size, cts_size, data_size, rts_size
from repro.mac.timing import ExchangeTiming, exchange_timing
from repro.phy.constants import PhyTimings, SHORT_RETRY_LIMIT
from repro.phy.medium import Medium
from repro.phy.sensing import IdleSlotCounter
from repro.sim.engine import EventHandle, Simulator
from repro.sim.rng import RngRegistry, binomial


@dataclass
class _Exchange:
    """Sender-side state for the packet currently being delivered."""

    dst: int
    seq: int
    payload_bytes: int
    attempt: int = 1
    started_us: int = 0


@dataclass
class _Responder:
    """Responder-side state for the exchange currently being answered."""

    src: int
    attempt: int
    assignment: int = -1
    diagnosed: bool = False
    timeout: Optional[EventHandle] = None
    extra: dict = field(default_factory=dict)


class DcfMac:
    """One node's MAC instance.

    Parameters
    ----------
    sim / medium:
        Kernel and channel.
    node_id:
        Unique integer identity (also used by the deterministic
        function ``f`` under the modified protocol).
    rng_registry:
        Source of this node's random streams.
    collector:
        Metrics sink (see :mod:`repro.metrics.collector`).
    payload_bytes:
        DATA payload size for flows this node terminates (used for
        responder-side timeout budgets as well).
    policy:
        Sender (mis)behaviour policy.
    timings:
        PHY timing bundle.
    retry_limit:
        Attempts per packet before the packet is dropped.
    use_rts_cts:
        True (default) runs the four-way RTS/CTS/DATA/ACK exchange the
        paper evaluates; False runs basic access (DATA/ACK), which the
        paper notes the scheme also supports — the attempt number then
        travels in the DATA header and the assignment in the ACK.
    """

    #: Whether frames carry the CORRECT protocol extension fields.
    modified_protocol = False
    #: Whether this MAC reads its cumulative idle-slot count.  Only
    #: then does it build an :class:`IdleSlotCounter` (on its own
    #: ``idle/<node>`` stream) and feed it on every channel edge.
    counts_idle_slots = False

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        node_id: int,
        rng_registry: RngRegistry,
        collector,
        payload_bytes: int = 512,
        policy: Optional[ConformingPolicy] = None,
        timings: Optional[PhyTimings] = None,
        retry_limit: int = SHORT_RETRY_LIMIT,
        use_rts_cts: bool = True,
    ):
        self.sim = sim
        self.medium = medium
        self.node_id = node_id
        self.collector = collector
        self.payload_bytes = payload_bytes
        self.policy = policy if policy is not None else ConformingPolicy()
        self.timings = timings if timings is not None else medium.timings
        self.retry_limit = retry_limit
        self.use_rts_cts = use_rts_cts
        #: Basic-access duplicate detection: sender -> last ACKed seq.
        self._last_acked_seq: Dict[int, int] = {}
        self.rng = rng_registry.stream(f"mac/{node_id}")
        #: Cached combined marginal busy probability.  A MAC with an
        #: idle-slot counter refreshes it on every marginal edge (the
        #: counter needs it there); otherwise an edge only marks it
        #: stale and :meth:`_marginal_probability` recomputes it when
        #: the timer next reads it.
        self._p_busy = 0.0
        self._p_stale = False
        self.timer = BackoffTimer(
            sim,
            self.timings.slot_us,
            rng_registry.stream(f"sense/{node_id}"),
            self._marginal_probability,
            self._current_ifs,
            self._on_backoff_expired,
        )
        self.idle_counter: Optional[IdleSlotCounter] = (
            IdleSlotCounter(
                self.timings.slot_us,
                rng_registry.stream(f"idle/{node_id}"),
                difs_us=self.timings.difs_us,
            ) if self.counts_idle_slots else None
        )
        self.exchange_timing = exchange_timing(
            self.timings, payload_bytes, self.modified_protocol
        )
        self.source = None  # attached via attach_source()
        self._state = "idle"  # idle | backoff | await_cts | send_data | await_ack
        self._current: Optional[_Exchange] = None
        self._timeout: Optional[EventHandle] = None
        self._responder: Optional[_Responder] = None
        self._responding = False
        self._nav_until = 0
        self._nav_handle: Optional[EventHandle] = None
        self._pending_eifs = False
        self._seq = 0
        self._crashed = False
        #: Cached medium-side listener state (strong count, marginal
        #: set).  Resolved lazily on first use: the MAC is registered
        #: on the medium only after construction.
        self._mstate = None
        #: Effective slot count of the countdown currently (or last)
        #: started; recorded by backoff tracing only.
        self._backoff_slots = 0
        #: Lifetime counters (observability / tests).
        self.rts_sent = 0
        self.packets_delivered = 0
        self.packets_dropped = 0
        self.crashes = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_source(self, source) -> None:
        """Connect a traffic source; it may call :meth:`wake`."""
        self.source = source

    def start(self) -> None:
        """Begin draining the source (call once at simulation start)."""
        self._try_dequeue()

    def wake(self) -> None:
        """Source signal: a packet became available."""
        if self._crashed:
            return
        if self._state == "idle":
            self._try_dequeue()

    # ------------------------------------------------------------------
    # Crash / restart (driven by repro.faults.NodeCrashFault)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose all volatile MAC state, as a reboot would.

        The in-flight exchange (the packet is lost without a drop
        callback — the node never learns its fate), pending timeouts,
        the responder role, the NAV and the backoff countdown all
        vanish.  A frame already on the air finishes transmitting: the
        model's granularity is one frame.  Channel-sense bookkeeping
        (busy/idle edge counting) deliberately keeps running so the
        medium's accounting stays balanced across the outage.
        """
        if self._crashed:
            return
        trace = self.medium.trace
        if trace is not None:
            trace.record(self.sim.now, "mac_crash", self.node_id)
        self._crashed = True
        self.crashes += 1
        self.timer.cancel()
        self._cancel_timeout()
        self._clear_responder()
        self._current = None
        self._set_state("idle")
        self._nav_until = 0
        if self._nav_handle is not None:
            self._nav_handle.cancel()
            self._nav_handle = None
        self._pending_eifs = False

    def restart(self) -> None:
        """Rejoin after a crash: fresh DIFS deference, resume draining."""
        if not self._crashed:
            return
        trace = self.medium.trace
        if trace is not None:
            trace.record(self.sim.now, "mac_restart", self.node_id)
        self._crashed = False
        if self.idle_counter is not None:
            self.idle_counter.resync(self.sim.now)
        self._update_blocked()
        self._try_dequeue()

    # ------------------------------------------------------------------
    # Medium listener interface
    # ------------------------------------------------------------------
    def on_channel_busy(self) -> None:
        # Fused hot path: this is the most frequent callback in a
        # saturated cell (one per strongly-sensing listener per
        # transmission), so the ``IdleSlotCounter.set_strong(True)``
        # and ``set_blocked(True)`` chains are inlined — semantics are
        # identical, the per-edge call depth is not.
        ic = self.idle_counter
        if ic is not None:
            now = self.sim.now
            ic._last_now = now
            if not ic._strong:
                cursor = ic._cursor
                if now > cursor:
                    whole = (now - cursor) // ic.slot_us
                    if whole > 0:
                        p = ic._marginal_p
                        if p <= 0.0:
                            ic._slots += whole
                        elif p < 1.0:
                            ic._slots += whole - binomial(ic.rng, whole, p)
                ic._strong = True
            ic._cursor = now
        # A strong-busy edge always blocks the timer, whatever the NAV
        # or responder state says.
        timer = self.timer
        if not timer.blocked:
            timer.blocked = True
            if timer.active:
                timer._freeze()

    def on_channel_idle(self) -> None:
        # The counter's deference mirrors what a conforming sender's
        # backoff logic will do next: EIFS after a reception error,
        # DIFS otherwise.  Fused like :meth:`on_channel_busy`.
        difs = self.timings.difs_us
        ifs = self.timings.eifs_us if self._pending_eifs else difs
        trace = self.medium.trace
        if trace is not None and (self._pending_eifs or ifs != difs):
            # Idle edges are the most frequent MAC event, so only the
            # informative ones are recorded: a plain DIFS deference
            # with no EIFS debt tells the checker nothing.  Either a
            # pending error or a non-DIFS choice records, so deferring
            # EIFS without cause is caught here, and clearing the debt
            # too early is caught at the next (always-recorded) "ifs".
            trace.record(self.sim.now, "defer", self.node_id, ifs_us=ifs)
        now = self.sim.now
        ic = self.idle_counter
        if ic is not None:
            # set_strong(False): while strong no slots accrued, the clock
            # realigns at the edge and counting resumes an IFS later.
            ic._last_now = now
            ic._strong = False
            ic._cursor = now + ifs
        blocked = now < self._nav_until or self._responding
        timer = self.timer
        if blocked != timer.blocked:
            timer.set_blocked(blocked)

    def on_marginal_change(self) -> None:
        self._p_stale = True
        ic = self.idle_counter
        if ic is None:
            # Nothing reads the probability at this edge unless the
            # timer is counting, and its read recomputes it.
            timer = self.timer
            if timer._state == "counting" and timer.active:
                timer.marginal_changed()
            return
        p = self._marginal_probability()
        # Inlined ``set_marginal_probability`` + ``advance``: a product
        # of values in [0, 1] stays in [0, 1] so the range check cannot
        # fire, and ``now`` comes off the (monotonic) kernel clock so
        # the backwards-clock guard cannot fire either.
        now = self.sim.now
        cursor = ic._cursor
        if not ic._strong:
            if now > cursor:
                whole = (now - cursor) // ic.slot_us
                if whole > 0:
                    op = ic._marginal_p
                    if op <= 0.0:
                        ic._slots += whole
                    elif op < 1.0:
                        ic._slots += whole - binomial(ic.rng, whole, op)
                    ic._cursor = cursor + whole * ic.slot_us
        elif now > cursor:
            ic._cursor = now
        ic._last_now = now
        ic._marginal_p = p
        timer = self.timer
        if timer._state == "counting" and timer.active:
            timer.marginal_changed()

    def _marginal_probability(self) -> float:
        """The combined marginal busy probability, ``1 - prod(1 - p)``
        over the medium's marginal set for this node (in the set's
        order), recomputed only after a marginal edge."""
        if self._p_stale:
            state = self._mstate
            if state is None:
                state = self._mstate = self.medium._states[self.node_id]
            product = 1.0
            for q in state.marginal.values():
                product *= 1.0 - q
            self._p_busy = 1.0 - product
            self._p_stale = False
        return self._p_busy

    def on_frame_corrupted(self) -> None:
        if self._crashed:
            return
        self._pending_eifs = True

    def on_frame(self, frame: Frame) -> None:
        if self._crashed:
            return
        self._pending_eifs = False
        if frame.dst != self.node_id:
            self._set_nav(frame)
            return
        if frame.kind is FrameKind.RTS:
            self._handle_rts(frame)
        elif frame.kind is FrameKind.CTS:
            self._handle_cts(frame)
        elif frame.kind is FrameKind.DATA:
            self._handle_data(frame)
        elif frame.kind is FrameKind.ACK:
            self._handle_ack(frame)

    # ------------------------------------------------------------------
    # Carrier sense aggregation
    # ------------------------------------------------------------------
    def _update_blocked(self) -> None:
        state = self._mstate
        if state is None:
            state = self._mstate = self.medium._states[self.node_id]
        blocked = (
            state.strong_count > 0
            or self.sim.now < self._nav_until
            or self._responding
        )
        timer = self.timer
        if blocked != timer.blocked:
            timer.set_blocked(blocked)

    def _current_ifs(self) -> int:
        if self._pending_eifs:
            self._pending_eifs = False
            ifs = self.timings.eifs_us
        else:
            ifs = self.timings.difs_us
        trace = self.medium.trace
        if trace is not None:
            trace.record(self.sim.now, "ifs", self.node_id, ifs_us=ifs)
        return ifs

    def _set_state(self, state: str) -> None:
        trace = self.medium.trace
        if trace is not None and state != self._state:
            trace.record(self.sim.now, "mac_state", self.node_id,
                         frm=self._state, to=state)
        self._state = state

    def _set_nav(self, frame: Frame) -> None:
        if frame.duration_us <= 0:
            return
        until = self.sim.now + frame.duration_us
        if until <= self._nav_until:
            return
        self._nav_until = until
        if self._nav_handle is not None:
            self._nav_handle.cancel()
        self._nav_handle = self.sim.schedule_at(until, self._update_blocked)
        # ``now < until``: the NAV alone blocks the timer.
        timer = self.timer
        if not timer.blocked:
            timer.set_blocked(True)

    # ------------------------------------------------------------------
    # Sender half
    # ------------------------------------------------------------------
    def _try_dequeue(self) -> None:
        if self._crashed or self._state != "idle" or self.source is None:
            return
        packet = self.source.next_packet(self.sim.now)
        if packet is None:
            return
        self._seq += 1
        self._current = _Exchange(
            dst=packet.dst, seq=self._seq,
            payload_bytes=packet.payload_bytes,
            started_us=min(packet.created_us, self.sim.now),
        )
        self._begin_backoff(self._initial_backoff(packet.dst))

    def _begin_backoff(self, nominal_slots: int) -> None:
        effective = self.policy.effective_countdown(nominal_slots)
        trace = self.medium.trace
        if trace is not None:
            ex = self._current
            trace.record(
                self.sim.now, "backoff_start", self.node_id,
                nominal=nominal_slots, effective=effective,
                dst=ex.dst if ex is not None else -1,
                stage=ex.attempt if ex is not None else 1,
                slot_us=self.timings.slot_us,
                modified=self.modified_protocol,
            )
            self._backoff_slots = effective
        self._set_state("backoff")
        self.timer.start(effective)

    def _on_backoff_expired(self) -> None:
        trace = self.medium.trace
        if trace is not None:
            trace.record(self.sim.now, "backoff_commit", self.node_id,
                         slots=self._backoff_slots)
        if self.use_rts_cts:
            self._transmit_rts()
        else:
            self._transmit_data_direct()

    def _sender_timing(self) -> ExchangeTiming:
        ex = self._current
        if ex is None or ex.payload_bytes == self.payload_bytes:
            return self.exchange_timing
        return exchange_timing(self.timings, ex.payload_bytes,
                               self.modified_protocol)

    def _transmit_rts(self) -> None:
        ex = self._current
        if ex is None:  # crashed between schedule and fire
            return
        et = self._sender_timing()
        frame = Frame(
            kind=FrameKind.RTS,
            src=self.node_id,
            dst=ex.dst,
            size_bytes=rts_size(self.modified_protocol),
            duration_us=et.rts_nav,
            seq=ex.seq,
            attempt=self.policy.reported_attempt(ex.attempt),
        )
        self.medium.start_transmission(
            self.node_id, self._outbound(frame), et.rts_airtime
        )
        self.rts_sent += 1
        self._set_state("await_cts")
        self._timeout = self.sim.schedule(
            et.rts_airtime + et.cts_timeout, self._on_timeout
        )

    def _transmit_data_direct(self) -> None:
        """Basic access: send DATA straight after the backoff."""
        ex = self._current
        if ex is None:  # crashed between schedule and fire
            return
        et = self._sender_timing()
        frame = Frame(
            kind=FrameKind.DATA,
            src=self.node_id,
            dst=ex.dst,
            size_bytes=data_size(ex.payload_bytes),
            duration_us=et.data_nav,
            seq=ex.seq,
            attempt=self.policy.reported_attempt(ex.attempt),
            payload_bytes=ex.payload_bytes,
        )
        self.medium.start_transmission(
            self.node_id, self._outbound(frame), et.data_airtime
        )
        self._set_state("await_ack")
        self._timeout = self.sim.schedule(
            et.data_airtime + et.ack_timeout, self._on_timeout
        )

    def _handle_cts(self, frame: Frame) -> None:
        ex = self._current
        if self._state != "await_cts" or ex is None or frame.src != ex.dst:
            return
        self._cancel_timeout()
        self._note_assignment(frame)
        self._set_state("send_data")
        self.sim.schedule(self.timings.sifs_us, self._transmit_data)

    def _transmit_data(self) -> None:
        ex = self._current
        if ex is None:  # crashed between schedule and fire
            return
        et = self._sender_timing()
        frame = Frame(
            kind=FrameKind.DATA,
            src=self.node_id,
            dst=ex.dst,
            size_bytes=data_size(ex.payload_bytes),
            duration_us=et.data_nav,
            seq=ex.seq,
            payload_bytes=ex.payload_bytes,
        )
        self.medium.start_transmission(
            self.node_id, self._outbound(frame), et.data_airtime
        )
        self._set_state("await_ack")
        self._timeout = self.sim.schedule(
            et.data_airtime + et.ack_timeout, self._on_timeout
        )

    def _handle_ack(self, frame: Frame) -> None:
        ex = self._current
        if self._state != "await_ack" or ex is None or frame.src != ex.dst:
            return
        self._cancel_timeout()
        self._note_assignment(frame)
        self.packets_delivered += 1
        self.collector.on_sender_success(
            self.node_id, ex.dst, ex.attempt, self.sim.now,
            delay_us=self.sim.now - ex.started_us,
        )
        if self.source is not None:
            self.source.packet_done(self.sim.now)
        self._finish_exchange()

    def _on_timeout(self) -> None:
        ex = self._current
        if ex is None:  # crashed between schedule and fire
            return
        self._timeout = None
        ex.attempt += 1
        if ex.attempt > self.retry_limit:
            self.packets_dropped += 1
            self.collector.on_sender_drop(self.node_id, ex.dst, self.sim.now)
            if self.source is not None:
                self.source.packet_done(self.sim.now)
            self._finish_exchange()
            return
        self._begin_backoff(self._retry_backoff(ex.dst, ex.attempt))

    def _finish_exchange(self) -> None:
        self._current = None
        self._set_state("idle")
        self._try_dequeue()

    def _cancel_timeout(self) -> None:
        if self._timeout is not None:
            self._timeout.cancel()
            self._timeout = None

    # ------------------------------------------------------------------
    # Responder half
    # ------------------------------------------------------------------
    def _handle_rts(self, frame: Frame) -> None:
        if self._responding:
            resp = self._responder
            # A retried RTS from the same sender while we await its
            # DATA means our CTS was lost; restart the response.
            if resp is not None and resp.src == frame.src and resp.timeout is not None:
                self._clear_responder()
            else:
                return
        if self._state in ("await_cts", "send_data", "await_ack"):
            return
        if self.sim.now < self._nav_until:
            return  # the standard forbids answering RTS under NAV
        response = self._make_cts_response(frame)
        if response is None:
            return
        self._responding = True
        self._responder = response
        self._update_blocked()
        self.sim.schedule(self.timings.sifs_us, self._transmit_cts)

    def _transmit_cts(self) -> None:
        resp = self._responder
        if resp is None:  # crashed between schedule and fire
            return
        et = self.exchange_timing
        frame = Frame(
            kind=FrameKind.CTS,
            src=self.node_id,
            dst=resp.src,
            size_bytes=cts_size(self.modified_protocol),
            duration_us=et.cts_nav,
            assigned_backoff=resp.assignment,
        )
        self.medium.start_transmission(
            self.node_id, self._outbound(frame), et.cts_airtime
        )
        self.sim.schedule(et.cts_airtime, self._after_cts)

    def _after_cts(self) -> None:
        resp = self._responder
        if resp is None:
            return
        self._on_response_sent("cts", resp)
        resp.timeout = self.sim.schedule(
            self.exchange_timing.data_timeout, self._responder_timeout
        )

    def _handle_data(self, frame: Frame) -> None:
        resp = self._responder
        if self._responding and resp is not None and frame.src == resp.src:
            # RTS/CTS mode: the DATA we cleared with our CTS.
            if resp.timeout is not None:
                resp.timeout.cancel()
                resp.timeout = None
            self.collector.on_delivery(
                src=frame.src,
                dst=self.node_id,
                payload_bytes=frame.payload_bytes,
                time=self.sim.now,
                diagnosed=resp.diagnosed,
            )
            self.sim.schedule(self.timings.sifs_us, self._transmit_ack)
            return
        if self.use_rts_cts:
            return
        # Basic access: an unsolicited DATA initiates the response.
        if self._responding or self._state in (
            "await_cts", "send_data", "await_ack"
        ):
            return
        if self.sim.now < self._nav_until:
            return
        duplicate = self._last_acked_seq.get(frame.src) == frame.seq
        response = self._make_data_response(frame, duplicate)
        if response is None:
            return
        self._responding = True
        self._responder = response
        self._update_blocked()
        if not duplicate:
            self._last_acked_seq[frame.src] = frame.seq
            self.collector.on_delivery(
                src=frame.src,
                dst=self.node_id,
                payload_bytes=frame.payload_bytes,
                time=self.sim.now,
                diagnosed=response.diagnosed,
            )
        self.sim.schedule(self.timings.sifs_us, self._transmit_ack)

    def _transmit_ack(self) -> None:
        resp = self._responder
        if resp is None:  # crashed between schedule and fire
            return
        et = self.exchange_timing
        frame = Frame(
            kind=FrameKind.ACK,
            src=self.node_id,
            dst=resp.src,
            size_bytes=ack_size(self.modified_protocol),
            duration_us=0,
            assigned_backoff=resp.assignment,
        )
        self.medium.start_transmission(
            self.node_id, self._outbound(frame), et.ack_airtime
        )
        self.sim.schedule(et.ack_airtime, self._after_ack)

    def _after_ack(self) -> None:
        resp = self._responder
        if resp is None:
            return
        # A duplicate-DATA re-ACK leaves the sender retrying the same
        # packet if this ACK is lost again, so the monitor's reference
        # must expect stage attempt+1 next ("cts" semantics) rather
        # than a fresh packet.
        kind = "cts" if resp.extra.get("duplicate") else "ack"
        self._on_response_sent(kind, resp)
        self._clear_responder()

    def _responder_timeout(self) -> None:
        self._clear_responder()

    def _clear_responder(self) -> None:
        resp = self._responder
        if resp is not None and resp.timeout is not None:
            resp.timeout.cancel()
        self._responder = None
        self._responding = False
        self._update_blocked()

    # ------------------------------------------------------------------
    # Protocol hooks (overridden by the CORRECT MAC)
    # ------------------------------------------------------------------
    def _initial_backoff(self, dst: int) -> int:
        """Backoff for a packet's first attempt (802.11: uniform [0, CWmin])."""
        cw = self.policy.next_contention_window(
            1, self.timings.cw_min, self.timings.cw_max
        )
        return self.policy.select_backoff(self.rng, cw)

    def _retry_backoff(self, dst: int, attempt: int) -> int:
        """Backoff after a failed attempt (802.11: uniform from doubled CW)."""
        cw = self.policy.next_contention_window(
            attempt, self.timings.cw_min, self.timings.cw_max
        )
        return self.policy.select_backoff(self.rng, cw)

    def _outbound(self, frame: Frame) -> Frame:
        """Last-touch hook on every frame this node puts on the air.

        The default is the identity; the spoofing adversary rewrites
        the source address here.
        """
        return frame

    def _make_cts_response(self, rts: Frame) -> Optional[_Responder]:
        """Decide whether/how to answer an RTS; None means stay silent."""
        return _Responder(src=rts.src, attempt=rts.attempt)

    def _make_data_response(
        self, data: Frame, duplicate: bool
    ) -> Optional[_Responder]:
        """Basic access: decide whether/how to ACK an unsolicited DATA."""
        resp = _Responder(src=data.src, attempt=data.attempt)
        resp.extra["duplicate"] = duplicate
        return resp

    def _on_response_sent(self, kind: str, resp: _Responder) -> None:
        """Called when a CTS/ACK to ``resp.src`` finished transmitting."""

    def _note_assignment(self, frame: Frame) -> None:
        """Called on CTS/ACK from our receiver (CORRECT stores it)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DcfMac(node={self.node_id}, state={self._state})"
