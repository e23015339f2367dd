"""Shared wireless medium with shadowing-derived probabilistic links.

The medium tracks every in-flight transmission and tells each
registered listener (a MAC instance) how the channel looks *from its
own position* — the whole point of the paper's evaluation is that the
sender's and receiver's channel views diverge.

For a listener L and a transmission from S, the link is classified by
its carrier-sense probability (:meth:`LinkProbabilities.classify`):

* ``strong``   — L deterministically senses the transmission.  The
  medium raises ``on_channel_busy`` / ``on_channel_idle`` edges, which
  freeze backoff timers and idle-slot counters.
* ``marginal`` — L senses each *slot* of the transmission
  independently with probability ``p``.  The medium only reports that
  the marginal set changed; per-slot sampling is done lazily by the
  consumers (geometric skips in the backoff timer, binomial counts in
  the idle-slot counter) so no per-slot events exist.
* ``negligible`` — ignored entirely.

A node's own transmission is "strong" for itself, which both freezes
its idle counter and models half-duplex deafness.

Frame delivery happens at transmission end: the frame is decoded by L
when (a) the shadowing draw clears the reception threshold, (b) L was
not transmitting during any overlap, and (c) the frame *captures* over
every overlapping transmission — survival against interferer I is a
Bernoulli with probability ``Phi((gain_S - gain_I - capture_db) /
(sigma*sqrt(2)))``, the probability that the power ratio of two
shadowed signals exceeds the capture threshold.  ns-2 (the paper's
substrate) uses the same 10 dB capture rule.

Link, sensing and capture probabilities depend only on node positions
and the shadowing model, never on the seed.  They live in
:class:`Geometry` objects shared process-wide through a small LRU
table (:func:`geometry_for`), so the seeds of one data point -- which
the paper runs on identical positions -- compute them once.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

from repro.phy.constants import PhyTimings
from repro.phy.propagation import LinkProbabilities, ShadowingModel, distance, normal_cdf

#: Capture threshold (dB): a frame survives interference when its
#: received power exceeds the interferer's by at least this much.
CAPTURE_THRESHOLD_DB = 10.0

#: Distinct topologies whose geometry the process keeps (LRU).  The
#: fig6/fig7 planner emits scenario -> protocol -> size with seeds
#: innermost, so its 8 topologies are each built once per process.
GEOMETRY_TABLE_SIZE = 8


class Geometry:
    """Seed-independent link geometry of one topology.

    A pure function of the shadowing model and the registered
    ``(node_id, position)`` sequence, so every run on the same
    positions shares one instance (see :func:`geometry_for`).  Tables
    fill lazily, and a value once computed never changes.
    """

    __slots__ = ("model", "positions", "_links", "_captures", "_partitions")

    def __init__(self, model: ShadowingModel, nodes: tuple):
        self.model = model
        #: node_id -> position, in registration order.
        self.positions: Dict[int, Tuple[float, float]] = dict(nodes)
        self._links: Dict[Tuple[int, int], LinkProbabilities] = {}
        self._captures: Dict[Tuple[int, int], "_CaptureRow"] = {}
        self._partitions: Dict[int, tuple] = {}

    def link(self, src: int, dst: int) -> LinkProbabilities:
        """Link probabilities from ``src`` to ``dst``."""
        key = (src, dst)
        cached = self._links.get(key)
        if cached is None:
            if src == dst:
                cached = LinkProbabilities(distance_m=0.0, receive=1.0, sense=1.0)
            else:
                d = distance(self.positions[src], self.positions[dst])
                cached = self.model.link(max(d, 1e-6))
            self._links[key] = cached
        return cached

    def partition(self, src: int) -> tuple:
        """Listener partition for transmissions from ``src``.

        Returns ``(notify_ids, notify_ps, deliver)``: ``notify_ids``
        are the strongly and marginally sensing nodes (the source
        itself is "strong" -- half-duplex deafness), ``notify_ps`` the
        matching per-slot sense probabilities (``None`` for strong),
        and ``deliver`` is ``((node_id, receive, sense), ...)`` over
        the other nodes with a non-negligible receive or sense
        probability.  All three keep registration order, so callbacks
        fire exactly as they would from a per-listener classification
        sweep.
        """
        partition = self._partitions.get(src)
        if partition is None:
            eps = LinkProbabilities.EPS
            notify_ids = []
            notify_ps = []
            deliver = []
            for node_id in self.positions:
                if node_id == src:
                    notify_ids.append(node_id)
                    notify_ps.append(None)
                    continue
                link = self.link(src, node_id)
                cls = link.classify()
                if cls == "strong":
                    notify_ids.append(node_id)
                    notify_ps.append(None)
                elif cls == "marginal":
                    notify_ids.append(node_id)
                    notify_ps.append(link.sense)
                if link.receive > eps or link.sense > eps:
                    deliver.append((node_id, link.receive, link.sense))
            partition = (tuple(notify_ids), tuple(notify_ps), tuple(deliver))
            self._partitions[src] = partition
        return partition

    def capture_probability(self, src: int, interferer: int, at: int) -> float:
        """P(src's signal exceeds interferer's by the capture margin at node).

        Both signals carry independent shadowing, so their dB
        difference is Gaussian with std ``sigma*sqrt(2)`` around the
        difference of mean path gains.
        """
        return self.capture_row(src, interferer)[at]

    def capture_row(self, src: int, interferer: int) -> "_CaptureRow":
        """:meth:`capture_probability` of one (src, interferer) pair as
        a mapping from listener node id, filled on first lookup."""
        key = (src, interferer)
        row = self._captures.get(key)
        if row is None:
            row = self._captures[key] = _CaptureRow(
                self.model, self.positions, src, interferer
            )
        return row


class _CaptureRow(dict):
    """Capture probabilities of one (src, interferer) pair by listener.

    Holds the geometry's model and positions, not the geometry itself,
    so an evicted geometry is freed by reference counting.
    """

    __slots__ = ("model", "positions", "src", "interferer")

    def __init__(self, model: ShadowingModel, positions: Dict, src: int,
                 interferer: int):
        super().__init__()
        self.model = model
        self.positions = positions
        self.src = src
        self.interferer = interferer

    def __missing__(self, at: int) -> float:
        positions = self.positions
        model = self.model
        d_src = max(distance(positions[self.src], positions[at]), 1e-6)
        d_int = max(distance(positions[self.interferer], positions[at]), 1e-6)
        mean_margin = (
            model.mean_path_gain_db(d_src)
            - model.mean_path_gain_db(d_int)
            - CAPTURE_THRESHOLD_DB
        )
        sigma = model.sigma_db * math.sqrt(2.0)
        if sigma == 0.0:
            probability = 1.0 if mean_margin >= 0.0 else 0.0
        else:
            probability = normal_cdf(mean_margin / sigma)
        self[at] = probability
        return probability


#: key -> Geometry, least recently used first; key is
#: ``(model, ((node_id, position), ...))`` in registration order.
_GEOMETRY_TABLE: "OrderedDict[tuple, Geometry]" = OrderedDict()
_GEOMETRY_LOCK = threading.Lock()


def geometry_for(model: ShadowingModel, nodes: tuple) -> Geometry:
    """The shared :class:`Geometry` of ``nodes`` under ``model``.

    ``nodes`` is ``((node_id, position), ...)`` in registration order.
    Keeps the :data:`GEOMETRY_TABLE_SIZE` most recently used entries.
    """
    key = (model, nodes)
    with _GEOMETRY_LOCK:
        geometry = _GEOMETRY_TABLE.get(key)
        if geometry is None:
            geometry = _GEOMETRY_TABLE[key] = Geometry(model, nodes)
            if len(_GEOMETRY_TABLE) > GEOMETRY_TABLE_SIZE:
                _GEOMETRY_TABLE.popitem(last=False)
        else:
            _GEOMETRY_TABLE.move_to_end(key)
    return geometry


class MediumListener(Protocol):
    """Interface a MAC must implement to attach to the medium."""

    node_id: int

    def on_channel_busy(self) -> None:
        """A strongly-sensed transmission began (count 0 -> 1)."""

    def on_channel_idle(self) -> None:
        """The last strongly-sensed transmission ended (count 1 -> 0)."""

    def on_marginal_change(self) -> None:
        """The set of marginally-sensed transmissions changed."""

    def on_frame(self, frame: object) -> None:
        """A frame was successfully decoded (any destination)."""

    def on_frame_corrupted(self) -> None:
        """A sensed frame failed to decode (triggers EIFS deference)."""


@dataclass
class Transmission:
    """One in-flight (or completed) frame on the air."""

    src: int
    frame: object
    start: int
    end: int
    #: Transmissions whose airtime overlapped this one at any point;
    #: emptied once the frame is delivered, so finished transmissions
    #: form no reference cycles and are freed by refcount.
    overlaps: List["Transmission"] = field(default_factory=list)
    #: True when a jamming burst overlapped the airtime (decode fails).
    jammed: bool = False
    #: The source's listener view (see ``Medium._source_view``),
    #: frozen at transmission start so that busy-count bookkeeping
    #: stays balanced even if node positions change mid-flight
    #: (mobility support).
    view: Optional[tuple] = None


@dataclass
class _ListenerState:
    """Per-listener channel bookkeeping."""

    listener: MediumListener
    position: Tuple[float, float]
    strong_count: int = 0
    #: Active marginally-sensed transmissions: id(tx) -> p_sense.
    marginal: Dict[int, float] = field(default_factory=dict)


class Medium:
    """The shared channel; see module docstring for the model.

    Parameters
    ----------
    sim:
        The event kernel (supplies the clock and scheduling).
    model:
        Shadowing propagation model (paper calibration by default).
    rng:
        Random stream for shadowing draws (reception, capture and the
        consumers' per-slot sensing all derive from this registry's
        streams).
    timings:
        PHY timing bundle (for airtime computation by callers).
    """

    def __init__(self, sim, model: Optional[ShadowingModel] = None,
                 rng=None, timings: Optional[PhyTimings] = None):
        self.sim = sim
        self.model = model if model is not None else ShadowingModel()
        self.timings = timings if timings is not None else PhyTimings()
        if rng is None:
            raise ValueError("Medium requires a random stream (rng)")
        self.rng = rng
        self._states: Dict[int, _ListenerState] = {}
        self._active: List[Transmission] = []
        #: The shared geometry of the registered positions; ``None``
        #: until the first lookup after a register / move binds it.
        self._geometry: Optional[Geometry] = None
        #: Per-source views: the geometry's partitions mapped onto
        #: this run's listener states (see :meth:`_source_view`).
        self._src_views: Dict[int, tuple] = {}
        #: Optional structured event log (repro.sim.trace.TraceLog);
        #: None disables tracing entirely.
        self.trace = None
        #: Optional fault hook (repro.faults.FaultInjector); consulted
        #: in _deliver for frames that would otherwise decode.  None
        #: (the default) costs one attribute check per delivery.
        self.fault_hooks = None
        #: Nesting depth of active jamming bursts.
        self._jam_depth = 0
        #: Lifetime counters (observability / tests).
        self.transmissions_started = 0
        self.frames_decoded = 0
        self.frames_corrupted = 0
        self.frames_fault_dropped = 0
        self.jam_bursts = 0

    # ------------------------------------------------------------------
    # Registration and link geometry
    # ------------------------------------------------------------------
    def register(self, listener: MediumListener, position: Tuple[float, float]) -> None:
        """Attach a listener at a fixed position."""
        if listener.node_id in self._states:
            raise ValueError(f"node {listener.node_id} already registered")
        self._states[listener.node_id] = _ListenerState(listener, position)
        self._unbind()

    def _unbind(self) -> None:
        """Forget the geometry binding (new node or node moved)."""
        self._geometry = None
        self._src_views.clear()

    def _bound_geometry(self) -> Geometry:
        """The shared geometry of the current positions (binding it)."""
        geometry = self._geometry
        if geometry is None:
            nodes = tuple(
                (node_id, state.position)
                for node_id, state in self._states.items()
            )
            self._geometry = geometry = geometry_for(self.model, nodes)
        return geometry

    def _source_view(self, src: int) -> tuple:
        """Frozen listener view for transmissions from ``src``.

        Returns ``(geometry, notify_states, notify_ps, deliver,
        deliver_states)``: the geometry's :meth:`Geometry.partition`
        with each node id mapped onto this run's listener state.
        """
        view = self._src_views.get(src)
        if view is None:
            geometry = self._bound_geometry()
            notify_ids, notify_ps, deliver = geometry.partition(src)
            states = self._states
            view = (
                geometry,
                [states[node_id] for node_id in notify_ids],
                notify_ps,
                deliver,
                [states[node_id] for node_id, _, _ in deliver],
            )
            self._src_views[src] = view
        return view

    def link(self, src: int, dst: int) -> LinkProbabilities:
        """Link probabilities between two registered nodes."""
        return self._bound_geometry().link(src, dst)

    def position_of(self, node_id: int) -> Tuple[float, float]:
        """Registered position of a node."""
        return self._states[node_id].position

    def update_position(self, node_id: int, position: Tuple[float, float]) -> None:
        """Move a node (mobility support).

        The medium rebinds to the geometry of the new positions on its
        next lookup (a node moving back finds its old entry if the
        table still holds it).  Transmissions already on the air keep
        the sensing classification frozen at their start (their
        busy-count bookkeeping must stay balanced), which at mobility
        speeds (< a few m per frame) is exact to well under a meter.
        """
        state = self._states.get(node_id)
        if state is None:
            raise KeyError(f"node {node_id} is not registered")
        state.position = position
        self._unbind()

    # ------------------------------------------------------------------
    # Channel-view queries (used by backoff timers / idle counters)
    # ------------------------------------------------------------------
    def strong_busy(self, node_id: int) -> bool:
        """Whether the node currently senses a strong transmission."""
        return self._states[node_id].strong_count > 0

    def marginal_busy_probability(self, node_id: int) -> float:
        """Per-slot busy probability from marginally-sensed transmissions.

        With independent shadowing per transmission per slot, the slot
        is busy unless *every* marginal transmission goes unsensed:
        ``1 - prod(1 - p_i)``.
        """
        product = 1.0
        for p in self._states[node_id].marginal.values():
            product *= 1.0 - p
        return 1.0 - product

    # ------------------------------------------------------------------
    # Transmission lifecycle
    # ------------------------------------------------------------------
    def start_transmission(self, src: int, frame, airtime_us: int) -> Transmission:
        """Put a frame on the air; returns its transmission record."""
        if airtime_us <= 0:
            raise ValueError("airtime must be positive")
        now = self.sim.now
        tx = Transmission(src=src, frame=frame, start=now, end=now + airtime_us,
                          jammed=self._jam_depth > 0)
        for active in self._active:
            active.overlaps.append(tx)
            tx.overlaps.append(active)
        self._active.append(tx)
        self.transmissions_started += 1
        if self.trace is not None:
            try:  # direct access: frames are Frame in every real run
                self.trace.record(
                    now, "tx_start", src,
                    frame_kind=frame.kind.value, dst=frame.dst, end=tx.end,
                    duration_us=frame.duration_us, seq=frame.seq,
                    attempt=frame.attempt,
                    assigned_backoff=frame.assigned_backoff,
                )
            except AttributeError:  # duck-typed test stand-ins
                self.trace.record(
                    now, "tx_start", src,
                    frame_kind=getattr(getattr(frame, "kind", None),
                                       "value", "?"),
                    dst=getattr(frame, "dst", None),
                    end=tx.end,
                    duration_us=getattr(frame, "duration_us", 0),
                    seq=getattr(frame, "seq", 0),
                    attempt=getattr(frame, "attempt", 0),
                    assigned_backoff=getattr(frame, "assigned_backoff", -1),
                )
        self._notify_start(tx)
        self.sim.call_later(airtime_us, lambda: self._finish_transmission(tx))
        return tx

    def _notify_start(self, tx: Transmission) -> None:
        tx.view = view = self._source_view(tx.src)
        marginal_key = id(tx)
        for state, p_sense in zip(view[1], view[2]):
            if p_sense is None:
                state.strong_count += 1
                if state.strong_count == 1:
                    state.listener.on_channel_busy()
            else:
                state.marginal[marginal_key] = p_sense
                state.listener.on_marginal_change()

    def _finish_transmission(self, tx: Transmission) -> None:
        self._active.remove(tx)
        # Deliver before raising idle edges: decode outcomes (and the
        # EIFS decision they imply) are known at frame end, and the
        # MAC's deference logic needs them when the channel goes idle.
        self._deliver(tx)
        # Only delivery reads the overlap list; dropping it breaks the
        # cycles between overlapping transmissions.
        tx.overlaps.clear()
        marginal_key = id(tx)
        view = tx.view
        for state, p_sense in zip(view[1], view[2]):
            if p_sense is None:
                state.strong_count -= 1
                if state.strong_count == 0:
                    state.listener.on_channel_idle()
            else:
                state.marginal.pop(marginal_key, None)
                state.listener.on_marginal_change()

    # ------------------------------------------------------------------
    # Jamming (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def begin_jam(self, duration_us: int) -> None:
        """Start a noise burst blanketing the whole medium.

        Every listener senses a busy channel for the burst's duration
        (strong busy edge on the first concurrent burst), and every
        frame whose airtime overlaps the burst at any point fails to
        decode.  Bursts may overlap; the channel goes idle again when
        the last one ends.
        """
        if duration_us <= 0:
            raise ValueError("jam duration must be positive")
        self.jam_bursts += 1
        self._jam_depth += 1
        for tx in self._active:
            tx.jammed = True
        if self._jam_depth == 1:
            if self.trace is not None:
                self.trace.record(self.sim.now, "jam_start", -1,
                                  duration_us=duration_us)
            for state in self._states.values():
                state.strong_count += 1
                if state.strong_count == 1:
                    state.listener.on_channel_busy()
        self.sim.schedule(duration_us, self._end_jam)

    def _end_jam(self) -> None:
        self._jam_depth -= 1
        if self._jam_depth == 0:
            if self.trace is not None:
                self.trace.record(self.sim.now, "jam_end", -1)
            for state in self._states.values():
                state.strong_count -= 1
                if state.strong_count == 0:
                    state.listener.on_channel_idle()

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def _deliver(self, tx: Transmission) -> None:
        view = tx.view
        if view[0] is not self._geometry:
            # A node moved (or registered) while the frame was in
            # flight: classification stays frozen, but delivery uses
            # the links of the current positions.
            view = self._source_view(tx.src)
        src = tx.src
        frame = tx.frame
        overlaps = tx.overlaps
        # Half-duplex: a node transmitting during any overlap (or
        # being the source of an overlapping frame) hears nothing.
        overlap_srcs = {o.src for o in overlaps} if overlaps else ()
        # The frame must capture over each overlapping frame in turn
        # (one draw each, so one interferer's two frames are two
        # draws); the source's own earlier frame interferes with none.
        # (``view[0]`` is the bound geometry by now.)
        captures = [
            view[0].capture_row(src, o.src) for o in overlaps if o.src != src
        ]
        jammed = tx.jammed
        fault_hooks = self.fault_hooks
        trace = self.trace
        rng_random = self.rng.random
        one_minus_eps = 1.0 - LinkProbabilities.EPS
        decoded_count = corrupted_count = 0
        for (node_id, receive, sense), state in zip(view[3], view[4]):
            if node_id in overlap_srcs:
                continue
            # Decode: a jammed frame never decodes (and draws nothing);
            # otherwise at most one receive draw, then one capture draw
            # per interferer until one fails.
            if jammed:
                decoded = False
            else:
                decoded = receive >= one_minus_eps or rng_random() < receive
                if decoded and captures:
                    for capture in captures:
                        if rng_random() >= capture[node_id]:
                            decoded = False
                            break
            if decoded and fault_hooks is not None:
                fate = fault_hooks.intercept(tx, node_id)
                if fate == "drop":
                    # Silent loss: the listener never learns the frame
                    # existed (no EIFS, no corruption counter).
                    self.frames_fault_dropped += 1
                    if trace is not None:
                        trace.record(
                            self.sim.now, "fault_drop", node_id, src=src
                        )
                    continue
                if fate == "corrupt":
                    decoded = False
            if decoded:
                decoded_count += 1
                if trace is not None:
                    # Decodes are the hottest traced event, so the
                    # payload carries only what reception semantics
                    # need; header provenance (seq/attempt/assigned
                    # backoff) lives on the matching ``tx_start``.
                    try:  # direct access: frames are Frame in real runs
                        trace.record(
                            self.sim.now, "decode", node_id,
                            src=src,
                            # What the frame *claims* as its source —
                            # equals ``src`` except under address
                            # spoofing, and is what the listener's MAC
                            # reacts to.
                            frame_src=frame.src,
                            frame_kind=frame.kind.value,
                            dst=frame.dst,
                            duration_us=frame.duration_us,
                        )
                    except AttributeError:  # duck-typed test stand-ins
                        trace.record(
                            self.sim.now, "decode", node_id,
                            src=src,
                            frame_src=getattr(frame, "src", src),
                            frame_kind=getattr(getattr(frame, "kind", None),
                                               "value", "?"),
                            dst=getattr(frame, "dst", None),
                            duration_us=getattr(frame, "duration_us", 0),
                        )
                state.listener.on_frame(frame)
            elif sense > one_minus_eps or rng_random() < sense:
                corrupted_count += 1
                if trace is not None:
                    trace.record(self.sim.now, "corrupt", node_id, src=src)
                state.listener.on_frame_corrupted()
        self.frames_decoded += decoded_count
        self.frames_corrupted += corrupted_count

    @property
    def active_transmissions(self) -> int:
        """Number of frames currently on the air."""
        return len(self._active)
