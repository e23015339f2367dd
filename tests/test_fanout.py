"""Differential tests for the transmission fan-out hot path.

* The medium's one decode path (clean and overlapped frames alike)
  draws and decides exactly as the former ``Medium._attempt_decode``
  helper did, kept here verbatim as the reference.
* A MAC without an idle-slot counter recomputes its combined marginal
  busy probability only when its backoff timer reads it; every read
  must equal an eager ``1 - prod(1 - p)`` over the medium's set.
* Derived timings are cached per instance, so a drifted or otherwise
  replaced bundle reports its own values.
"""

import dataclasses
import random

import pytest

from repro.experiments.cache import canonical_json
from repro.experiments.scenarios import (
    PROTOCOL_80211,
    PROTOCOL_CORRECT,
    ScenarioConfig,
    build_scenario,
)
from repro.mac.frames import Frame, FrameKind, ack_size, cts_size, data_size, rts_size
from repro.mac.timing import ExchangeTiming, with_clock_drift
from repro.net.topology import circle_topology
from repro.phy.constants import ACK_SIZE_BYTES, PhyTimings
from repro.phy.medium import Medium, Transmission
from repro.phy.propagation import LinkProbabilities, ShadowingModel
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# One decode path
# ----------------------------------------------------------------------
class RecordingRandom:
    """A ``random.Random`` stand-in that records every draw."""

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self.draws = []

    def random(self):
        value = self._rng.random()
        self.draws.append(value)
        return value


class ReferenceMedium(Medium):
    """The medium as it decoded before the decode paths were merged:
    an inlined receive draw for clean frames and ``_attempt_decode``
    (verbatim) for jammed or overlapped ones."""

    def _deliver(self, tx: Transmission) -> None:
        view = self._source_view(tx.src)
        overlap_srcs = {o.src for o in tx.overlaps} if tx.overlaps else ()
        one_minus_eps = 1.0 - LinkProbabilities.EPS
        clean = not tx.jammed and not tx.overlaps
        for (node_id, _, _), state in zip(view[3], view[4]):
            if node_id in overlap_srcs:
                continue
            link = self.link(tx.src, node_id)
            if clean:
                rcv = link.receive
                decoded = rcv >= one_minus_eps or self.rng.random() < rcv
            else:
                decoded = self._attempt_decode(tx, node_id, link)
            if decoded:
                self.frames_decoded += 1
                state.listener.on_frame(tx.frame)
            else:
                sensed = (
                    link.sense > 1.0 - LinkProbabilities.EPS
                    or self.rng.random() < link.sense
                )
                if sensed:
                    self.frames_corrupted += 1
                    state.listener.on_frame_corrupted()

    def _attempt_decode(self, tx: Transmission, node_id: int,
                        link: LinkProbabilities) -> bool:
        if tx.jammed:
            return False
        if link.receive < 1.0 - LinkProbabilities.EPS:
            if self.rng.random() >= link.receive:
                return False
        capture_probability = self._bound_geometry().capture_probability
        for interferer in tx.overlaps:
            if interferer.src == tx.src:
                continue
            if self.rng.random() >= capture_probability(
                tx.src, interferer.src, node_id
            ):
                return False
        return True


class Listener:
    def __init__(self, node_id, log):
        self.node_id = node_id
        self.log = log

    def on_channel_busy(self):
        self.log.append((self.node_id, "busy"))

    def on_channel_idle(self):
        self.log.append((self.node_id, "idle"))

    def on_marginal_change(self):
        self.log.append((self.node_id, "marginal"))

    def on_frame(self, frame):
        self.log.append((self.node_id, "frame", frame.src, frame.seq))

    def on_frame_corrupted(self):
        self.log.append((self.node_id, "corrupt"))


#: Listener positions around the long frame's source (node 1 at the
#: origin).  With 6 dB shadowing, receive and capture probabilities are
#: fractional, so both kinds of draw happen.
POSITIONS = {
    1: (0.0, 0.0),
    2: (330.0, 0.0),      # interferer, two frames
    3: (0.0, -420.0),     # interferer, one frame
    4: (90.0, 40.0),
    5: (160.0, -60.0),
    6: (-120.0, 150.0),
    7: (230.0, 90.0),
    8: (-260.0, -30.0),
    9: (40.0, 300.0),
    10: (500.0, 200.0),
}


def _frame(src, seq):
    return Frame(kind=FrameKind.DATA, src=src, dst=4, size_bytes=100,
                 duration_us=0, seq=seq, payload_bytes=100)


def run_world(medium_cls, seed):
    """Overlapping frames around node 1's long frame, and what every
    listener made of them."""
    sim = Simulator()
    rng = RecordingRandom(seed)
    medium = medium_cls(sim, ShadowingModel(sigma_db=6.0), rng=rng,
                        timings=PhyTimings())
    log = []
    for node_id, position in POSITIONS.items():
        medium.register(Listener(node_id, log), position)
    schedule = [
        (0, 1, 1, 3000),      # the long frame
        (100, 2, 1, 400),     # interferer 2, first overlap
        (800, 2, 2, 400),     # interferer 2 again: a second capture draw
        (1500, 1, 2, 300),    # the source's own next frame: no capture draw
        (2000, 3, 1, 1500),   # a third interferer, outlasting the long frame
        (4000, 5, 1, 200),    # a clean frame afterwards
    ]
    for start, src, seq, airtime in schedule:
        sim.call_at(start, lambda src=src, seq=seq, airtime=airtime:
                    medium.start_transmission(src, _frame(src, seq), airtime))
    sim.run()
    return rng.draws, log, (medium.frames_decoded, medium.frames_corrupted)


class TestOneDecodePath:
    @pytest.mark.parametrize("seed", range(1, 13))
    def test_draws_and_outcomes_match_attempt_decode(self, seed):
        got = run_world(Medium, seed)
        want = run_world(ReferenceMedium, seed)
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == want[2]

    def test_scenario_exercises_capture_draws(self):
        """Across the seeds, overlapped frames decode through their
        receive draw and then draw against each interferer -- so the
        comparison above covers the capture loop, not just receive."""
        decoded_long = 0
        for seed in range(1, 13):
            _, log, _ = run_world(Medium, seed)
            decoded_long += sum(
                1 for entry in log if entry[1:] == ("frame", 1, 1)
            )
        assert decoded_long > 0

    def test_jammed_frame_draws_only_sense(self):
        """A jammed frame never decodes and draws no receive or capture
        number: only the listeners' sense draws remain."""
        for medium_cls in (Medium, ReferenceMedium):
            sim = Simulator()
            rng = RecordingRandom(3)
            medium = medium_cls(sim, ShadowingModel(sigma_db=6.0), rng=rng,
                                timings=PhyTimings())
            log = []
            for node_id, position in POSITIONS.items():
                medium.register(Listener(node_id, log), position)
            sim.call_at(0, lambda: medium.start_transmission(
                1, _frame(1, 1), 500))
            sim.call_at(100, lambda: medium.begin_jam(50))
            sim.run()
            assert not any(entry[1] == "frame" for entry in log)
            eps = LinkProbabilities.EPS
            links = [medium.link(1, node_id) for node_id in POSITIONS
                     if node_id != 1]
            sense_draws = [
                link for link in links
                if (link.receive > eps or link.sense > eps)
                and not link.sense > 1.0 - eps
            ]
            assert sense_draws
            assert len(rng.draws) == len(sense_draws)


# ----------------------------------------------------------------------
# Lazy marginal busy probability
# ----------------------------------------------------------------------
def _eager(medium, node_id):
    product = 1.0
    for p in medium._states[node_id].marginal.values():
        product *= 1.0 - p
    return 1.0 - product


class TestLazyMarginalProbability:
    @pytest.mark.parametrize("protocol", [PROTOCOL_80211, PROTOCOL_CORRECT])
    def test_every_timer_read_equals_the_eager_product(self, protocol):
        config = ScenarioConfig(
            topology=circle_topology(16, with_interferers=True),
            protocol=protocol, duration_us=300_000, seed=3,
        )
        sim, nodes, _ = build_scenario(config)
        reads = []
        for node in nodes:
            mac = node.mac
            timer = mac.timer
            lazy = timer.marginal_probability

            def checked(mac=mac, lazy=lazy):
                value = lazy()
                reads.append((value, _eager(mac.medium, mac.node_id)))
                return value

            timer.marginal_probability = checked
        for node in nodes:
            node.start()
        sim.run(until=config.duration_us)
        assert reads, "no timer read the marginal probability"
        assert sum(1 for value, _ in reads if value > 0.0) > 100
        mismatches = [(got, want) for got, want in reads if got != want]
        assert mismatches == []

    def test_counter_less_macs_defer_the_product(self):
        """Without an idle-slot counter, a marginal edge only marks the
        cached probability stale."""
        config = ScenarioConfig(
            topology=circle_topology(16, with_interferers=True),
            protocol=PROTOCOL_80211, duration_us=50_000, seed=3,
        )
        sim, nodes, _ = build_scenario(config)
        for node in nodes:
            node.start()
        sim.run(until=config.duration_us)
        stale = [n.mac for n in nodes
                 if n.mac.idle_counter is None and n.mac._p_stale]
        assert stale
        for mac in stale:
            assert mac._marginal_probability() == _eager(mac.medium,
                                                         mac.node_id)
            assert not mac._p_stale


# ----------------------------------------------------------------------
# Timings computed once per instance
# ----------------------------------------------------------------------
class TestTimingsPerInstance:
    def test_drifted_bundle_reports_its_own_intervals(self):
        base = PhyTimings()
        ack = base.frame_airtime_us(ACK_SIZE_BYTES)
        # Read (and cache) the derived values on the original first.
        assert (base.difs_us, base.eifs_us) == (50, 10 + ack + 50)
        drifted = with_clock_drift(base, 100_000)  # slot 20 -> 22 us
        assert drifted.slot_us == 22
        assert drifted.difs_us == 10 + 2 * 22
        assert drifted.eifs_us == 10 + ack + 10 + 2 * 22
        assert (base.difs_us, base.eifs_us) == (50, 10 + ack + 50)

    def test_exchange_timing_follows_its_bundle(self):
        for modified in (False, True):
            base = ExchangeTiming(PhyTimings(), 512, modified)
            before = (base.rts_airtime, base.cts_nav, base.ack_timeout,
                      base.exchange_airtime)
            drifted_phy = with_clock_drift(PhyTimings(), 100_000)
            slow_phy = dataclasses.replace(PhyTimings(), bit_rate=1_000_000)
            for phy in (drifted_phy, slow_phy):
                et = ExchangeTiming(phy, 512, modified)
                air = phy.frame_airtime_us
                rts = air(rts_size(modified))
                cts = air(cts_size(modified))
                data = air(data_size(512))
                ack = air(ack_size(modified))
                s, slot = phy.sifs_us, phy.slot_us
                assert (et.rts_airtime, et.cts_airtime, et.data_airtime,
                        et.ack_airtime) == (rts, cts, data, ack)
                assert et.rts_nav == 3 * s + cts + data + ack
                assert et.cts_nav == 2 * s + data + ack
                assert et.data_nav == s + ack
                assert et.cts_timeout == s + cts + 2 * slot
                assert et.ack_timeout == s + ack + 2 * slot
                assert et.data_timeout == s + data + 2 * slot
                assert et.exchange_airtime == rts + cts + data + ack + 3 * s
            assert (base.rts_airtime, base.cts_nav, base.ack_timeout,
                    base.exchange_airtime) == before

    def test_cached_values_leave_identity_alone(self):
        """Equality, hashing and fingerprints see the fields only."""
        fresh = PhyTimings()
        read = PhyTimings()
        read.difs_us, read.eifs_us  # noqa: B018 - fill the caches
        assert read == fresh and hash(read) == hash(fresh)
        assert canonical_json(read) == canonical_json(fresh)
        with pytest.raises(dataclasses.FrozenInstanceError):
            read.slot_us = 9
