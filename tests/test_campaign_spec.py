"""Campaign spec grammar: parsing, canonical formatting, expansion,
sharding — including the hypothesis parse/format/parse round-trip the
resume path's spec-identity check depends on."""

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.experiments.campaign.spec import (
    CampaignSpec,
    CampaignSpecError,
    ScenarioAxis,
    expand_cells,
    format_campaign,
    parse_campaign,
    shard_cells,
)
from repro.experiments.scenarios import PROTOCOL_80211, PROTOCOL_CORRECT


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
class TestParse:
    def test_minimal_spec_defaults(self):
        spec = parse_campaign("scenario=circle:8")
        assert spec.scenarios == (ScenarioAxis("circle", 8),)
        assert spec.protocols == (PROTOCOL_CORRECT,)
        assert spec.pm_values == (0.0,)
        assert spec.detectors == (None,)
        assert spec.fault_specs == (None,)
        assert spec.seeds == (1,)
        assert spec.duration_us == 1_000_000

    def test_full_spec(self):
        spec = parse_campaign(
            "scenario=circle:8|circle:4+interferers|random:20/3; "
            "protocol=correct|802.11; pm=0|50|100; cheater=2; "
            "detector=-|cusum:h=2.0,k=0.25; faults=-|ack-loss=0.3@4; "
            "seeds=1-3|7; seconds=2.5"
        )
        assert spec.scenarios == (
            ScenarioAxis("circle", 8),
            ScenarioAxis("circle", 4, interferers=True),
            ScenarioAxis("random", 20, misbehaving=3),
        )
        assert spec.protocols == (PROTOCOL_CORRECT, PROTOCOL_80211)
        assert spec.pm_values == (0.0, 50.0, 100.0)
        assert spec.cheater == 2
        assert spec.detectors == (None, "cusum:h=2.0,k=0.25")
        assert spec.fault_specs == (None, "ack-loss=0.3@4")
        assert spec.seeds == (1, 2, 3, 7)
        assert spec.duration_us == 2_500_000

    def test_newlines_and_comments_are_axis_separators(self):
        spec = parse_campaign(
            "# quick sweep\n"
            "scenario=circle:3   # ZERO-FLOW\n"
            "pm=0|60\n"
            "seeds=1-2\n"
        )
        assert spec.pm_values == (0.0, 60.0)
        assert spec.seeds == (1, 2)

    def test_seeds_are_sorted_and_deduplicated(self):
        spec = parse_campaign("scenario=circle:2; seeds=5|1-3|2")
        assert spec.seeds == (1, 2, 3, 5)

    def test_axis_values_deduplicated(self):
        spec = parse_campaign("scenario=circle:2|circle:2; pm=0|0")
        assert spec.scenarios == (ScenarioAxis("circle", 2),)
        assert spec.pm_values == (0.0,)

    @pytest.mark.parametrize("bad", [
        "",                                     # no scenario axis
        "pm=50",                                # missing scenario
        "scenario=circle:8; scenario=circle:4", # duplicate axis
        "scenario=triangle:3",                  # unknown kind
        "scenario=circle:0",                    # no nodes
        "scenario=random:5",                    # missing /M
        "scenario=random:5/5",                  # M >= N
        "scenario=random:5/1+interferers",      # random has no variant
        "scenario=circle:8; protocol=tcp",      # unknown protocol
        "scenario=circle:8; pm=120",            # pm out of range
        "scenario=circle:8; pm=",               # empty value
        "scenario=circle:8; seeds=3-1",         # descending range
        "scenario=circle:8; seeds=x",           # non-integer seed
        "scenario=circle:8; seconds=0",         # non-positive horizon
        "scenario=circle:8; seconds=nan",       # non-finite
        "scenario=circle:8; cheater=0",         # not a sender id
        "scenario=circle:8; detector=warp:x=1", # unknown detector
        "scenario=circle:8; faults=zap=1",      # unknown fault key
        "scenario=circle:8; color=red",         # unknown axis
        "scenario=circle:8; pm",                # no '='
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(CampaignSpecError):
            parse_campaign(bad)


# ----------------------------------------------------------------------
# Formatting / round-trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_format_is_canonical(self):
        text = format_campaign(parse_campaign("scenario=circle:3;pm= 0 | 60"))
        assert text == ("scenario=circle:3; protocol=correct; pm=0.0|60.0; "
                        "cheater=3; detector=-; faults=-; seeds=1; "
                        "seconds=1.0")

    def test_seed_ranges_compress(self):
        spec = parse_campaign("scenario=circle:2; seeds=1|2|3|4|9|11|12|13")
        assert "seeds=1-4|9|11-13" in format_campaign(spec)

    @given(st.from_regex(r"seeds=[0-9]{1,3}(-[0-9]{1,3})?"
                         r"(\|[0-9]{1,3}(-[0-9]{1,3})?){0,4}",
                         fullmatch=True))
    @hyp_settings(max_examples=50, deadline=None)
    def test_seed_axis_text_round_trips(self, seeds_axis):
        try:
            spec = parse_campaign(f"scenario=circle:2; {seeds_axis}")
        except CampaignSpecError:
            return  # descending ranges are legitimately rejected
        assert parse_campaign(format_campaign(spec)) == spec

    @given(
        scenarios=st.lists(
            st.one_of(
                st.builds(
                    ScenarioAxis,
                    kind=st.just("circle"),
                    nodes=st.integers(1, 64),
                    interferers=st.booleans(),
                ),
                st.builds(
                    ScenarioAxis,
                    kind=st.just("random"),
                    nodes=st.integers(2, 40),
                    misbehaving=st.integers(0, 1),
                ),
            ),
            min_size=1, max_size=3, unique=True,
        ),
        protocols=st.sampled_from([
            (PROTOCOL_CORRECT,), (PROTOCOL_80211,),
            (PROTOCOL_CORRECT, PROTOCOL_80211),
        ]),
        pm_values=st.lists(
            st.floats(0.0, 100.0, allow_nan=False),
            min_size=1, max_size=4, unique=True,
        ).map(tuple),
        cheater=st.integers(1, 8),
        detectors=st.lists(
            st.sampled_from([None, "window:W=5,thresh=20",
                             "cusum:h=2.0,k=0.25",
                             "estimator:fraction=0.5"]),
            min_size=1, max_size=3, unique=True,
        ).map(tuple),
        fault_specs=st.lists(
            st.sampled_from([None, "ack-loss=0.3@4", "jam=2:5000",
                             "crash=2@0.5-1.5", "drift=1:50000"]),
            min_size=1, max_size=3, unique=True,
        ).map(tuple),
        seeds=st.lists(
            st.integers(0, 10_000), min_size=1, max_size=20, unique=True,
        ).map(lambda s: tuple(sorted(s))),
        duration_us=st.integers(1, 60_000_000),
    )
    @hyp_settings(max_examples=100, deadline=None)
    def test_spec_round_trips_exactly(self, **kwargs):
        spec = CampaignSpec(scenarios=tuple(kwargs.pop("scenarios")),
                            **kwargs)
        assert parse_campaign(format_campaign(spec)) == spec


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------
class TestExpansion:
    def test_grid_size_and_order(self):
        spec = parse_campaign(
            "scenario=circle:3; pm=0|60; seeds=1-3; seconds=0.2"
        )
        cells = expand_cells(spec)
        assert len(cells) == 6
        # seeds innermost, grid order deterministic
        assert [c.seed for c in cells] == [1, 2, 3, 1, 2, 3]
        assert cells[0].group.endswith("pm=0/det=-/faults=-")
        assert cells[3].group.endswith("pm=60/det=-/faults=-")
        assert all(c.key == f"{c.group}/seed={c.seed}" for c in cells)

    def test_cell_configs_carry_axes(self):
        spec = parse_campaign(
            "scenario=circle:4; pm=50; detector=cusum:h=2.0,k=0.25; "
            "faults=ack-loss=0.2; seeds=7; seconds=0.5"
        )
        (cell,) = expand_cells(spec)
        assert cell.config.seed == 7
        assert cell.config.duration_us == 500_000
        assert cell.config.detector == "cusum:h=2.0,k=0.25"
        assert cell.config.faults is not None
        assert tuple(cell.config.topology.misbehaving_senders) == (3,)

    def test_pm_zero_has_no_cheater(self):
        spec = parse_campaign("scenario=circle:4; pm=0")
        (cell,) = expand_cells(spec)
        assert tuple(cell.config.topology.misbehaving_senders) == ()

    def test_80211_detector_combination_skipped(self):
        spec = parse_campaign(
            "scenario=circle:2; protocol=correct|802.11; "
            "detector=-|cusum:h=2.0,k=0.25"
        )
        cells = expand_cells(spec)
        # correct x {-, cusum} + 802.11 x {-} = 3, not 4
        assert len(cells) == 3
        assert not any(
            c.config.protocol == PROTOCOL_80211
            and c.config.detector is not None
            for c in cells
        )

    def test_cheater_must_exist(self):
        spec = parse_campaign("scenario=circle:2; pm=50; cheater=3")
        with pytest.raises(CampaignSpecError, match="cheater 3"):
            expand_cells(spec)

    def test_random_topologies_vary_by_seed(self):
        spec = parse_campaign("scenario=random:6/1; pm=50; seeds=1-2")
        cells = expand_cells(spec)
        assert cells[0].config.topology != cells[1].config.topology

    def test_random_network_is_the_same_at_every_pm(self):
        spec = parse_campaign("scenario=random:10/2; pm=0|60; seeds=7")
        honest, cheating = (cell.config.topology for cell in expand_cells(spec))
        assert honest.positions == cheating.positions
        assert [(f.src, f.dst) for f in honest.flows] == \
            [(f.src, f.dst) for f in cheating.flows]
        # PM 0 designates the same two cheaters but keeps them honest.
        assert honest.misbehaving_senders == []
        assert len(cheating.misbehaving_senders) == 2


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
class TestSharding:
    def shards(self, cells, count):
        return [shard_cells(cells, i, count) for i in range(count)]

    def test_shards_partition_the_grid(self):
        cells = expand_cells(parse_campaign(
            "scenario=circle:3; pm=0|30|60; seeds=1-5"
        ))
        for count in (1, 2, 3, 7, len(cells) + 3):
            shards = self.shards(cells, count)
            merged = [cell for shard in shards for cell in shard]
            assert sorted(c.key for c in merged) == \
                sorted(c.key for c in cells)
            assert max(len(s) for s in shards) - \
                min(len(s) for s in shards) <= 1

    def test_round_robin_spreads_groups(self):
        cells = expand_cells(parse_campaign(
            "scenario=circle:3; pm=0|60; seeds=1-4"
        ))
        for shard in self.shards(cells, 2):
            assert len({c.group for c in shard}) == 2  # both PM groups

    def test_sharding_is_deterministic(self):
        spec = parse_campaign("scenario=circle:3; pm=0|60; seeds=1-4")
        first = [c.key for c in shard_cells(expand_cells(spec), 1, 3)]
        second = [c.key for c in shard_cells(expand_cells(spec), 1, 3)]
        assert first == second

    @pytest.mark.parametrize("index,count", [(-1, 2), (2, 2), (0, 0)])
    def test_bad_shard_rejected(self, index, count):
        with pytest.raises(CampaignSpecError):
            shard_cells([], index, count)
