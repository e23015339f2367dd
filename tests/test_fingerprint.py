"""Config fingerprints: the direct JSON encoder, its memo, its digests.

Journals key settled cells and the run cache keys its entries by
``config_fingerprint``, so the encoder must write exactly the text the
reference definition did: ``_canonical`` followed by
``json.dumps(separators=(",", ":"))``.  That pair is copied here as the
oracle, and the golden digests were computed by it.
"""

import dataclasses
import enum
import json
import pickle
from collections import OrderedDict, namedtuple
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import cache
from repro.experiments.cache import (
    RunCache,
    UncacheableConfigError,
    canonical_digest,
    canonical_json,
    config_fingerprint,
)
from repro.experiments.campaign import expand_cells, parse_campaign, run_campaign
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.settings import PAPER_SETTINGS
from repro.faults import parse_profile
from repro.net.topology import circle_topology


# ----------------------------------------------------------------------
# The reference definition
# ----------------------------------------------------------------------
def reference_canonical(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            type(obj).__name__,
            [
                [f.name, reference_canonical(getattr(obj, f.name))]
                for f in dataclasses.fields(obj)
            ],
        ]
    if isinstance(obj, dict):
        return [
            "dict",
            sorted(
                ([reference_canonical(k), reference_canonical(v)]
                 for k, v in obj.items()),
                key=repr,
            ),
        ]
    if isinstance(obj, (list, tuple)):
        return ["seq", [reference_canonical(v) for v in obj]]
    if isinstance(obj, (set, frozenset)):
        return ["set", sorted((reference_canonical(v) for v in obj), key=repr)]
    text = repr(obj)
    if " at 0x" in text:
        raise UncacheableConfigError(text)
    return [type(obj).__name__, text]


def reference_json(obj: Any) -> str:
    return json.dumps(reference_canonical(obj), separators=(",", ":"))


# ----------------------------------------------------------------------
# Values that take every path of the encoder
# ----------------------------------------------------------------------
class Level(enum.IntEnum):
    LOW = 1
    HIGH = 10


class Colour(enum.Enum):
    RED = "red"


class Tag(str):
    pass


class Count(int):
    pass


Pair = namedtuple("Pair", "left right")


@dataclasses.dataclass(frozen=True)
class Leaf:
    x: Any
    y: Any = 0.5


@dataclasses.dataclass
class Branch:
    name: Any
    children: Any
    meta: Any = None


@dataclasses.dataclass
class Empty:
    pass


@dataclasses.dataclass(frozen=True, init=False)
class IntDataclass(int):
    """A dataclass deriving from int: the int rule wins."""


class Stable:
    def __repr__(self):
        return "Stable(3)"


class Unstable:
    """Default object repr, which carries the address."""


SPECIAL_FLOATS = st.sampled_from(
    [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e300,
     0.1, -1.5]
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-12, max_value=12),
    st.floats(allow_nan=True, allow_infinity=True),
    SPECIAL_FLOATS,
    st.text(max_size=6),
    st.sampled_from([
        Level.LOW, Level.HIGH, Colour.RED, Tag("té"), Count(7),
        Stable(), Empty(), IntDataclass(4), frozenset({1, 2}), {3, "a"},
    ]),
)
INT_KEYS = st.sampled_from([-10, -1, 0, 1, 2, 9, 10, 11, 100, -100])
KEYS = st.one_of(INT_KEYS, st.integers(), st.text(max_size=3),
                 st.sampled_from([True, Level.HIGH, 1.5, "1", "-1", "10"]))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(INT_KEYS, children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.dictionaries(KEYS, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3).map(OrderedDict),
        st.builds(Pair, children, children),
        st.builds(Leaf, children, children),
        st.builds(Branch, st.text(max_size=4), st.lists(children, max_size=3),
                  children),
    )


VALUES = st.recursive(LEAVES, _containers, max_leaves=24)


class TestEncoderMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(VALUES)
    def test_same_text_as_canonical_then_json_dumps(self, value):
        assert canonical_json(value) == reference_json(value)

    @pytest.mark.parametrize("value", [
        {-1: "a", 1: "b", 10: "c", -10: "d", 0: "e", 2: "f"},
        {1: 0, "1": 1, 10: 2, "a": 3},
        {True: 1, 2: 2},
        [-0.0, float("nan"), float("inf"), 5e-324],
        (Level.HIGH, Level.LOW, True, False, None),
        Branch("root", [Leaf(1), Leaf(Empty(), {2: (3.0, -0.0)})], Colour.RED),
        IntDataclass(4),
        Empty(),
        {},
        [],
        "quote\" and \\ and ☃",
    ])
    def test_edge_cases(self, value):
        assert canonical_json(value) == reference_json(value)

    @pytest.mark.parametrize("value", [
        Unstable(),
        [1, Unstable()],
        {3: Unstable()},
        {"k": Unstable()},
        Leaf(Unstable()),
        Branch("b", [Leaf(1)], meta={1: [Unstable()]}),
    ])
    def test_unstable_repr_is_uncacheable(self, value):
        with pytest.raises(UncacheableConfigError):
            reference_json(value)
        with pytest.raises(UncacheableConfigError):
            canonical_json(value)


# ----------------------------------------------------------------------
# Golden digests (computed by the reference definition)
# ----------------------------------------------------------------------
CAMPAIGN_SHARDS_SPEC = (
    "scenario=circle:8; protocol=correct; pm=0|20|40|60|80; "
    "detector=-|cusum|estimator; seeds=1-20; seconds=0.02"
)


def paper_config():
    return ScenarioConfig(
        topology=circle_topology(8, misbehaving=(3,), pm_percent=60.0,
                                 with_interferers=True),
        duration_us=PAPER_SETTINGS.duration_us,
        seed=PAPER_SETTINGS.seeds[-1],
    )


def faulted_config():
    return ScenarioConfig(
        topology=circle_topology(4), duration_us=1_000_000,
        faults=parse_profile("ack-loss=0.3@4,jam=20:2000,crash=2@0.3-0.6"),
        detector="cusum:h=2.0",
    )


class TestGoldenDigests:
    def test_paper_scale_config(self):
        config = paper_config()
        assert canonical_json(config) == reference_json(config)
        assert config_fingerprint(config) == (
            "34d1645f10e57a63c41b787e9dde43a25b402006d382fe5c113c0c0a09ff6400"
        )

    def test_campaign_shards_cell(self):
        cell = expand_cells(parse_campaign(CAMPAIGN_SHARDS_SPEC))[137]
        assert cell.key == "circle:8/correct/pm=40/det=-/faults=-/seed=18"
        assert config_fingerprint(cell.config) == (
            "a3e9c104776c125621bca0a79e1f7c2519a706675bd71f6502bf060769af1a09"
        )

    def test_faulted_config(self):
        config = faulted_config()
        assert canonical_json(config) == reference_json(config)
        assert config_fingerprint(config) == (
            "1dd59540c71365ce85c28b896d513f58b66548c7f700ba23c45547d140d5921e"
        )

    def test_every_campaign_shards_cell_matches_reference(self):
        for cell in expand_cells(parse_campaign(CAMPAIGN_SHARDS_SPEC)):
            assert canonical_json(cell.config) == reference_json(cell.config)


# ----------------------------------------------------------------------
# One canonicalisation per config
# ----------------------------------------------------------------------
class TestFingerprintMemo:
    def test_computed_once_per_instance(self, tmp_path, monkeypatch):
        seen = []
        encode = cache.canonical_json

        def spy(obj):
            seen.append(obj)
            return encode(obj)

        monkeypatch.setattr(cache, "canonical_json", spy)
        config = paper_config()
        first = config_fingerprint(config)
        assert config_fingerprint(config) == first
        run_cache = RunCache(tmp_path)
        assert run_cache.key_for(config) == run_cache.key_for(config)
        assert seen == [config]

    def test_pickled_copy_keeps_the_fingerprint(self):
        config = paper_config()
        fingerprint = config.fingerprint
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.fingerprint == fingerprint == canonical_digest(clone)

    def test_uncacheable_config_raises_every_time(self):
        config = ScenarioConfig(topology=circle_topology(1),
                                policy_overrides={1: Unstable()})
        for _ in range(2):
            with pytest.raises(UncacheableConfigError):
                config_fingerprint(config)

    def test_two_shard_campaign_canonicalises_each_cell_once(
            self, tmp_path, monkeypatch):
        seen = []
        encode = cache.canonical_json

        def spy(obj):
            seen.append(obj)
            return encode(obj)

        monkeypatch.setattr(cache, "canonical_json", spy)
        spec = parse_campaign(
            "scenario=circle:3; pm=0|60; seeds=1-3; seconds=0.01"
        )
        run_cache = RunCache(tmp_path / "cache")
        executor = ExperimentExecutor(workers=1, on_failure="flag",
                                      cache=run_cache)
        try:
            reports = [
                run_campaign(spec, tmp_path / f"shard{i}", shard=(i, 2),
                             executor=executor)
                for i in range(2)
            ]
        finally:
            executor.close()
        canonicalised = list(seen)
        cells = expand_cells(spec)
        assert sum(report.ok for report in reports) == len(cells) == 6
        # Orchestrator, executor dedup and cache get + put all read the
        # one memoised digest of each cell's config.
        assert len(canonicalised) == len(cells)
        assert len({id(config) for config in canonicalised}) == len(cells)
        assert sorted(canonical_json(config) for config in canonicalised) \
            == sorted(canonical_json(cell.config) for cell in cells)
        assert len(run_cache.entries()) == len(cells)
