"""Constructor semantics of the frozen value records built per packet.

:class:`~repro.detect.base.Observation` (one per judged packet and per
service wire line) and :class:`~repro.mac.frames.Frame` (one per
transmission) are frozen dataclasses with a hand-written ``__init__``
that fills the instance dict directly.  These tests pin that the
hand-written constructor keeps everything the dataclass-generated one
gave: positional, keyword and default arguments, equality and hashing,
``repr``, :func:`dataclasses.replace`, pickling and frozenness.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.detect.base import Observation
from repro.mac.frames import Frame, FrameKind

#: ``(class, required positional arguments, every optional field set
#: to a non-default value)``.
RECORDS = [
    (Observation, (31.0, 7.5), {"retries": 2, "time_us": 480}),
    (Frame, (FrameKind.RTS, 1, 2, 24, 372),
     {"seq": 9, "attempt": 3, "assigned_backoff": 17,
      "payload_bytes": 512}),
]


def _values(record) -> dict:
    return {f.name: getattr(record, f.name)
            for f in dataclasses.fields(record)}


@pytest.fixture(params=RECORDS, ids=lambda case: case[0].__name__)
def case(request):
    return request.param


class TestRecordConstructors:
    def test_positional_keyword_and_default_arguments(self, case):
        cls, required, optional = case
        fields = dataclasses.fields(cls)
        names = [f.name for f in fields]
        full = dict(zip(names, required), **optional)
        by_position = cls(*(full[name] for name in names))
        by_keyword = cls(**full)
        mixed = cls(*required, **optional)
        for record in (by_position, by_keyword, mixed):
            assert _values(record) == full
        defaulted = cls(*required)
        for f in fields[len(required):]:
            assert getattr(defaulted, f.name) == f.default
            assert type(getattr(defaulted, f.name)) is type(f.default)

    def test_missing_or_unknown_arguments_rejected(self, case):
        cls, required, _ = case
        with pytest.raises(TypeError):
            cls(*required[:-1])
        with pytest.raises(TypeError):
            cls(*required, bogus=1)

    def test_equality_and_hash(self, case):
        cls, required, optional = case
        a, b = cls(*required, **optional), cls(*required, **optional)
        assert a == b and hash(a) == hash(b)
        assert a != cls(*required)
        assert len({a, b, cls(*required)}) == 2

    def test_repr_lists_every_field(self, case):
        cls, required, optional = case
        record = cls(*required, **optional)
        body = ", ".join(f"{name}={value!r}"
                         for name, value in _values(record).items())
        assert repr(record) == f"{cls.__name__}({body})"

    def test_replace(self, case):
        cls, required, optional = case
        record = cls(*required)
        assert dataclasses.replace(record) == record
        changed = dataclasses.replace(record, **optional)
        assert changed == cls(*required, **optional)
        assert record == cls(*required)  # the original is untouched

    def test_pickle_and_copy_round_trip(self, case):
        cls, required, optional = case
        record = cls(*required, **optional)
        for clone in (pickle.loads(pickle.dumps(record)),
                      copy.copy(record), copy.deepcopy(record)):
            assert clone == record and type(clone) is cls
            assert _values(clone) == _values(record)

    def test_frozen(self, case):
        cls, required, _ = case
        record = cls(*required)
        name = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, required[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)


def test_observation_dict_round_trip():
    for observation in (Observation(31.0, 7.5, 2, 480),
                        Observation(0.0, -0.0),
                        Observation(b_exp=1e300, b_act=3, time_us=10**15)):
        assert Observation.from_dict(observation.to_dict()) == observation
