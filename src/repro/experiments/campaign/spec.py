"""Declarative campaign sweep specs: parse, format, expand, shard.

A campaign is the cross product of a handful of axes — scenario
family, protocol, percentage of misbehavior, detector spec, fault
profile and seed — at one simulated horizon.  Like
:func:`repro.faults.parse_profile`, the spec has a compact textual
grammar so campaigns can live on the command line, in shell history
and in CI configs; unlike the fault grammar it is also *formattable*:
:func:`format_campaign` renders any :class:`CampaignSpec` into a
canonical string and ``parse(format(spec)) == spec`` holds exactly
(the round-trip is property-tested), which is what lets a resumed
campaign verify it is continuing the same grid it started.

Grammar (axes separated by ``;`` or newlines, values inside an axis
separated by ``|``, whitespace-insensitive, ``#`` starts a comment)::

    scenario=circle:8 | circle:4+interferers | random:20/3
    protocol=correct|802.11          (default: correct)
    pm=0|50|100                      (default: 0)
    cheater=3                        (circle cheater id; default: 3)
    detector=-|cusum:h=2.0,k=0.25    (default: -, the paper's window)
    faults=-|ack-loss=0.3@4          (default: -, no fault layer)
    seeds=1-30                       (ranges and lists; default: 1)
    seconds=2.0                      (simulated horizon; default: 1)

``-`` means "absent" on the detector and fault axes.  Detector and
fault values are validated eagerly with the real parsers
(:func:`repro.detect.parse_spec`, :func:`repro.faults.parse_profile`)
so a typo fails at submit time, not 10^5 cells into the sweep.

:func:`expand_cells` walks the axes in a fixed nested order (seeds
innermost) and yields one :class:`CampaignCell` per grid point; the
combination ``protocol=802.11`` x a non-``-`` detector is skipped (the
baseline has no receiver-side monitor to host one).  The resulting
cell list is the *total order* every part of the campaign layer
shares: sharding, execution, journaling and aggregation all follow it,
which is what makes interrupted-then-resumed campaigns bit-identical
to uninterrupted ones.

:func:`shard_cells` splits a cell list round-robin across ``count``
shards; the split depends only on (spec, shard index, shard count), so
independent machines can each take one shard without coordination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.experiments.scenarios import (
    PROTOCOL_80211,
    PROTOCOL_CORRECT,
    ScenarioConfig,
)
from repro.net.topology import circle_topology, random_topology

#: Protocols a campaign may sweep.
PROTOCOLS = (PROTOCOL_CORRECT, PROTOCOL_80211)

#: Axis keys in canonical format order.
_AXIS_KEYS = ("scenario", "protocol", "pm", "cheater", "detector",
              "faults", "seeds", "seconds")


class CampaignSpecError(ValueError):
    """A campaign spec failed to parse or validate."""


@dataclass(frozen=True)
class ScenarioAxis:
    """One scenario-family value of the ``scenario`` axis.

    ``circle:N[+interferers]`` is the paper's Figure 3 setup with N
    senders (ZERO-FLOW, or TWO-FLOW with the interferers); at
    ``pm > 0`` the spec's ``cheater`` sender misbehaves.
    ``random:N/M`` is the Figure 9 setup — N randomly placed nodes per
    seed, of which M are designated cheaters and misbehave at ``pm >
    0``.  They are designated at ``pm = 0`` too (and stay honest), so
    every PM of one seed places the same network with the same flows.
    """

    kind: str
    nodes: int
    interferers: bool = False
    misbehaving: int = 0

    def __post_init__(self):
        if self.kind not in ("circle", "random"):
            raise CampaignSpecError(
                f"unknown scenario kind {self.kind!r} (circle or random)"
            )
        if self.nodes < 1:
            raise CampaignSpecError("scenario needs at least one node")
        if self.kind == "random":
            if self.nodes < 2:
                raise CampaignSpecError("random scenario needs >= 2 nodes")
            if not 0 <= self.misbehaving < self.nodes:
                raise CampaignSpecError(
                    f"random misbehaving count must be in [0, nodes), got "
                    f"{self.misbehaving}/{self.nodes}"
                )
            if self.interferers:
                raise CampaignSpecError(
                    "random scenarios have no interferer variant"
                )
        elif self.misbehaving:
            raise CampaignSpecError(
                "circle scenarios take the cheater from the 'cheater' axis, "
                "not a /M suffix"
            )

    def label(self) -> str:
        """Canonical axis-value text (``circle:8+interferers`` ...)."""
        if self.kind == "circle":
            suffix = "+interferers" if self.interferers else ""
            return f"circle:{self.nodes}{suffix}"
        return f"random:{self.nodes}/{self.misbehaving}"


def _parse_scenario(token: str) -> ScenarioAxis:
    kind, sep, rest = token.partition(":")
    kind = kind.strip().lower()
    rest = rest.strip()
    if not sep or not rest:
        raise CampaignSpecError(
            f"malformed scenario {token!r} (expected circle:N or random:N/M)"
        )
    try:
        if kind == "circle":
            interferers = rest.endswith("+interferers")
            if interferers:
                rest = rest[: -len("+interferers")].strip()
            return ScenarioAxis(
                kind="circle", nodes=int(rest), interferers=interferers
            )
        if kind == "random":
            nodes_s, sep2, misb_s = rest.partition("/")
            if not sep2:
                raise CampaignSpecError(
                    f"malformed random scenario {token!r} (expected random:N/M)"
                )
            return ScenarioAxis(
                kind="random", nodes=int(nodes_s), misbehaving=int(misb_s)
            )
    except ValueError as exc:
        if isinstance(exc, CampaignSpecError):
            raise
        raise CampaignSpecError(
            f"malformed scenario {token!r}: {exc}"
        ) from None
    raise CampaignSpecError(
        f"unknown scenario kind {kind!r} in {token!r} (circle or random)"
    )


@dataclass(frozen=True)
class CampaignSpec:
    """The full, canonical description of one campaign grid.

    Tuples are deduplicated in first-seen order (axes) or sorted
    (seeds) by the parser, so equal grids compare equal regardless of
    how the spec text spelled them.
    """

    scenarios: Tuple[ScenarioAxis, ...]
    protocols: Tuple[str, ...] = (PROTOCOL_CORRECT,)
    pm_values: Tuple[float, ...] = (0.0,)
    cheater: int = 3
    detectors: Tuple[Optional[str], ...] = (None,)
    fault_specs: Tuple[Optional[str], ...] = (None,)
    seeds: Tuple[int, ...] = (1,)
    duration_us: int = 1_000_000

    def __post_init__(self):
        if not self.scenarios:
            raise CampaignSpecError("spec needs at least one scenario")
        if not self.seeds:
            raise CampaignSpecError("spec needs at least one seed")
        if self.duration_us < 1:
            raise CampaignSpecError("seconds must be positive")
        if self.cheater < 1:
            raise CampaignSpecError("cheater must be a sender id >= 1")
        for protocol in self.protocols:
            if protocol not in PROTOCOLS:
                raise CampaignSpecError(
                    f"unknown protocol {protocol!r} (expected one of "
                    f"{PROTOCOLS})"
                )
        for pm in self.pm_values:
            if not 0.0 <= pm <= 100.0:
                raise CampaignSpecError(
                    f"pm must be in [0, 100], got {pm!r}"
                )


@dataclass(frozen=True)
class CampaignCell:
    """One grid point: a runnable config plus its stable identity.

    ``group`` is the cell key minus the seed — the unit the campaign
    aggregates means/CIs over; ``key`` adds the seed and names exactly
    one run.  The remaining fields are the cell's grid coordinates,
    recorded so the analysis layer can key datasets by typed axis
    values instead of re-parsing group strings (they default to
    "unknown" for hand-built cells fed to ``run_cells`` directly).
    """

    key: str
    group: str
    seed: int
    config: ScenarioConfig
    axis: Optional[ScenarioAxis] = None
    protocol: str = PROTOCOL_CORRECT
    pm: float = 0.0
    detector: Optional[str] = None
    fault_spec: Optional[str] = None


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def _split_values(value: str, key: str) -> List[str]:
    parts = [part.strip() for part in value.split("|")]
    if any(not part for part in parts):
        raise CampaignSpecError(f"empty value in axis {key!r}")
    deduped: List[str] = []
    for part in parts:
        if part not in deduped:
            deduped.append(part)
    return deduped


def _parse_seeds(value: str) -> Tuple[int, ...]:
    seeds: List[int] = []
    for part in _split_values(value, "seeds"):
        lo_s, sep, hi_s = part.partition("-")
        try:
            if sep and hi_s.strip():
                lo, hi = int(lo_s), int(hi_s)
                if hi < lo:
                    raise CampaignSpecError(
                        f"descending seed range {part!r}"
                    )
                seeds.extend(range(lo, hi + 1))
            else:
                seeds.append(int(part))
        except ValueError as exc:
            if isinstance(exc, CampaignSpecError):
                raise
            raise CampaignSpecError(
                f"malformed seed token {part!r}"
            ) from None
    return tuple(sorted(set(seeds)))


def _parse_float(value: str, key: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise CampaignSpecError(
            f"axis {key!r} needs a number, got {value!r}"
        ) from None
    if parsed != parsed or parsed in (float("inf"), float("-inf")):
        raise CampaignSpecError(f"axis {key!r} must be finite, got {value!r}")
    return parsed


def parse_campaign(text: str) -> CampaignSpec:
    """Parse spec text (see the module docstring for the grammar).

    Newlines count as axis separators and ``#`` starts a line comment,
    so specs read identically from a CLI argument or a small file.
    """
    tokens: List[str] = []
    for line in text.splitlines() or [text]:
        line = line.split("#", 1)[0]
        tokens.extend(line.split(";"))
    axes = {}
    for raw in tokens:
        token = raw.strip()
        if not token:
            continue
        key, sep, value = token.partition("=")
        key = key.strip().lower()
        if not sep or not value.strip():
            raise CampaignSpecError(
                f"malformed axis {token!r} (expected key=value)"
            )
        if key not in _AXIS_KEYS:
            raise CampaignSpecError(
                f"unknown axis {key!r}; expected one of {', '.join(_AXIS_KEYS)}"
            )
        if key in axes:
            raise CampaignSpecError(f"axis {key!r} given twice")
        axes[key] = value.strip()

    if "scenario" not in axes:
        raise CampaignSpecError("spec needs a scenario axis")
    scenarios = tuple(
        _parse_scenario(part)
        for part in _split_values(axes["scenario"], "scenario")
    )
    kwargs = {"scenarios": _dedupe(scenarios)}
    if "protocol" in axes:
        kwargs["protocols"] = tuple(_split_values(axes["protocol"], "protocol"))
    if "pm" in axes:
        kwargs["pm_values"] = _dedupe(tuple(
            _parse_float(part, "pm")
            for part in _split_values(axes["pm"], "pm")
        ))
    if "cheater" in axes:
        try:
            kwargs["cheater"] = int(axes["cheater"])
        except ValueError:
            raise CampaignSpecError(
                f"cheater must be a sender id, got {axes['cheater']!r}"
            ) from None
    if "detector" in axes:
        kwargs["detectors"] = tuple(
            _validated_detector(part)
            for part in _split_values(axes["detector"], "detector")
        )
    if "faults" in axes:
        kwargs["fault_specs"] = tuple(
            _validated_faults(part)
            for part in _split_values(axes["faults"], "faults")
        )
    if "seeds" in axes:
        kwargs["seeds"] = _parse_seeds(axes["seeds"])
    if "seconds" in axes:
        seconds = _parse_float(axes["seconds"], "seconds")
        if seconds <= 0:
            raise CampaignSpecError(
                f"seconds must be positive, got {seconds!r}"
            )
        kwargs["duration_us"] = int(round(seconds * 1_000_000))
    return CampaignSpec(**kwargs)


def _dedupe(values):
    deduped = []
    for value in values:
        if value not in deduped:
            deduped.append(value)
    return tuple(deduped)


def _validated_detector(token: str) -> Optional[str]:
    if token == "-":
        return None
    from repro.detect import DetectorSpecError, parse_spec

    try:
        parse_spec(token)
    except DetectorSpecError as exc:
        raise CampaignSpecError(f"bad detector spec {token!r}: {exc}") from None
    return token


def _validated_faults(token: str) -> Optional[str]:
    if token == "-":
        return None
    from repro.faults import parse_profile

    try:
        parse_profile(token)
    except ValueError as exc:
        raise CampaignSpecError(f"bad fault spec {token!r}: {exc}") from None
    return token


# ----------------------------------------------------------------------
# Formatting
# ----------------------------------------------------------------------
def _format_seeds(seeds: Sequence[int]) -> str:
    """Compress sorted seeds into ``a-b`` runs (``1-5|9|12-13``)."""
    parts: List[str] = []
    run_start = prev = seeds[0]
    for seed in list(seeds[1:]) + [None]:  # type: ignore[list-item]
        if seed is not None and seed == prev + 1:
            prev = seed
            continue
        if run_start == prev:
            parts.append(str(run_start))
        elif prev == run_start + 1:
            parts.extend([str(run_start), str(prev)])
        else:
            parts.append(f"{run_start}-{prev}")
        if seed is not None:
            run_start = prev = seed
    return "|".join(parts)


def format_campaign(spec: CampaignSpec) -> str:
    """Canonical one-line text of ``spec``; inverse of :func:`parse_campaign`.

    Floats are rendered with ``repr`` (shortest exact form), so the
    round trip is lossless: ``parse_campaign(format_campaign(s)) == s``.
    """
    axes = [
        ("scenario", "|".join(s.label() for s in spec.scenarios)),
        ("protocol", "|".join(spec.protocols)),
        ("pm", "|".join(repr(pm) for pm in spec.pm_values)),
        ("cheater", str(spec.cheater)),
        ("detector", "|".join(d if d is not None else "-"
                              for d in spec.detectors)),
        ("faults", "|".join(f if f is not None else "-"
                            for f in spec.fault_specs)),
        ("seeds", _format_seeds(spec.seeds)),
        ("seconds", repr(spec.duration_us / 1_000_000)),
    ]
    return "; ".join(f"{key}={value}" for key, value in axes)


# ----------------------------------------------------------------------
# Expansion and sharding
# ----------------------------------------------------------------------
def _build_topology(axis: ScenarioAxis, pm: float, cheater: int, seed: int):
    if axis.kind == "circle":
        if pm > 0 and cheater > axis.nodes:
            raise CampaignSpecError(
                f"cheater {cheater} does not exist in {axis.label()} "
                f"(senders are 1..{axis.nodes})"
            )
        return circle_topology(
            axis.nodes,
            misbehaving=(cheater,) if pm > 0 else (),
            pm_percent=pm,
            with_interferers=axis.interferers,
        )
    return random_topology(
        random.Random(seed),
        n_nodes=axis.nodes,
        n_misbehaving=axis.misbehaving,
        pm_percent=pm,
    )


def expand_cells(spec: CampaignSpec) -> List[CampaignCell]:
    """The spec's grid as an ordered cell list (seeds innermost).

    The 802.11 baseline has no receiver-side monitor, so grid points
    pairing it with a non-``-`` detector are skipped, exactly like the
    single-run CLI refuses that combination.
    """
    cells: List[CampaignCell] = []
    for axis in spec.scenarios:
        for protocol in spec.protocols:
            for pm in spec.pm_values:
                for detector in spec.detectors:
                    if protocol == PROTOCOL_80211 and detector is not None:
                        continue
                    for fault_spec in spec.fault_specs:
                        faults = None
                        if fault_spec is not None:
                            from repro.faults import parse_profile

                            faults = parse_profile(fault_spec)
                        group = (
                            f"{axis.label()}/{protocol}/pm={pm:g}"
                            f"/det={detector or '-'}"
                            f"/faults={fault_spec or '-'}"
                        )
                        for seed in spec.seeds:
                            topology = _build_topology(
                                axis, pm, spec.cheater, seed
                            )
                            cells.append(CampaignCell(
                                key=f"{group}/seed={seed}",
                                group=group,
                                seed=seed,
                                config=ScenarioConfig(
                                    topology=topology,
                                    protocol=protocol,
                                    duration_us=spec.duration_us,
                                    seed=seed,
                                    faults=faults,
                                    detector=detector,
                                ),
                                axis=axis,
                                protocol=protocol,
                                pm=pm,
                                detector=detector,
                                fault_spec=fault_spec,
                            ))
    return cells


def shard_cells(
    cells: Sequence[CampaignCell], index: int, count: int
) -> List[CampaignCell]:
    """Round-robin shard ``index`` of ``count`` (deterministic split).

    Round-robin (rather than contiguous slabs) keeps every shard a
    representative cross-section of the grid, so partial fleets still
    yield usable aggregates for every cell group.
    """
    if count < 1:
        raise CampaignSpecError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise CampaignSpecError(
            f"shard index must be in [0, {count}), got {index}"
        )
    return list(cells[index::count])


__all__ = [
    "CampaignCell",
    "CampaignSpec",
    "CampaignSpecError",
    "ScenarioAxis",
    "expand_cells",
    "format_campaign",
    "parse_campaign",
    "shard_cells",
]
