"""String-keyed detector registry and config-string parsing.

Detectors are addressed by compact spec strings so they can travel
through ``ScenarioConfig`` fields, CLI flags and cache fingerprints
unchanged::

    "window"                      # paper defaults (W, THRESH from config)
    "window:W=64,thresh=40"
    "cusum:h=2.0,k=0.25"
    "estimator:fraction=0.5,min_samples=8"

:func:`parse_spec` splits a spec into ``(name, params)``;
:func:`make_detector` builds one detector instance from a spec and the
run's :class:`~repro.core.params.ProtocolConfig` (which supplies the
defaults a spec does not override — ``W``/``THRESH`` for the window
detector, ``cw_min`` for the normalization of the other two);
:func:`detector_factory` returns a zero-argument callable the receiver
MAC and the detection service invoke once per monitored sender.

Third-party detectors plug in through :func:`register`: a builder is
``(config, **params) -> constructor``, where the constructor is a
zero-argument callable with the family's arguments already resolved
(typically a :func:`functools.partial` of the detector class), plus
the parameter names it accepts.  It immediately becomes reachable from
every spec-string surface (CLI, figure sweeps, scenario configs).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Tuple

from repro.core.params import ProtocolConfig
from repro.detect.base import Detector
from repro.detect.cusum import CusumDetector
from repro.detect.estimator import CwminEstimatorDetector
from repro.detect.window import WindowDetector

#: Spec of the detector reproducing the paper's scheme (the default).
DEFAULT_DETECTOR = "window"


class DetectorSpecError(ValueError):
    """A detector spec string is malformed or names unknown things."""


@dataclass(frozen=True)
class _Entry:
    """One registry entry: builder plus its accepted parameter names."""

    builder: Callable[..., Callable[[], Detector]]
    params: Tuple[str, ...]
    summary: str


_REGISTRY: Dict[str, _Entry] = {}


def register(
    name: str,
    builder: Callable[..., Callable[[], Detector]],
    params: Tuple[str, ...],
    summary: str = "",
) -> None:
    """Add a detector family under ``name``.

    ``builder`` is called once per :func:`detector_factory`, as
    ``builder(config, **parsed_params)``, and must return a
    zero-argument constructor that builds a fresh detector instance
    per call (e.g. ``functools.partial(MyDetector, gain=...)``);
    ``params`` lists the parameter names specs may set (anything else
    is rejected with an error that cites this list).
    """
    if not name or any(c in name for c in ":,="):
        raise ValueError(f"invalid detector name {name!r}")
    _REGISTRY[name] = _Entry(builder=builder, params=tuple(params),
                             summary=summary)


def registered_detectors() -> Tuple[str, ...]:
    """Names of all registered detector families, sorted."""
    return tuple(sorted(_REGISTRY))


def _parse_number(name: str, key: str, raw: str) -> float:
    try:
        return int(raw) if raw.lstrip("+-").isdigit() else float(raw)
    except ValueError:
        raise DetectorSpecError(
            f"detector {name!r}: parameter {key}={raw!r} is not a number "
            f"(specs look like '{name}:{key}=1.5')"
        ) from None


def parse_spec(spec: str) -> Tuple[str, Dict[str, float]]:
    """Split ``"name:k=v,..."`` into ``(name, params)``.

    Raises :class:`DetectorSpecError` with an actionable message for
    unknown names, unknown parameters, and malformed assignments.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise DetectorSpecError(
            "empty detector spec; expected e.g. 'window' or 'cusum:h=2.0' "
            f"(registered: {', '.join(registered_detectors())})"
        )
    name, _, tail = spec.strip().partition(":")
    name = name.strip()
    entry = _REGISTRY.get(name)
    if entry is None:
        raise DetectorSpecError(
            f"unknown detector {name!r}; registered detectors: "
            f"{', '.join(registered_detectors())}"
        )
    params: Dict[str, float] = {}
    if tail.strip():
        for item in tail.split(","):
            key, eq, raw = item.partition("=")
            key = key.strip()
            raw = raw.strip()
            if not eq or not key or not raw:
                raise DetectorSpecError(
                    f"detector {name!r}: malformed parameter {item.strip()!r}; "
                    f"expected 'key=value' pairs separated by commas, e.g. "
                    f"'{name}:{entry.params[0]}=1'"
                )
            if key not in entry.params:
                raise DetectorSpecError(
                    f"detector {name!r} has no parameter {key!r}; accepted "
                    f"parameters: {', '.join(entry.params)}"
                )
            if key in params:
                raise DetectorSpecError(
                    f"detector {name!r}: parameter {key!r} given twice"
                )
            params[key] = _parse_number(name, key, raw)
    return name, params


def make_detector(spec: str, config: ProtocolConfig) -> Detector:
    """Build one detector instance from a spec string.

    ``config`` supplies defaults the spec does not override (the
    paper's W/THRESH for ``window``, ``cw_min`` scaling for the rest).
    Invalid parameter *values* (e.g. ``window:W=0``) surface as
    :class:`DetectorSpecError` too, citing the offending spec.
    """
    return detector_factory(spec, config)()


def detector_factory(
    spec: str, config: ProtocolConfig
) -> Callable[[], Detector]:
    """A zero-argument factory for per-sender detector instances.

    The spec is parsed and its arguments are resolved against
    ``config`` once, eagerly, so a bad string fails at configuration
    time rather than on first packet reception; each build is then one
    call to the family's constructor.  Values the resolution rejects
    (``window:W=nan``) raise :class:`DetectorSpecError` here; values
    only the constructor rejects (``window:W=0``) raise it on build.
    """
    name, params = parse_spec(spec)
    try:
        build = _REGISTRY[name].builder(config, **params)
    except (ValueError, OverflowError) as exc:
        raise _invalid_value(spec, exc) from None

    def factory() -> Detector:
        try:
            return build()
        except ValueError as exc:
            raise _invalid_value(spec, exc) from None

    factory.spec = spec  # type: ignore[attr-defined]
    return factory


def _invalid_value(spec: str, exc: Exception) -> DetectorSpecError:
    return DetectorSpecError(
        f"detector spec {spec!r} has an invalid value: {exc}"
    )


# ----------------------------------------------------------------------
# Built-in detector families
# ----------------------------------------------------------------------
def _build_window(
    config: ProtocolConfig, **params: float
) -> Callable[[], WindowDetector]:
    window = int(params.get("W", config.window))
    thresh = params.get("thresh", config.thresh)
    return partial(WindowDetector, window, thresh)


def _build_cusum(
    config: ProtocolConfig, **params: float
) -> Callable[[], CusumDetector]:
    return partial(
        CusumDetector,
        h=params.get("h", 2.0),
        k=params.get("k", 0.25),
        norm=params.get("norm", float(config.cw_min)),
    )


def _build_estimator(
    config: ProtocolConfig, **params: float
) -> Callable[[], CwminEstimatorDetector]:
    return partial(
        CwminEstimatorDetector,
        fraction=params.get("fraction", 0.5),
        min_samples=int(params.get("min_samples", 8)),
        window=int(params.get("window", 64)),
        cw_min=params.get("cw_min", float(config.cw_min)),
    )


register(
    "window", _build_window, ("W", "thresh"),
    "the paper's W/THRESH windowed-sum diagnosis (Section 4.3)",
)
register(
    "cusum", _build_cusum, ("h", "k", "norm"),
    "one-sided CUSUM on normalized backoff deficit (Cao et al.)",
)
register(
    "estimator", _build_estimator,
    ("fraction", "min_samples", "window", "cw_min"),
    "effective-CWmin estimate vs assigned value (Yazdani-Abyaneh & Krunz)",
)
