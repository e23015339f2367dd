"""Content-addressed on-disk cache of simulation runs.

A run is fully determined by its :class:`ScenarioConfig` (the seed is
a config field) plus the protocol-relevant source code, so its
:class:`RunResult` can be memoised on disk and replayed instead of
re-simulated.  The cache key is::

    sha256(config_fingerprint(config) + ":" + code_version())

* :func:`config_fingerprint` canonicalises the config — dataclasses
  are walked field by field, dicts are sorted, floats use their
  shortest ``repr`` — into a JSON document that is stable across
  processes and Python hash randomisation, once per config instance.
  Objects without a stable ``repr`` (anything printing an ``at
  0x...`` address) make the config *uncacheable*:
  :class:`UncacheableConfigError` is raised and the executor simply
  runs such configs every time.
* :func:`code_version` hashes every protocol-relevant source file
  (``repro.sim / phy / mac / net / core / detect / metrics`` and
  ``experiments/scenarios.py``), so editing the simulator invalidates
  all prior entries while doc/harness edits (figures, report, CLI)
  keep the cache warm.

The cache is off unless ``REPRO_CACHE`` is set (see
:func:`repro.experiments.settings.cache_enabled`); entries live under
``REPRO_CACHE_DIR`` (default ``~/.cache/repro/runs``) as one pickle
per run.  ``python -m repro cache`` inspects or clears them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import pickle
import sys
from functools import lru_cache
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.experiments.scenarios import RunResult, ScenarioConfig
from repro.experiments.settings import cache_enabled


class UncacheableConfigError(ValueError):
    """A config contains an object without a stable representation."""


#: Packages (relative to the ``repro`` package root) whose sources make
#: up the protocol-relevant code version.  Harness-only modules
#: (figures, report, plots, export, CLI) are deliberately excluded:
#: they consume results and cannot change them.
_VERSIONED_SUBPACKAGES = ("core", "detect", "mac", "metrics", "net", "phy",
                          "sim")
_VERSIONED_FILES = ("experiments/scenarios.py",)


def _canonical(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-stable primitives."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            type(obj).__name__,
            [
                [f.name, _canonical(getattr(obj, f.name))]
                for f in dataclasses.fields(obj)
            ],
        ]
    if isinstance(obj, dict):
        return [
            "dict",
            sorted(
                ([_canonical(k), _canonical(v)] for k, v in obj.items()),
                key=repr,
            ),
        ]
    if isinstance(obj, (list, tuple)):
        return ["seq", [_canonical(v) for v in obj]]
    if isinstance(obj, (set, frozenset)):
        return ["set", sorted((_canonical(v) for v in obj), key=repr)]
    text = repr(obj)
    if " at 0x" in text:
        raise UncacheableConfigError(
            f"{type(obj).__name__} has no stable repr ({text}); give it a "
            "deterministic __repr__ to make configs using it cacheable"
        )
    return [type(obj).__name__, text]


#: JSON string encoder ``json.dumps`` uses by default (ASCII output).
_json_str = json.encoder.encode_basestring_ascii

#: Per dataclass type: ``(field names, text before each field's value,
#: closing text)``, or None for a type :func:`_write` must hand to the
#: reference path.
_LAYOUTS: Dict[type, Optional[Tuple[Tuple[str, ...], Tuple[str, ...], str]]] = {}


def _layout(cls: type):
    """The cached JSON layout of dataclass type ``cls`` (or None)."""
    try:
        return _LAYOUTS[cls]
    except KeyError:
        pass
    layout = None
    # _canonical tests int/str/float before dataclasses, so a dataclass
    # deriving from one of those is not laid out field by field.
    if dataclasses.is_dataclass(cls) and not issubclass(cls, (int, str, float)):
        names = tuple(f.name for f in dataclasses.fields(cls))
        head = "[" + _json_str(cls.__name__) + ",["
        prefixes = tuple(
            (head + "[" if i == 0 else "],[") + _json_str(name) + ","
            for i, name in enumerate(names)
        )
        layout = (names, prefixes, "]]]" if names else head + "]]")
    _LAYOUTS[cls] = layout
    return layout


def _int_key_order(key: int) -> str:
    # _canonical sorts dict items by repr([key, value]); for distinct
    # int keys that is decided by the key text followed by ", ", and
    # "," sorts below every digit.
    return repr(key) + ","


def _write(obj: Any, out: List[str]) -> None:
    """Append ``obj``'s canonical JSON text to ``out``.

    Exact builtin types, int-keyed dicts and dataclasses take the fast
    paths; anything else (subclasses, str-keyed dicts, sets, enums,
    arbitrary objects) is written by the reference path.
    """
    cls = type(obj)
    if cls is str:
        out.append(_json_str(obj))
    elif cls is int:
        out.append(repr(obj))
    elif cls is float:
        out.append('"' + repr(obj) + '"')
    elif obj is None:
        out.append("null")
    elif cls is bool:
        out.append("true" if obj else "false")
    elif cls is list or cls is tuple:
        out.append('["seq",[')
        first = True
        for item in obj:
            if not first:
                out.append(",")
            first = False
            _write(item, out)
        out.append("]]")
    elif cls is dict and all(type(key) is int for key in obj):
        out.append('["dict",[')
        first = True
        for key in sorted(obj, key=_int_key_order):
            out.append("[" if first else ",[")
            first = False
            out.append(repr(key))
            out.append(",")
            _write(obj[key], out)
            out.append("]")
        out.append("]]")
    else:
        layout = _layout(cls)
        if layout is None:
            out.append(json.dumps(_canonical(obj), separators=(",", ":")))
            return
        names, prefixes, close = layout
        for name, prefix in zip(names, prefixes):
            out.append(prefix)
            _write(getattr(obj, name), out)
        out.append(close)


def canonical_json(obj: Any) -> str:
    """``obj``'s canonical JSON document, the text fingerprints hash.

    Identical to ``json.dumps(_canonical(obj), separators=(",", ":"))``
    (the reference definition), written directly without building the
    intermediate lists.
    """
    out: List[str] = []
    _write(obj, out)
    return "".join(out)


def canonical_digest(obj: Any) -> str:
    """sha256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def config_fingerprint(config: ScenarioConfig) -> str:
    """Stable hex digest identifying one ``(scenario, seed)`` run.

    Computed once per config instance (:attr:`ScenarioConfig.fingerprint`),
    so the campaign orchestrator, the executor's in-batch dedup and the
    run cache share one canonicalisation.  Raises
    :class:`UncacheableConfigError` when the config embeds an object
    (e.g. an ad-hoc policy) whose repr is not deterministic.
    """
    return config.fingerprint


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of the protocol-relevant source tree (see module doc)."""
    import repro

    root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256()
    files: List[pathlib.Path] = []
    for sub in _VERSIONED_SUBPACKAGES:
        files.extend((root / sub).rglob("*.py"))
    files.extend(root / rel for rel in _VERSIONED_FILES)
    for path in sorted(files):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def cache_dir() -> pathlib.Path:
    """Cache directory: ``REPRO_CACHE_DIR`` or ``~/.cache/repro/runs``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro" / "runs"


#: Directories already warned about (warn once per process, not once
#: per sweep point).
_WARNED_DIRS: Set[str] = set()


def _warn_unwritable(directory: pathlib.Path, error: Exception) -> None:
    key = str(directory)
    if key in _WARNED_DIRS:
        return
    _WARNED_DIRS.add(key)
    print(
        f"[cache] warning: cache directory {directory} is unusable "
        f"({type(error).__name__}: {error}); continuing uncached",
        file=sys.stderr,
    )


class RunCache:
    """One pickle per run, addressed by config + code-version digest.

    An unusable directory (read-only filesystem, permission denied,
    quota...) never aborts a sweep: the cache warns once on stderr,
    marks itself :attr:`disabled`, and every subsequent ``get``/``put``
    is a cheap no-op — runs simply execute uncached.
    """

    def __init__(self, directory: os.PathLike | str):
        self.directory = pathlib.Path(directory)
        self.disabled = False
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            self.disabled = True
            _warn_unwritable(self.directory, exc)

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    def key_for(self, config: ScenarioConfig) -> str:
        """Cache key; raises ``UncacheableConfigError`` when unstable."""
        fingerprint = config_fingerprint(config)
        stamp = f"{fingerprint}:{code_version()}"
        return hashlib.sha256(stamp.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.pkl"

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, config: ScenarioConfig) -> Optional[RunResult]:
        """The cached result for ``config``, or None on a miss.

        Corrupt entries (interrupted writes, incompatible pickles) are
        deleted and treated as misses.
        """
        if self.disabled:
            return None
        try:
            path = self._path(self.key_for(config))
        except UncacheableConfigError:
            return None
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None

    def put(self, config: ScenarioConfig, result: RunResult) -> bool:
        """Store ``result``; returns False for uncacheable configs.

        Writes are atomic (tmp file + rename) so concurrent readers
        never observe a partial entry.  A filesystem-level failure
        (read-only mount, permissions, quota) disables the cache for
        the rest of the process — with a single stderr warning —
        instead of failing once per sweep point.
        """
        if self.disabled:
            return False
        try:
            path = self._path(self.key_for(config))
        except UncacheableConfigError:
            return False
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with tmp.open("wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError as exc:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            self.disabled = True
            _warn_unwritable(self.directory, exc)
            return False
        except Exception:
            tmp.unlink(missing_ok=True)
            return False
        return True

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def entries(self) -> List[pathlib.Path]:
        return sorted(self.directory.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def stats(self) -> Dict[str, object]:
        entries = self.entries()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "code_version": code_version(),
        }


def active_cache() -> Optional[RunCache]:
    """The env-selected cache: a :class:`RunCache` iff ``REPRO_CACHE``."""
    if not cache_enabled():
        return None
    return RunCache(cache_dir())


__all__ = [
    "RunCache",
    "UncacheableConfigError",
    "active_cache",
    "cache_dir",
    "canonical_digest",
    "canonical_json",
    "code_version",
    "config_fingerprint",
]
