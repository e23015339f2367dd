"""Wire codec of the detection service: one JSON object per line.

A wire record is the versioned :meth:`Observation.to_dict` payload
plus the one thing the service adds — the sender the observation
judges::

    {"v": 1, "sender": "3", "b_exp": 31.0, "b_act": 12.0,
     "retries": 1, "time_us": 48211}

Records travel as JSONL (one object per ``\\n``-terminated line) over
stdin and TCP.  Decoding is strict end to end: the JSON layer rejects
non-objects and bad senders here, and the observation layer rejects
unknown/missing/mistyped fields in
:meth:`repro.detect.Observation.from_dict` — every failure carries an
actionable message naming the offending token, because a silently
mis-read observation would corrupt verdicts downstream.

:func:`decode_record` has two paths with one contract.  A line in the
*canonical form* — :func:`encode_record`'s compact sorted-key output
with an escape-free sender and exponent-free backoffs, e.g.
``{"b_act":12.0,"b_exp":31.0,"retries":1,"sender":"3","time_us":48211,"v":1}``
— is matched by one anchored regex and decoded without ``json.loads``
or :meth:`~repro.detect.Observation.from_dict`.  Every other line,
and every line the regex rejects, takes the strict path, so any valid
JSON spelling of a record is still accepted (at strict-path speed)
and every error message comes from the strict path alone.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Iterator, Optional, Tuple

from repro.detect.base import (
    OBSERVATION_SCHEMA_VERSION,
    Observation,
    ObservationDecodeError,
)

#: The service speaks the observation schema's version: the sender key
#: is the only field the wire layer adds on top of it.
WIRE_VERSION = OBSERVATION_SCHEMA_VERSION

#: Longest accepted sender key (wire hygiene: a malicious or corrupt
#: line must not be able to intern arbitrarily large keys).
MAX_SENDER_LENGTH = 256


class WireError(ValueError):
    """A wire line is not a valid observation record."""


def encode_record(sender: str, observation: Observation) -> str:
    """One wire line (no trailing newline) for ``observation``."""
    record = observation.to_dict()
    record["sender"] = sender
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


#: What ``encode_record``'s compact sorted JSON puts before the sender
#: value — the anchor :func:`sender_of_line` scans for.
_SENDER_MARKER = '"sender":"'


def sender_of_line(line: str) -> Optional[str]:
    """Best-effort sender key of a wire line, without a JSON parse.

    The multi-worker front-end routes each line by ``crc32(sender)``
    before any worker decodes it; a full :func:`json.loads` per line
    would put the whole decode cost back on the routing process.  This
    scans for the ``"sender":"..."`` span that :func:`encode_record`'s
    compact sorted JSON always produces.  Returns ``None`` when the
    span is absent, when the line holds any JSON escape (an escaped
    sender, or a key escaped into spelling ``sender``), or when a
    second ``"sender"`` key follows the span (JSON keeps the *last*
    duplicate) — callers then fall back to :func:`decode_record`,
    which settles whether the line is malformed or merely exotic.
    Never wrong, only occasionally undecided: a non-``None`` return
    always equals the sender :func:`decode_record` would yield.
    """
    if "\\" in line:
        return None
    start = line.find(_SENDER_MARKER)
    if start < 0:
        return None
    start += len(_SENDER_MARKER)
    end = line.find('"', start)
    if end <= start or end - start > MAX_SENDER_LENGTH:
        return None
    if line.find('"sender"', end + 1) >= 0:
        return None
    return line[start:end]


#: A backoff in the canonical form: a JSON number without exponent or
#: leading zeros.  At most 308 integer digits keeps every match below
#: 1e308, so it is always a finite float and never nears Python's
#: int-string digit limit.
_BACKOFF = r"(-?(?:0|[1-9][0-9]{0,307})(?:\.[0-9]{1,32})?)"

#: :func:`encode_record`'s exact output for an escape-free sender: keys
#: sorted, no whitespace, ``retries >= 1`` and ``time_us >= 0`` as
#: plain integers, a sender of 1..MAX_SENDER_LENGTH characters with no
#: quote, backslash or control character.  Anything else — including
#: every line the strict path would reject — fails to match.
_CANONICAL = re.compile(
    r'\{"b_act":' + _BACKOFF + r',"b_exp":' + _BACKOFF
    + r',"retries":([1-9][0-9]{0,17})'
    + r',"sender":"([^"\\\x00-\x1f]{1,%d})"' % MAX_SENDER_LENGTH
    + r',"time_us":(0|[1-9][0-9]{0,17}),"v":1\}'
)


def _backoff(token: str) -> float:
    # An integer literal decodes through int, as json.loads does, so
    # "-0" is 0.0 (float("-0") would be -0.0).
    return float(token) if "." in token else float(int(token))


def decode_record(line: str) -> Tuple[str, Observation]:
    """Parse one wire line into ``(sender, observation)``.

    Raises :class:`WireError` with a message naming what is wrong:
    invalid JSON, a non-object payload, a missing/empty/oversized/
    non-string ``sender``, or any observation-schema violation
    (reported through :class:`~repro.detect.ObservationDecodeError`'s
    message).  Canonical lines (see the module docstring) skip
    ``json.loads`` and :meth:`Observation.from_dict`; the result is
    the same either way.
    """
    match = _CANONICAL.fullmatch(line)
    if match is None:
        return _decode_strict(line)
    b_act, b_exp, retries, sender, time_us = match.groups()
    return sender, Observation(
        _backoff(b_exp), _backoff(b_act), int(retries), int(time_us)
    )


class _OversizedInt:
    """Stands in for an integer literal too long for :func:`int`."""

    def __init__(self, token: str):
        self.digits = len(token.lstrip("-"))


def _int_or_oversized(token: str) -> object:
    try:
        return int(token)
    except ValueError:
        return _OversizedInt(token)


def _oversized_int_error(line: str) -> WireError:
    """Why :func:`json.loads` refused ``line`` with a bare ValueError:
    an integer literal past Python's int-string digit limit
    (``sys.get_int_max_str_digits``), named by field where it is one."""
    try:
        data = json.loads(line, parse_int=_int_or_oversized)
    except (ValueError, RecursionError):  # also malformed past the literal
        data = None
    if isinstance(data, dict):
        for name, value in data.items():
            if isinstance(value, _OversizedInt):
                return WireError(
                    f"wire field {name!r} is an integer literal of "
                    f"{value.digits} digits, too long to decode"
                )
    return WireError("line holds an integer literal too long to decode")


def _decode_strict(line: str) -> Tuple[str, Observation]:
    """:func:`decode_record` for any line: ``json.loads`` + ``from_dict``."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise WireError(f"line is not valid JSON: {exc}") from None
    except RecursionError:
        raise WireError("line is not valid JSON: nested too deeply") from None
    except ValueError:
        raise _oversized_int_error(line) from None
    if not isinstance(data, dict):
        raise WireError(
            f"wire record must be a JSON object, got {type(data).__name__}"
        )
    if "sender" not in data:
        raise WireError(
            "wire record has no 'sender' field (which sender does this "
            "observation judge?)"
        )
    sender = data.pop("sender")
    if not isinstance(sender, str) or not sender:
        raise WireError(
            f"wire field 'sender' must be a non-empty string, "
            f"got {sender!r}"
        )
    if len(sender) > MAX_SENDER_LENGTH:
        raise WireError(
            f"wire field 'sender' exceeds {MAX_SENDER_LENGTH} characters "
            f"({len(sender)})"
        )
    try:
        observation = Observation.from_dict(data)
    except ObservationDecodeError as exc:
        raise WireError(str(exc)) from None
    return sender, observation


def encode_stream(
    records: Iterable[Tuple[str, Observation]]
) -> Iterator[str]:
    """Encode ``(sender, observation)`` pairs as wire lines."""
    for sender, observation in records:
        yield encode_record(sender, observation)


def decode_lines(lines: Iterable[str]) -> Iterator[Tuple[str, Observation]]:
    """Decode wire lines, skipping blank lines (keep-alives)."""
    for line in lines:
        line = line.strip()
        if line:
            yield decode_record(line)
