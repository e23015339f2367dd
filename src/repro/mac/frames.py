"""IEEE 802.11 frame records for the RTS/CTS/DATA/ACK exchange.

Frames carry the standard fields plus the two additions the paper's
modified protocol makes:

* RTS gains an *attempt number* (Section 4.1) so the receiver can
  reconstruct deterministic retransmission backoffs, and
* CTS and ACK gain an *assigned backoff* (Section 3.2) dictating the
  sender's next backoff.

Both fields exist on every frame object but are only meaningful (and
only add header bytes) under the modified protocol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.phy.constants import (
    ACK_SIZE_BYTES,
    ASSIGNED_BACKOFF_FIELD_BYTES,
    ATTEMPT_FIELD_BYTES,
    CTS_SIZE_BYTES,
    DATA_HEADER_BYTES,
    RTS_SIZE_BYTES,
)


class FrameKind(enum.Enum):
    """The four DCF exchange frame types."""

    RTS = "rts"
    CTS = "cts"
    DATA = "data"
    ACK = "ack"


@dataclass(frozen=True, init=False)
class Frame:
    """One MAC frame.

    Attributes
    ----------
    kind:
        RTS / CTS / DATA / ACK.
    src / dst:
        Node identifiers (every frame here is unicast).
    size_bytes:
        Total size on air, including headers and any protocol
        extension fields.
    duration_us:
        NAV value: time the exchange still needs *after* this frame
        ends.  Overhearers defer for this long.
    seq:
        Sender-local packet sequence number (DATA bookkeeping).
    attempt:
        Attempt number advertised in an RTS (0 on other frames).
    assigned_backoff:
        Backoff assigned by the receiver in CTS/ACK under the modified
        protocol; -1 when absent.
    payload_bytes:
        Application payload carried by a DATA frame.
    """

    kind: FrameKind
    src: int
    dst: int
    size_bytes: int
    duration_us: int
    seq: int = 0
    attempt: int = 0
    assigned_backoff: int = -1
    payload_bytes: int = 0

    def __init__(
        self,
        kind: FrameKind,
        src: int,
        dst: int,
        size_bytes: int,
        duration_us: int,
        seq: int = 0,
        attempt: int = 0,
        assigned_backoff: int = -1,
        payload_bytes: int = 0,
    ):
        # Fills the instance dict directly: the dataclass-generated
        # frozen __init__ goes through object.__setattr__ per field, at
        # about twice the cost, and every transmission builds a frame.  Equality, hashing, repr, dataclasses.replace and
        # frozenness still come from the dataclass machinery.
        fields = self.__dict__
        fields["kind"] = kind
        fields["src"] = src
        fields["dst"] = dst
        fields["size_bytes"] = size_bytes
        fields["duration_us"] = duration_us
        fields["seq"] = seq
        fields["attempt"] = attempt
        fields["assigned_backoff"] = assigned_backoff
        fields["payload_bytes"] = payload_bytes


def rts_size(modified_protocol: bool) -> int:
    """RTS size, including the attempt field under the modified protocol."""
    return RTS_SIZE_BYTES + (ATTEMPT_FIELD_BYTES if modified_protocol else 0)


def cts_size(modified_protocol: bool) -> int:
    """CTS size, including the assigned-backoff field when modified."""
    return CTS_SIZE_BYTES + (ASSIGNED_BACKOFF_FIELD_BYTES if modified_protocol else 0)


def ack_size(modified_protocol: bool) -> int:
    """ACK size, including the assigned-backoff field when modified."""
    return ACK_SIZE_BYTES + (ASSIGNED_BACKOFF_FIELD_BYTES if modified_protocol else 0)


def data_size(payload_bytes: int) -> int:
    """DATA frame size: payload plus MAC header and FCS."""
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be >= 0")
    return payload_bytes + DATA_HEADER_BYTES
