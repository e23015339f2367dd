"""IEEE 802.11 (1999, DSSS PHY) timing and MAC constants.

Values follow the 2 Mbps DSSS configuration the paper simulates in
ns-2: slot time 20 us, SIFS 10 us, DIFS = SIFS + 2*slot = 50 us,
CWmin = 31, CWmax = 1023.  All durations are integer microseconds to
match the kernel clock (:mod:`repro.sim.engine`).

Frame sizes follow the 802.11 MAC header formats.  The reproduction's
modified protocol adds two small fields (assigned backoff in CTS/ACK
and the attempt number in RTS); we account for them explicitly so the
modified protocol pays its real header cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


#: Duration of one backoff slot (microseconds).
SLOT_TIME_US = 20

#: Short interframe space (microseconds).
SIFS_US = 10

#: DCF interframe space: SIFS + 2 slots (microseconds).
DIFS_US = SIFS_US + 2 * SLOT_TIME_US

#: Minimum contention window (802.11 DSSS).
CW_MIN = 31

#: Maximum contention window (802.11 DSSS).
CW_MAX = 1023

#: Channel bit rate used throughout the paper's evaluation (bits/second).
CHANNEL_BIT_RATE = 2_000_000

#: PLCP preamble + header transmission time at 1 Mbps (long preamble).
PLCP_OVERHEAD_US = 192

#: MAC-level frame sizes in bytes (802.11-1999 frame formats).
RTS_SIZE_BYTES = 20
CTS_SIZE_BYTES = 14
ACK_SIZE_BYTES = 14
DATA_HEADER_BYTES = 28  # MAC header (24) + FCS (4)

#: Extra bytes the modified (CORRECT) protocol adds to carry the
#: assigned backoff (2 bytes in CTS and ACK) and the attempt number
#: (1 byte in RTS).
ASSIGNED_BACKOFF_FIELD_BYTES = 2
ATTEMPT_FIELD_BYTES = 1

#: Retry limits (802.11 short/long retry counts; the paper does not
#: override them, and with CWmax=1023 a retry cap keeps flows live).
SHORT_RETRY_LIMIT = 7
LONG_RETRY_LIMIT = 4


def transmission_time_us(payload_bytes: int, bit_rate: int = CHANNEL_BIT_RATE) -> int:
    """Airtime of a frame: PLCP overhead plus payload at ``bit_rate``.

    The result is rounded up to a whole microsecond so frames never end
    between kernel ticks.
    """
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be >= 0")
    bits = payload_bytes * 8
    body_us = -(-bits * 1_000_000 // bit_rate)  # ceil division
    return PLCP_OVERHEAD_US + int(body_us)


@dataclass(frozen=True)
class PhyTimings:
    """Bundle of PHY timings, overridable for what-if experiments.

    The defaults reproduce the paper's configuration; tests also use
    shrunken values to keep unit scenarios tiny.  Derived intervals are
    computed once per instance (the MAC reads them on every channel
    edge); ``dataclasses.replace`` builds a fresh instance, so a
    modified bundle never sees another's cached values.
    """

    slot_us: int = SLOT_TIME_US
    sifs_us: int = SIFS_US
    bit_rate: int = CHANNEL_BIT_RATE
    plcp_us: int = PLCP_OVERHEAD_US
    cw_min: int = CW_MIN
    cw_max: int = CW_MAX

    @cached_property
    def difs_us(self) -> int:
        """DIFS = SIFS + 2 * slot, per the standard."""
        return self.sifs_us + 2 * self.slot_us

    @cached_property
    def eifs_us(self) -> int:
        """EIFS = SIFS + ACK airtime + DIFS (used after corrupt frames)."""
        ack_us = self.frame_airtime_us(ACK_SIZE_BYTES)
        return self.sifs_us + ack_us + self.difs_us

    def frame_airtime_us(self, payload_bytes: int) -> int:
        """Airtime for ``payload_bytes`` at this configuration's rate."""
        bits = payload_bytes * 8
        body_us = -(-bits * 1_000_000 // self.bit_rate)
        return self.plcp_us + int(body_us)


#: Default timing bundle used by scenarios unless overridden.
DEFAULT_TIMINGS = PhyTimings()
