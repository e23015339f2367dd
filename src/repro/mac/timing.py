"""Exchange timing: airtimes, NAV durations and timeout budgets.

All helpers take the :class:`~repro.phy.constants.PhyTimings` bundle so
tests can shrink the numbers.  NAV durations follow the standard: each
frame advertises the time the rest of the exchange still needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from repro.mac.frames import ack_size, cts_size, data_size, rts_size
from repro.phy.constants import PhyTimings


def with_clock_drift(timings: PhyTimings, drift_ppm: float) -> PhyTimings:
    """A node-local timing bundle with a drifted slot clock.

    The slot is scaled by ``1 + drift_ppm/1e6`` and rounded to the
    kernel's integer-microsecond grid (floored at 1 us), so only
    drifts large enough to move the slot by >= 0.5 us change
    behaviour.  Everything derived from the slot (backoff countdown
    pace, timeout slack) follows automatically because consumers read
    ``slot_us`` from this bundle.
    """
    slot = max(1, round(timings.slot_us * (1.0 + drift_ppm / 1e6)))
    return replace(timings, slot_us=slot)


@dataclass(frozen=True)
class ExchangeTiming:
    """Airtimes, NAV values and timeouts for one payload size.

    Each value is computed on first read and then kept on the instance
    (``cached_property`` writes the instance ``__dict__``, which a
    frozen dataclass allows); the fields never change, so neither do
    the values.

    Parameters
    ----------
    timings:
        PHY timing bundle.
    payload_bytes:
        DATA payload size.
    modified_protocol:
        Whether the CORRECT header extensions are carried (slightly
        larger RTS/CTS/ACK).
    """

    timings: PhyTimings
    payload_bytes: int
    modified_protocol: bool

    @cached_property
    def rts_airtime(self) -> int:
        return self.timings.frame_airtime_us(rts_size(self.modified_protocol))

    @cached_property
    def cts_airtime(self) -> int:
        return self.timings.frame_airtime_us(cts_size(self.modified_protocol))

    @cached_property
    def data_airtime(self) -> int:
        return self.timings.frame_airtime_us(data_size(self.payload_bytes))

    @cached_property
    def ack_airtime(self) -> int:
        return self.timings.frame_airtime_us(ack_size(self.modified_protocol))

    # ------------------------------------------------------------------
    # NAV durations (time remaining after the carrying frame ends)
    # ------------------------------------------------------------------
    @cached_property
    def rts_nav(self) -> int:
        """CTS + DATA + ACK plus the three interleaving SIFS gaps."""
        s = self.timings.sifs_us
        return 3 * s + self.cts_airtime + self.data_airtime + self.ack_airtime

    @cached_property
    def cts_nav(self) -> int:
        """DATA + ACK plus two SIFS gaps."""
        s = self.timings.sifs_us
        return 2 * s + self.data_airtime + self.ack_airtime

    @cached_property
    def data_nav(self) -> int:
        """ACK plus one SIFS gap."""
        return self.timings.sifs_us + self.ack_airtime

    # ------------------------------------------------------------------
    # Timeouts (measured from the end of the sender's own frame)
    # ------------------------------------------------------------------
    @cached_property
    def cts_timeout(self) -> int:
        """How long to await a CTS: SIFS + CTS airtime + 2 slots slack."""
        return self.timings.sifs_us + self.cts_airtime + 2 * self.timings.slot_us

    @cached_property
    def ack_timeout(self) -> int:
        """How long to await an ACK: SIFS + ACK airtime + 2 slots slack."""
        return self.timings.sifs_us + self.ack_airtime + 2 * self.timings.slot_us

    @cached_property
    def data_timeout(self) -> int:
        """Responder's wait for DATA after sending CTS."""
        return self.timings.sifs_us + self.data_airtime + 2 * self.timings.slot_us

    @cached_property
    def exchange_airtime(self) -> int:
        """Total busy time of one successful four-way exchange."""
        return (
            self.rts_airtime + self.cts_airtime + self.data_airtime
            + self.ack_airtime + 3 * self.timings.sifs_us
        )


@lru_cache(maxsize=64)
def exchange_timing(
    timings: PhyTimings, payload_bytes: int, modified_protocol: bool
) -> ExchangeTiming:
    """The process-wide :class:`ExchangeTiming` of one (bundle, payload,
    protocol): every MAC of every run with the same values shares one
    instance, so each value is computed once per process, not once per
    MAC."""
    return ExchangeTiming(timings, payload_bytes, modified_protocol)
