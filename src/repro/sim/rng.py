"""Namespaced, reproducible random-number streams.

The paper's evaluation averages 30 seeded runs and uses "the same set
of seeds for different data points".  To reproduce that discipline we
derive one independent ``random.Random`` stream per (run seed, purpose)
pair.  Purposes are strings such as ``"backoff/node3"`` or
``"shadowing/medium"``; deriving streams by name means that adding a
new consumer of randomness does not shift the samples seen by existing
consumers, so results stay comparable across code revisions.

Streams are derived with BLAKE2b over ``(master_seed, name)`` which
gives well-separated 64-bit seeds without any cross-stream correlation
in practice.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, Iterable, List


class RngRegistry:
    """Factory of named, independently seeded random streams.

    Parameters
    ----------
    master_seed:
        The run's seed.  Two registries with the same master seed hand
        out identical streams for identical names.
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def derive_seed(self, name: str) -> int:
        """Return the 64-bit seed assigned to stream ``name``."""
        digest = hashlib.blake2b(
            f"{self.master_seed}:{name}".encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream called ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(self.derive_seed(name))
            self._streams[name] = stream
        return stream

    def streams(self) -> Iterable[str]:
        """Names of all streams created so far (for diagnostics)."""
        return list(self._streams)

    def has_stream(self, name: str) -> bool:
        """Whether ``name`` was ever requested — without creating it.

        The determinism tests use this to assert that disabled
        subsystems (e.g. fault injection with a no-op profile) never
        instantiate their streams.
        """
        return name in self._streams


def geometric_skip(rng: random.Random, p_busy: float) -> int:
    """Sample how many slots pass before the next *idle* slot.

    During a marginally-sensed transmission each slot is independently
    busy with probability ``p_busy``.  Instead of flipping a coin per
    slot, the number of consecutive busy slots before the next idle one
    is geometric; this collapses long busy streaks into one RNG draw.

    Returns the count of busy slots preceding the idle slot, i.e. the
    idle slot is the ``(returned + 1)``-th slot from now.
    """
    if p_busy <= 0.0:
        return 0
    if p_busy >= 1.0:
        raise ValueError("p_busy must be < 1 for an idle slot to exist")
    u = rng.random()
    # P(K = k) = p_busy^k * (1 - p_busy);  K = floor(log(u)/log(p_busy))
    return int(math.log(u) / math.log(p_busy)) if u > 0.0 else 0


def binomial(rng: random.Random, n: int, p: float) -> int:
    """Binomial(n, p) sample using only the supplied stream.

    Used for lazily counting how many slots of a marginal transmission
    a node sensed busy.  A normal approximation is used for large ``n``
    (n*p*(1-p) > 25) which is plenty accurate for slot counting, and an
    exact inversion loop otherwise.  Results are clamped to [0, n].
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return n
    variance = n * p * (1.0 - p)
    if variance > 25.0:
        sample = rng.gauss(n * p, math.sqrt(variance))
        return max(0, min(n, round(sample)))
    if n <= 32:
        # Bernoulli sum; a plain loop beats the equivalent genexpr by
        # ~2x and draws the exact same stream.
        draw = rng.random
        count = 0
        for _ in range(n):
            if draw() < p:
                count += 1
        return count
    # Inversion by counting geometric gaps between successes.
    count = 0
    position = 0
    log_q = math.log(1.0 - p)
    if log_q == 0.0:  # p below float resolution of (1 - p)
        return 0
    while True:
        u = rng.random()
        gap = int(math.log(u) / log_q) if u > 0.0 else n
        position += gap + 1
        if position > n:
            return count
        count += 1


def sample_mean(values: List[float]) -> float:
    """Arithmetic mean; 0.0 for an empty list (metrics convenience)."""
    return sum(values) / len(values) if values else 0.0
