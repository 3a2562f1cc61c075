"""Shared seeded reconnect backoff (exponential, with per-key jitter).

Message-level LDP session recovery and the controller channel's
per-node reconnect loop (``repro.control.controller``) share one
policy.  LDP retries without jitter; the controller draws a seeded
jitter so same-instant releases do not produce a thundering herd of
synchronized retries.

The schedule contract is bit-for-bit stable:

* attempt ``0`` (the first retry after a drop) waits ``initial``;
* attempt ``n >= 1`` waits ``min(initial * 2**n, maximum)``;
* with ``jitter > 0`` every delay is scaled by a factor drawn from a
  per-key :class:`random.Random` seeded from ``(seed << 16) ^
  crc32("a|b")`` -- one draw per scheduled delay, in scheduling order
  -- so the same (seed, key, drop sequence) always yields the same
  schedule, while distinct keys decorrelate.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, Tuple

Key = Tuple[str, str]


def jitter_rng(seed: int, key: Key) -> random.Random:
    """The deterministic per-key RNG the jittered schedule draws from."""
    salt = zlib.crc32(f"{key[0]}|{key[1]}".encode("utf-8"))
    return random.Random((seed << 16) ^ salt)


class ReconnectBackoff:
    """Exponential backoff with seeded per-key jitter.

    Pure policy: it computes delays and exhaustion, the caller owns the
    timers and attempt counters.  ``jitter == 0`` (the default) returns
    every delay untouched, bit for bit -- legacy schedules stay
    byte-identical.
    """

    def __init__(
        self,
        initial: float = 50e-3,
        maximum: float = 2.0,
        max_retries: int = 20,
        jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not (0.0 <= jitter < 1.0):
            raise ValueError("retry_jitter must be in [0, 1)")
        self.initial = initial
        self.maximum = maximum
        self.max_retries = max_retries
        self.jitter = jitter
        self.seed = seed
        self._rngs: Dict[Key, random.Random] = {}

    def jittered(self, key: Key, delay: float) -> float:
        """Apply the seeded per-key jitter to a backoff delay."""
        if not self.jitter:
            return delay
        rng = self._rngs.get(key)
        if rng is None:
            rng = jitter_rng(self.seed, key)
            self._rngs[key] = rng
        return delay * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def first_delay(self, key: Key) -> float:
        """The wait before the first retry after a drop."""
        return self.jittered(key, self.initial)

    def next_delay(self, key: Key, attempt: int) -> float:
        """The wait after (1-based) ``attempt`` retries have run."""
        return self.jittered(
            key, min(self.initial * (2.0 ** attempt), self.maximum)
        )

    def exhausted(self, attempt: int) -> bool:
        """True once ``attempt`` exceeds the retry budget."""
        return attempt > self.max_retries

    def forget(self, key: Key) -> None:
        """Drop the per-key RNG (a fresh adoption restarts the draw
        sequence deterministically)."""
        self._rngs.pop(key, None)
