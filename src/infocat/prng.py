"""Self-contained deterministic PRNG for corpus generation.

The audit's replay contract promises that (seed, check, trial_index)
regenerates the same morphisms on any platform and Python version, so we
own the generator instead of relying on random.Random's method stability.
SplitMix64 is tiny, well studied, and plenty good for test-case shaping.
"""

from __future__ import annotations

from functools import lru_cache

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


@lru_cache(maxsize=4096)
def fnv1a(text: str) -> int:
    """64-bit FNV-1a hash, used to give each audit check its own stream.

    Cached: an audit derives one stream per (check, measure, trial) but the
    channel strings repeat across trials, and the byte loop is pure Python.
    """
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & MASK64
    return h


class SplitMix64:
    """SplitMix64 stream; deterministic across platforms by construction."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & MASK64
        return _mix(self.state)

    def randbelow(self, n: int) -> int:
        """Uniform-ish integer in [0, n); n must be positive."""
        if n <= 0:
            raise ValueError(f"randbelow needs a positive bound, not {n}")
        return (self.next_u64() * n) >> 64

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] inclusive."""
        return lo + self.randbelow(hi - lo + 1)

    def shuffle(self, items: list) -> None:
        # Fisher-Yates, fixed iteration order.
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


def trial_rng(seed: int, check: str, trial_index: int) -> SplitMix64:
    """Independent stream for one audit trial; the replay entry point."""
    return SplitMix64(_mix((seed ^ fnv1a(check)) & MASK64) ^ _mix(trial_index * _GOLDEN & MASK64))
