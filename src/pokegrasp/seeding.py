"""Deterministic seed derivation.

Per-trial seeds are derived from the master seed and the trial's indices
with a fixed 64-bit mixing function so that any implementation of the
same scheme reproduces them:

    state = master
    for part in parts:
        state = splitmix64(state XOR part)        (all mod 2^64)

where splitmix64 is the standard finalizer
(x += 0x9E3779B97F4A7C15; x ^= x >> 30; x *= 0xBF58476D1CE4E5B9;
 x ^= x >> 27; x *= 0x94D049BB133111EB; x ^= x >> 31).
"""
from __future__ import annotations

import operator

import numpy as np

from .errors import InvalidConfig

MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def _word(v) -> int:
    """``v`` mod 2^64, for a Python or numpy integer; InvalidConfig otherwise."""
    try:
        return operator.index(v) & MASK64
    except TypeError:
        raise InvalidConfig(f"seeds must be integers, not {type(v).__name__}") from None


def mix(master: int, *parts: int) -> int:
    state = _word(master)
    for p in parts:
        state = splitmix64(state ^ _word(p))
    return state


def rng_for(master: int, *parts: int) -> np.random.Generator:
    return np.random.default_rng(mix(master, *parts))
