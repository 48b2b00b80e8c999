"""Deterministic seeded PRNG: SplitMix64 uniforms, Box-Muller normals.

The algorithms are pinned (rather than delegating to a library generator) so
streams are bit-reproducible for a given seed, independent of numpy version.
Parallel callers derive independent streams as ``SeededRng(seed + index)``.
"""

from __future__ import annotations

import numpy as np

from .errors import ParamError
from .media import _check_int

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 2.0**-53


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _check_seed(seed) -> None:
    """ParamError unless ``seed`` is an integer in [0, 2**64): every seed is
    its own stream, with no reduction modulo 2**64."""
    _check_int("seed", seed, 0)
    if seed >= 2**64:
        raise ParamError(f"seed must be below 2**64, got {seed}")


class SeededRng:
    """SplitMix64 stream with cached Box-Muller spare."""

    def __init__(self, seed: int):
        _check_seed(seed)
        self._seed = np.uint64(seed)
        self._count = 0
        self._spare: float | None = None

    def next_u64(self, n: int = 1) -> np.ndarray:
        """The next n raw 64-bit outputs of the sequential stream."""
        _check_int("n", n, 0)
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            return _mix(self._seed + idx * _GAMMA)

    def uniform(self, n: int = 1) -> np.ndarray:
        """Uniform draws in (0, 1], 53-bit resolution."""
        return ((self.next_u64(n) >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53

    def normals(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """n normal deviates via Box-Muller pairs (spare cached across calls)."""
        _check_int("n", n, 0)
        if sigma < 0:
            raise ParamError("sigma must be >= 0")
        out = np.empty(n, dtype=np.float64)
        pos = 0
        if self._spare is not None and n > 0:
            out[0] = self._spare
            self._spare = None
            pos = 1
        remaining = n - pos
        if remaining > 0:
            pairs = (remaining + 1) // 2
            u = self.uniform(2 * pairs)
            u1, u2 = u[0::2], u[1::2]
            r = np.sqrt(-2.0 * np.log(u1))
            theta = 2.0 * np.pi * u2
            z = np.empty(2 * pairs, dtype=np.float64)
            z[0::2] = r * np.cos(theta)
            z[1::2] = r * np.sin(theta)
            out[pos:] = z[:remaining]
            if remaining < 2 * pairs:
                self._spare = float(z[remaining])
            pos = n
        return mu + sigma * out
