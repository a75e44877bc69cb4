"""Deterministic seeded random stream used by the generator and the trainer.

The stream is a fixed, named algorithm so that files produced from a seed can be
reproduced exactly by any implementation, in any language:

* raw 64-bit outputs: SplitMix64 evaluated counter-style, output k is
  ``mix(seed + (k+1) * 0x9E3779B97F4A7C15 mod 2^64)`` with the standard
  finalizer (xor-shift 30, mul 0xBF58476D1CE4E5B9, xor-shift 27,
  mul 0x94D049BB133111EB, xor-shift 31);
* uniforms in [0, 1): ``(z >> 11) * 2^-53``;
* normal variates: Box-Muller, each variate consuming two consecutive raw
  outputs a, b: ``sqrt(-2 ln u1) * cos(2 pi u2)`` with
  ``u1 = ((a >> 11) + 1) * 2^-53`` (open at zero) and ``u2 = (b >> 11) * 2^-53``.
  The sine branch is discarded, so variate k always consumes outputs 2k, 2k+1.

The identifier for this contract is `splitmix64-boxmuller-cos`.
"""

from __future__ import annotations

import numpy as np

ALGORITHM_ID = "splitmix64-boxmuller-cos"

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0 ** -53


def _finalize(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * _MIX1
    z = z ^ (z >> np.uint64(27))
    z = z * _MIX2
    return z ^ (z >> np.uint64(31))


class RandomStream:
    """Counter-based SplitMix64 stream with vectorized draws."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed % (1 << 64))
        self._count = 0

    def raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit outputs as a uint64 array."""
        ks = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return _finalize(self._seed + ks * _GAMMA)

    def random(self, n: int | None = None):
        """Uniform draws in [0, 1); scalar when n is None."""
        if n is None:
            return float(self.raw(1)[0] >> np.uint64(11)) * _U53
        return ((self.raw(n) >> np.uint64(11)).astype(np.float64)) * _U53

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        return low + (high - low) * self.random(n)

    def normal(self, n: int) -> np.ndarray:
        """Standard normal draws (Box-Muller cosine branch, 2 raws each)."""
        z = self.raw(2 * n)
        u1 = ((z[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _U53
        u2 = (z[1::2] >> np.uint64(11)).astype(np.float64) * _U53
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def integer(self, n: int) -> int:
        """One draw in [0, n); modulo bias is negligible for n << 2^64."""
        return int(self.raw(1)[0] % np.uint64(n))

    def shuffle(self, arr: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle of m elements from the next m - 1
        raw outputs: for i = m - 1 down to 1, element i swaps with element
        j = raw[m - 1 - i] mod (i + 1)."""
        m = len(arr)
        if m < 2:
            return
        draws = self.raw(m - 1).tolist()
        for i in range(m - 1, 0, -1):
            j = draws[m - 1 - i] % (i + 1)
            arr[i], arr[j] = arr[j], arr[i]
