"""Deterministic random stream used by the diffusion machinery.

The raw stream is SplitMix64 evaluated at consecutive counter values:
draw k (0-based) is mix64(seed + (k + 1) * GAMMA), so a batch of n draws
is the same sequence as n single draws. Uniforms take the top 53 bits of
a raw word; normals come from Box-Muller pairs consumed in row-major
element order, with the trailing spare discarded when an odd number of
elements is requested.
"""

import math

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = 0xFFFFFFFFFFFFFFFF
_TWO53 = float(1 << 53)


class Rng:
    """Seeded, reproducible stream of uniforms and standard normals.

    `seed` is one integer, or a non-empty 1-D sequence of them for one
    stream per seed: every draw then gains a leading stream axis whose
    row s equals the same draw from Rng(seed_s).
    """

    def __init__(self, seed):
        self._streams = np.shape(seed)
        if len(self._streams) > 1 or 0 in self._streams:
            raise ValueError(f"seed must be an integer or a non-empty 1-D sequence, "
                             f"got shape {self._streams}")
        seeds = [int(s) & _U64_MASK for s in (seed if self._streams else [seed])]
        self._seed = np.array(seeds, dtype=np.uint64).reshape(self._streams + (1,))
        self._count = 0

    def _raw(self, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError(f"draw count must be >= 1, got {n}")
        ks = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z = self._seed + ks * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform draws in [0, 1) with 53-bit resolution."""
        shape = tuple(np.atleast_1d(shape).astype(int)) if shape != () else ()
        n = int(math.prod(shape))
        u = (self._raw(n) >> np.uint64(11)).astype(float) / _TWO53
        return u.reshape(self._streams + shape) if shape or self._streams else float(u[0])

    def randint(self, high: int) -> int:
        """Uniform integer in {1, ..., high} from one uniform draw."""
        high = int(high)
        if high < 1:
            raise ValueError(f"high must be >= 1, got {high}")
        if self._streams:
            raise ValueError("randint draws one integer; it needs a single-stream Rng")
        return 1 + min(int(self.uniform() * high), high - 1)

    def normal(self, shape) -> np.ndarray:
        """Standard normal draws via Box-Muller.

        Pair j uses raw words (2j, 2j + 1): the first maps to (0, 1] for
        the log radius, the second to [0, 1) for the angle.
        """
        shape = tuple(int(d) for d in np.atleast_1d(shape))
        n = math.prod(shape)
        if n < 1:
            raise ValueError(f"shape must hold at least one element, got {shape}")
        pairs = (n + 1) // 2
        top53 = (self._raw(2 * pairs) >> np.uint64(11)).astype(float)
        u1 = (top53[..., 0::2] + 1.0) / _TWO53
        u2 = top53[..., 1::2] / _TWO53
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = (2.0 * np.pi) * u2
        out = np.empty(self._streams + (2 * pairs,))
        out[..., 0::2] = radius * np.cos(angle)
        out[..., 1::2] = radius * np.sin(angle)
        return out[..., :n].reshape(self._streams + shape)
