"""Deterministic random stream used by the diffusion machinery.

The raw stream is SplitMix64 evaluated at consecutive counter values:
draw k (0-based) is mix64(seed + (k + 1) * GAMMA), so a batch of n draws
is the same sequence as n single draws. Uniforms take the top 53 bits of
a raw word; normals come from Box-Muller pairs consumed in row-major
element order, with the trailing spare discarded when an odd number of
elements is requested.

Since a pair never spans two draws, any run of draws can come from one
`_raw` call and be split by draw. `_runs` fetches every normal and
integer draw this way, in blocks of at most `_NOISE_BLOCK` raw words over
all streams, and yields one run of draws per block; `_draws` is its view
one draw at a time. So the block layout stays in this module. `normal`
and `randint` take one draw, the samplers one per noisy step, and the
training loss in `diffusion` whole runs. The stream, the counter and every
output bit are those of one call per draw. The package's argument rules live
here too: `_finite` (real scalars) and `_whole` (counts, sizes) refuse text,
`_number` reads it, and `_choice` checks a named option.
"""

import itertools
import math

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = 0xFFFFFFFFFFFFFFFF
_TWO53 = float(1 << 53)
# Most raw words, summed over all streams, that one block of `_draws`
# fetches; a block holds at least one draw.
_NOISE_BLOCK = 1 << 14
_TEXT = (str, bytes, bytearray, memoryview)  # float() reads these; np.str_ subclasses str


def _box_muller(top53, shape) -> np.ndarray:
    """Normals of `shape` from each row of top-53-bit words on the last axis.

    Pair j uses words (2j, 2j + 1): the first maps to (0, 1] for the log
    radius, the second to [0, 1) for the angle. A trailing spare is
    dropped, so the result has shape top53.shape[:-1] + shape.
    """
    u1 = (top53[..., 0::2] + 1.0) / _TWO53
    u2 = top53[..., 1::2] / _TWO53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(top53.shape)
    out[..., 0::2] = radius * np.cos(angle)
    out[..., 1::2] = radius * np.sin(angle)
    return out[..., :math.prod(shape)].reshape(top53.shape[:-1] + shape)


def _finite(value, name: str, kind: str = "a finite number") -> float:
    """`value` as a float: the package's one rule for real scalars. A ValueError names
    `value` if it is text, or a non-finite value, or one float() cannot read or overflows."""
    number = value[()] if isinstance(value, np.ndarray) else value  # 0-d: its element
    try:
        if not isinstance(number, _TEXT) and math.isfinite(number := float(number)):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be {kind}, got {value!r}")


def _number(cast):
    """`cast` (int or float) of text: the package's one rule for numbers written
    as text. It refuses what Python reads loosely and nothing writes: the "_" it
    skips ("1_0" is 10), non-ASCII digits and surrounding whitespace."""
    def read(text: str):
        if "_" in text:
            raise ValueError(f"number {text!r} contains '_'")
        if not text.isascii() or text.strip() != text:
            raise ValueError(f"number {text!r} must be ASCII with no surrounding whitespace")
        return cast(text)
    read.__name__ = cast.__name__  # argparse's message: "invalid int value: '1_0'"
    return read


def _choice(value, options, what: str):
    """`value` if it is one of the strings `options`: the package's one rule for
    a named option. Any other value, a list or other non-string included, raises
    a ValueError naming it and the options."""
    if isinstance(value, str) and value in options:
        return value
    raise ValueError(f"unknown {what} {value!r}, expected one of {tuple(options)}")


def _whole(value, name: str, least: int | None = None) -> int:
    """`value` as an int. The package's one rule for counts, sizes and shape sides:
    a ValueError naming `value` unless `_finite` reads it as a whole number (an int,
    an integral float, a numpy integer or a 0-d array of one), at least `least` if given."""
    if not _finite(value, name, "a whole number").is_integer():
        raise ValueError(f"{name} must be a whole number, got {value}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {int(value)}")
    return int(value)


def _shape(shape) -> tuple:
    """The one shape rule of `uniform` and `normal`: an int or a 1-D sequence
    of sides, each a whole number >= 1, as a tuple of ints."""
    sides = np.atleast_1d(shape)
    if sides.ndim != 1:
        raise ValueError(f"shape must be an int or a 1-D sequence of sides, got {shape}")
    return tuple(_whole(d, "shape side", 1) for d in sides)


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
        seeds = [_whole(s, "seed") & _U64_MASK for s in (seed if self._streams else [seed])]
        self._seed = np.array(seeds, dtype=np.uint64).reshape(self._streams + (1,))
        self._count = 0

    def _raw(self, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError(f"draw count must be >= 1, got {n}")
        ks = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        # in place: few live temporaries, so the heap is not trimmed and refaulted per block
        z = self._seed + ks * _GAMMA
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
        return z

    def _top53(self, count: int, width: int) -> np.ndarray:
        """`count` rows of `width` raw words as top-53-bit floats: streams + (count, width)."""
        top53 = (self._raw(count * width) >> np.uint64(11)).astype(float)
        return top53.reshape(self._streams + (count, width))

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform draws in [0, 1) with 53-bit resolution."""
        shape = _shape(shape)
        u = self._top53(1, math.prod(shape)) / _TWO53
        return u.reshape(self._streams + shape) if shape or self._streams else u.item()

    def randint(self, high: int) -> int:
        """Uniform integer in {1, ..., high} from one raw word: with u = word / 2^53
        in [0, 1), it is 1 + min(floor(u * high), high - 1). Single-stream only."""
        return next(self._draws(1, _whole(high, "high", 1)))[0]

    def normal(self, shape) -> np.ndarray:
        """Standard normal draws via Box-Muller (see `_box_muller`)."""
        return next(self._draws(1, _shape(shape)))[0]

    def _runs(self, count: int, *parts):
        """Yield `count` draws in runs, one run per block of raw words: each a tuple
        of one value per part, holding the run's k draws on a leading axis. A tuple
        part is a shape of normals, an array of shape (k,) + streams + shape; an int
        part `high` gives k steps as `randint` draws them, a list of Python ints, and
        needs a single-stream Rng. A run holds at least one draw and at most
        _NOISE_BLOCK raw words over all streams."""
        if self._streams and not all(isinstance(p, tuple) for p in parts):
            raise ValueError("an integer draw is one number; it needs a single-stream Rng")
        words = [math.prod(p) + math.prod(p) % 2 if isinstance(p, tuple) else 1 for p in parts]
        bounds = list(itertools.accumulate(words, initial=0))  # whole pairs, or one word
        per_block = max(1, _NOISE_BLOCK // (bounds[-1] * math.prod(self._streams)))
        for done in range(0, count, per_block):
            top53 = np.moveaxis(self._top53(min(per_block, count - done), bounds[-1]), -2, 0)
            yield tuple(
                _box_muller(top53[..., a:b], p) if isinstance(p, tuple) else
                (1 + np.minimum(top53[..., a] / _TWO53 * p, p - 1).astype(np.int64)).tolist()
                for p, a, b in zip(parts, bounds, bounds[1:]))

    def _draws(self, count: int, *parts):
        """`_runs` one draw at a time: per draw, a tuple of one value per part, an
        array of shape streams + shape or a Python int."""
        for run in self._runs(count, *parts):
            yield from zip(*run)
