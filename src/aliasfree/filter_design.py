"""Windowed-jinc anti-aliasing kernels.

A kernel is the circularly symmetric ideal low-pass impulse response
sampled on an odd square grid, shaped by a separable Kaiser window, and
optionally rescaled to unit DC gain. The ideal response for cutoff w_c is

    h[n1, n2] = w_c^2 / (2 pi) * jinc(w_c * sqrt(n1^2 + n2^2))

so the center tap equals w_c^2 / (4 pi).
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import _finite, _number, _whole
from .special_functions import bessel_i0, jinc

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class FilterSpec:
    """Parameters selecting one anti-aliasing kernel.

    kaiser_beta: window shape, 0 gives a rectangular window
    normalized:  rescale taps to sum to exactly 1
    cutoff:      angular cutoff in (0, pi], default pi/2 for 2x resampling
    kernel_size: odd spatial support
    """

    kaiser_beta: float
    normalized: bool
    cutoff: float = HALF_PI
    kernel_size: int = 3

    def __post_init__(self):
        size = _whole(self.kernel_size, "kernel_size", 1)
        if size % 2 == 0:
            raise ValueError(f"kernel_size must be odd, got {size}")
        object.__setattr__(self, "kernel_size", size)
        if not (0.0 < _finite(self.cutoff, "cutoff") <= math.pi):
            raise ValueError(f"cutoff must lie in (0, pi], got {self.cutoff}")
        if _finite(self.kaiser_beta, "kaiser_beta") < 0.0:
            raise ValueError(f"kaiser_beta must be >= 0, got {self.kaiser_beta}")


class Kernel2D:
    """Immutable odd square tap matrix, indexed by offsets in [-r, r]."""

    def __init__(self, taps):
        taps = np.array(taps, dtype=float)
        if taps.ndim != 2 or taps.shape[0] != taps.shape[1]:
            raise ValueError(f"taps must form a square matrix, got shape {taps.shape}")
        if taps.shape[0] % 2 == 0:
            raise ValueError(f"tap matrix must have odd size, got {taps.shape[0]}")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        taps.setflags(write=False)
        self.taps = taps

    @property
    def size(self) -> int:
        return self.taps.shape[0]

    @property
    def radius(self) -> int:
        return (self.size - 1) // 2

    def __eq__(self, other):
        return isinstance(other, Kernel2D) and np.array_equal(self.taps, other.taps)

    def __repr__(self):
        return f"Kernel2D(size={self.size})"


def jinc_tap(spec: FilterSpec, n1: int, n2: int) -> float:
    """Ideal circular low-pass tap at integer offset (n1, n2)."""
    rho = math.hypot(n1, n2)
    return spec.cutoff ** 2 / (2.0 * math.pi) * jinc(spec.cutoff * rho)


def kaiser_weight(beta: float, n, length) -> float:
    """Kaiser window sample at offset n for support |n| <= length / 2."""
    if _finite(length, "length") <= 0:
        raise ValueError(f"window length must be positive, got {length}")
    if _finite(beta, "beta") < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    t = 2.0 * _finite(n, "n") / length
    if abs(t) > 1.0:
        return 0.0
    return bessel_i0(beta * math.sqrt(1.0 - t * t)) / bessel_i0(beta)


def design_kernel(spec: FilterSpec) -> Kernel2D:
    """Build the windowed kernel described by `spec`.

    Taps are jinc_tap(spec, n1, n2) * w(n1) * w(n2) with a separable
    Kaiser window of extent L = max(kernel_size - 1, 1); a size-1 kernel's
    one weight is then I0(beta) / I0(beta) = 1. A normalized spec
    rescales the matrix to unit tap sum so constants pass unchanged.
    """
    r = spec.kernel_size // 2
    offsets = list(range(-r, r + 1))
    length = float(max(spec.kernel_size - 1, 1))
    window = {n: kaiser_weight(spec.kaiser_beta, n, length) for n in offsets}
    taps = np.empty((spec.kernel_size, spec.kernel_size))
    for i, n1 in enumerate(offsets):
        for j, n2 in enumerate(offsets):
            # group the window product so taps[i, j] == taps[j, i] bitwise
            taps[i, j] = jinc_tap(spec, n1, n2) * (window[n1] * window[n2])
    if spec.normalized:
        total = taps.sum()
        if total <= 0.0:
            raise ValueError(f"tap sum {total} is not positive, cannot normalize")
        taps = taps / total
    return Kernel2D(taps)


def kernel_to_text(kernel: Kernel2D) -> str:
    """Serialize taps as text, one row per line, full float precision."""
    lines = (" ".join(repr(float(v)) for v in row) for row in kernel.taps)
    return "\n".join(lines) + "\n"


def kernel_from_text(text: str) -> Kernel2D:
    """Parse the kernel_to_text format back into a Kernel2D."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("kernel text holds no rows")
    if len({len(row) for row in rows}) != 1:
        raise ValueError("kernel text rows have unequal lengths")
    try:
        values = [list(map(_number(float), row)) for row in rows]
    except ValueError:
        raise ValueError("kernel text holds a non-numeric token") from None
    return Kernel2D(np.array(values))
