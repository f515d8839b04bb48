"""Pointwise nonlinearities and their resampling-wrapped form.

A pointwise nonlinearity widens the spectrum of its input, so applying
one directly to a critically sampled image folds the new high-frequency
content back into the band as aliasing. The wrapped form evaluates the
nonlinearity at doubled resolution between an alias-free upsample and an
alias-free downsample, giving the created harmonics headroom before the
low-pass filter removes them. The wrapped form checks its option, image
and border once, up front. An image of more than 2^14 elements is then
wrapped one band of output rows at a time, each band with the input rows
its filters reach (`resample._slabs`), so the doubled grid is never held
whole; the bytes are those of the whole image. `wrapped_activation`
gathers the bands into one float output; the CLI's `activate` runs the
same band form (`_wrapped_bands`, or `_pointwise_bands` unwrapped) and
writes each band into its output payload.

`gelu` takes its erf for |x| < 1.25 from a numpy port of glibc's fdlibm
erf (`sysdeps/ieee754/dbl-64/s_erf.c`, Sun 1993), with its coefficients
and term order, over blocks of 2^13 elements, so every temporary stays in
cache and is reused from the heap rather than faulted in afresh; a block
with |x| < 0.84375 throughout, as raster data gives, stops after the
first branch. Past 1.25 each element takes `math.erf`, the C
library's on Python >= 3.11, so on glibc the result is `math.erf` bitwise.
On Python 3.10 it is CPython's, and whether it meets 1 ulp is unverified.
"""

import math

import numpy as np

from .filter_design import Kernel2D
from .resample import (_assembled, _check_border, _filtered, _slabs, check_image,
                       downsample2x_af)
from .rng import _choice

ACTIVATIONS = ("relu", "gelu")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_BLOCK = 1 << 13  # gelu elements per block
_LEAST = np.finfo(float).min

# fdlibm's erf coefficients. Each polynomial is c0 + s*c1 + s^2*(c2 + s*c3) + ...
_ERX, _EFX = 8.45062911510467529297e-01, 1.28379167095512586316e-01
_PP = (1.28379167095512558561e-01, -3.25042107247001499370e-01, -2.84817495755985104766e-02,
       -5.77027029648944159157e-03, -2.37630166566501626084e-05)
_QQ = (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02, 5.08130628187576562776e-03,
       1.32494738004321644526e-04, -3.96022827877536812320e-06)
_PA = (-2.36211856075265944077e-03, 4.14856118683748331666e-01, -3.72207876035701323847e-01,
       3.18346619901161753674e-01, -1.10894694282396677476e-01, 3.54783043256182359371e-02,
       -2.16637559486879084300e-03)
_QA = (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01, 7.18286544141962662868e-02,
       1.26171219808761642112e-01, 1.36370839120290507362e-02, 1.19844998467991074170e-02)


def _pairs(s, powers, c):
    """c[0] + s*c[1] + powers[0]*(c[2] + s*c[3]) + powers[1]*(c[4] + ...) + ...,
    summed left to right as glibc does, in place (IEEE + and * commute bitwise);
    a lone last coefficient stands alone."""
    out = s * c[1]
    out += c[0]
    for p, k in zip(powers, range(2, len(c), 2)):
        if k + 1 < len(c):
            term = s * c[k + 1]
            term += c[k]
            term *= p
        else:
            term = p * c[k]
        out += term
    return out


def _powers(s):
    """s^2, s^4 and s^6, each formed as glibc forms it."""
    s2 = s * s
    s4 = s2 * s2
    return s2, s4, s4 * s2


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of a float array: fdlibm's branches for |x| < 1.25, in glibc's
    operation order, and `math.erf` per element past that.

    The first rational fit runs over the whole array and |x| < 2^-28 is
    patched in; an array with |x| < 0.84375 throughout (raster data) stops
    there. Any other gets 0.84375 <= |x| < 1.25 patched in through a mask,
    and every remaining element, nan and +-inf included, from `math.erf`.
    """
    a = np.abs(x)
    hi = a.max(initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        z = x * x
        z2 = z * z
        p = z2, z2 * z2
        y = _pairs(z, p, _PP)
        y /= _pairs(z, p, _QQ)
        y *= x
        y += x  # x + x * (P / Q)
        tiny = a < 2.0 ** -28
        # glibc's scaling keeps subnormal bits; for |x| >= 2^-1015 it equals x + efx*x
        y[tiny] = 0.0625 * (16.0 * x[tiny] + (16.0 * _EFX) * x[tiny])
        if hi < 0.84375:  # false for nan
            return y
        mid = (a >= 0.84375) & (a < 1.25)
        s = a[mid] - 1.0
        p = _powers(s)
        y[mid] = np.copysign(_ERX + _pairs(s, p, _PA) / _pairs(s, p, _QA), x[mid])
        outer = ~(a < 1.25)  # nan and +-inf too: math.erf gives nan, +-1.0 and +-1.0 past 6
        y[outer] = list(map(math.erf, x[outer].tolist()))
    return y


def relu(values) -> np.ndarray:
    return np.maximum(np.asarray(values, dtype=float), 0.0)


def _gelu_into(flat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write gelu of the 1-D `flat` into `out` (which may be `flat`) block by block."""
    with np.errstate(invalid="ignore"):  # a signalling nan gives nan, as a quiet one does
        for i in range(0, flat.size, _BLOCK):
            block = flat[i:i + _BLOCK]
            # -inf floored to the least double gives -0.0; every other value passes unchanged
            out[i:i + _BLOCK] = (np.maximum(block, _LEAST) * 0.5
                                 * (1.0 + _erf(block * _INV_SQRT2)))
    return out


def gelu(values) -> np.ndarray:
    """Exact Gaussian-CDF form: v * Phi(v) = v * 0.5 * (1 + erf(v / sqrt 2)).

    erf is `_erf`, over the flattened input in blocks of 2^13 elements: a
    port of glibc's `s_erf.c` for |x| < 1.25 and `math.erf` past it. On
    glibc every output equals the same formula with `math.erf` bitwise;
    elsewhere the ported part is within 1 ulp of the true erf and the rest
    is the platform's `math.erf`. gelu(-inf) is -0.0, the limit, where the
    formula would give -inf * 0 = nan.
    """
    v = np.asarray(values, dtype=float)
    return _gelu_into(v.ravel(), np.empty(v.size)).reshape(v.shape)[()]  # 0-d in, scalar out


def apply_pointwise(img, act: str) -> np.ndarray:
    """Apply a named nonlinearity elementwise to an image tensor."""
    arr = check_image(img)
    return relu(arr) if _choice(act, ACTIVATIONS, "activation") == "relu" else gelu(arr)


def _pointwise_bands(img, act: str):
    """The band form (`resample._slabs`) of apply_pointwise."""
    arr = check_image(img)
    return _slabs(relu if _choice(act, ACTIVATIONS, "activation") == "relu" else gelu, arr)


def _wrapped(arr: np.ndarray, act: str, kernel: Kernel2D, padding: str) -> np.ndarray:
    """Up, act in place, down: a whole image or one band's rows. The up step takes
    `arr` as checked; the down step's check of the doubled grid rejects an overflow."""
    up = _filtered(arr, kernel, padding, up=2)
    flat = up.reshape(-1)  # a view: the fresh upsample is C-contiguous
    if act == "relu":
        np.maximum(flat, 0.0, out=flat)
    else:
        _gelu_into(flat, flat)
    return downsample2x_af(up, kernel, padding)


def _wrapped_bands(img, act: str, kernel: Kernel2D, padding: str = "reflect"):
    """The band form of wrapped_activation: `act`, the image and its border rule at
    up = 2 checked once, then bands of output rows as `resample._slabs` runs them."""
    _choice(act, ACTIVATIONS, "activation")
    arr = check_image(img)
    _check_border(arr, kernel, padding, up=2)
    return _slabs(lambda slab: _wrapped(slab, act, kernel, padding), arr, kernel.radius)


def wrapped_activation(img, act: str, kernel: Kernel2D,
                       padding: str = "reflect") -> np.ndarray:
    """Upsample 2x, apply the nonlinearity, downsample 2x.

    Resolution is unchanged end to end. Both rate changes use the same
    anti-aliasing kernel and padding rule. `act`, the image and its border
    rule at up = 2 are checked first, once, and the nonlinearity runs in
    place on the fresh upsampled array.

    An image runs in bands of output rows as `resample._spans` sizes them:
    about 2^14 output elements, but at least 16r rows for a kernel of radius
    r, so a small image is one band. Output row n reads only input rows
    n - r ... n + r, so a band runs the three steps on its rows and r more
    on each side, clipped to the image, and keeps its own rows: the bytes
    are the whole image's, and the recomputed rows add at most 1/8 to the
    work. A slab has all W columns and at least min(H, r + 1) rows, so it
    passes the reflect limit whenever the whole image does: no band fails.
    """
    return _assembled(*_wrapped_bands(img, act, kernel, padding))
