"""Pointwise nonlinearities and their resampling-wrapped form.

A pointwise nonlinearity widens the spectrum of its input, so applying
one directly to a critically sampled image folds the new high-frequency
content back into the band as aliasing. The wrapped form evaluates the
nonlinearity at doubled resolution between an alias-free upsample and an
alias-free downsample, giving the created harmonics headroom before the
low-pass filter removes them. An image of more than 2^14 elements is
wrapped one band of output rows at a time, each band with the input rows
its filters reach, so the doubled grid is never held whole; the bytes
are those of the whole image.

`gelu` takes its erf from a numpy port of fdlibm's (Sun, 1993), as
glibc's `sysdeps/ieee754/dbl-64/s_erf.c` computes it: the same four
branches, the same coefficients and glibc's term order, evaluated over
the input in blocks of 2^14 elements so every temporary stays in cache.
A block with |x| < 0.84375 throughout, as raster data gives, skips the
three outer branches. On glibc it equals `math.erf` bitwise; on any libm
it is within 1 ulp of the true erf.
"""

import math

import numpy as np

from .filter_design import Kernel2D
from .resample import check_image, downsample2x_af, upsample2x_af

ACTIVATIONS = ("relu", "gelu")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_BLOCK = 1 << 14  # gelu elements per block
_BAND = 1 << 14  # wrapped output elements per band of rows, across channels
_HALO = 16  # least rows a band per unit of kernel radius: the halo adds at most 1/8
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
_RA = (-9.86494403484714822705e-03, -6.93858572707181764372e-01, -1.05586262253232909814e+01,
       -6.23753324503260060396e+01, -1.62396669462573470355e+02, -1.84605092906711035994e+02,
       -8.12874355063065934246e+01, -9.81432934416914548592e+00)
_SA = (1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02, 4.34565877475229228821e+02,
       6.45387271733267880336e+02, 4.29008140027567833386e+02, 1.08635005541779435134e+02,
       6.57024977031928170135e+00, -6.04244152148580987438e-02)
_RB = (-9.86494292470009928597e-03, -7.99283237680523006574e-01, -1.77579549177547519889e+01,
       -1.60636384855821916062e+02, -6.37566443368389627722e+02, -1.02509513161107724954e+03,
       -4.83519191608651397019e+02)
_SB = (1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02, 1.53672958608443695994e+03,
       3.19985821950859553908e+03, 2.55305040643316442583e+03, 4.74528541206955367215e+02,
       -2.24409524465858183362e+01)
_RA_END = float.fromhex("0x1.6db6ep+1")  # glibc's high-word test for |x| < 1/0.35


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
    """s^2, s^4, s^6 and s^8, each formed as glibc forms it."""
    s2 = s * s
    s4 = s2 * s2
    return s2, s4, s4 * s2, s4 * s4


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of a float array by fdlibm's branches, in glibc's operation order.

    The first rational fit runs over the whole array and |x| < 2^-28 is
    patched in; an array with |x| < 0.84375 throughout (raster data) stops
    there, and any other, nan included, gets the branches past it patched
    in through masks.
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
        tail = (a >= 1.25) & (a < 6.0)
        t = a[tail]
        s = 1.0 / (t * t)
        p = _powers(s)
        ratio = np.where(t < _RA_END, _pairs(s, p, _RA) / _pairs(s, p, _SA),
                         _pairs(s, p, _RB) / _pairs(s, p, _SB))
        z = (t.view(np.uint64) & np.uint64(0xFFFFFFFF00000000)).view(float)  # low word cleared
        # math.exp, not np.exp: numpy's own exp loop rounds differently from libm's
        r = np.array([math.exp(u) * math.exp(w) for u, w in
                      zip((-z * z - 0.5625).tolist(), ((z - t) * (z + t) + ratio).tolist())])
        y[tail] = np.copysign(1.0 - r / t, x[tail])
        np.copysign(1.0, x, out=y, where=a >= 6.0)
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

    erf is fdlibm's, ported from glibc's `s_erf.c` with glibc's term order
    and evaluated over the flattened input in blocks of 2^14 elements. On
    glibc every output equals the same formula with `math.erf` bitwise;
    on any libm erf is within 1 ulp of the true value. gelu(-inf) is
    -0.0, the limit, where the formula would give -inf * 0 = nan.
    """
    v = np.asarray(values, dtype=float)
    return _gelu_into(v.ravel(), np.empty(v.size)).reshape(v.shape)[()]  # 0-d in, scalar out


def _check_act(act: str) -> None:
    if act not in ACTIVATIONS:
        raise ValueError(f"unknown activation {act!r}, expected one of {ACTIVATIONS}")


def apply_pointwise(img, act: str) -> np.ndarray:
    """Apply a named nonlinearity elementwise to an image tensor."""
    arr = check_image(img)
    _check_act(act)
    return relu(arr) if act == "relu" else gelu(arr)


def _wrapped(arr: np.ndarray, act: str, kernel: Kernel2D, padding: str) -> np.ndarray:
    """Up, act in place, down: a whole image or one band's rows."""
    up = upsample2x_af(arr, kernel, padding)
    flat = up.reshape(-1)  # a view: the fresh upsample is C-contiguous
    if act == "relu":
        np.maximum(flat, 0.0, out=flat)
    else:
        _gelu_into(flat, flat)
    return downsample2x_af(up, kernel, padding)


def wrapped_activation(img, act: str, kernel: Kernel2D,
                       padding: str = "reflect") -> np.ndarray:
    """Upsample 2x, apply the nonlinearity, downsample 2x.

    Resolution is unchanged end to end. Both rate changes use the same
    anti-aliasing kernel and padding rule. `act` and the image are checked
    first, and the nonlinearity runs in place on the fresh upsampled array.

    An image of more than 2^14 elements runs in bands of output rows, at
    most 2^14 output elements each, but at least one row and at least 16r
    rows for a kernel of radius r. Output row n reads only input rows
    n - r ... n + r, so a band runs the three steps on its rows and r more
    on each side, clipped to the image, and keeps its own rows: the bytes
    are the whole image's, and the recomputed rows add at most 1/8 to the
    work. An image that may fail the reflect limit runs whole, so an error
    names the whole image.
    """
    _check_act(act)
    arr = check_image(img)
    (C, H, W), r = arr.shape, kernel.radius
    rows = H if r > 2 * min(H, W) else max(1, _BAND // (C * W), _HALO * r)
    if rows >= H:  # one band: its result is the output, not copied into one
        return _wrapped(arr, act, kernel, padding)
    out = np.empty((C, H, W))
    for n0 in range(0, H, rows):
        n1, s0 = min(n0 + rows, H), max(n0 - r, 0)
        out[:, n0:n1] = _wrapped(arr[:, s0:n1 + r], act, kernel, padding)[:, n0 - s0:n1 - s0]
    return out
