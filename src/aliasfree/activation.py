"""Pointwise nonlinearities and their resampling-wrapped form.

A pointwise nonlinearity widens the spectrum of its input, so applying
one directly to a critically sampled image folds the new high-frequency
content back into the band as aliasing. The wrapped form evaluates the
nonlinearity at doubled resolution between an alias-free upsample and an
alias-free downsample, giving the created harmonics headroom before the
low-pass filter removes them.
"""

import math

import numpy as np

from .filter_design import Kernel2D
from .resample import check_image, downsample2x_af, upsample2x_af

ACTIVATIONS = ("relu", "gelu")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def relu(values) -> np.ndarray:
    return np.maximum(np.asarray(values, dtype=float), 0.0)


def gelu(values) -> np.ndarray:
    """Exact Gaussian-CDF form: v * Phi(v)."""
    v = np.asarray(values, dtype=float)
    erf = np.fromiter(map(math.erf, (v * _INV_SQRT2).ravel()), float, v.size)
    return v * 0.5 * (1.0 + erf.reshape(v.shape))


def apply_pointwise(img, act: str) -> np.ndarray:
    """Apply a named nonlinearity elementwise to an image tensor."""
    arr = check_image(img)
    if act not in ACTIVATIONS:
        raise ValueError(f"unknown activation {act!r}, expected one of {ACTIVATIONS}")
    return relu(arr) if act == "relu" else gelu(arr)


def wrapped_activation(img, act: str, kernel: Kernel2D,
                       padding: str = "reflect") -> np.ndarray:
    """Upsample 2x, apply the nonlinearity, downsample 2x.

    Resolution is unchanged end to end. Both rate changes use the same
    anti-aliasing kernel and padding rule.
    """
    up = upsample2x_af(img, kernel, padding)
    return downsample2x_af(apply_pointwise(up, act), kernel, padding)
