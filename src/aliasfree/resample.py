"""2x resampling operators on C x H x W image tensors.

The alias-free pair places a low-pass filter around each rate change:
downsampling filters first and then keeps the even-index samples, while
upsampling interleaves zeros (originals land on even indices), filters,
and multiplies by 4 to restore the signal level. The naive pair, kept as
a baseline, is 2x2 max pooling and align-corners bilinear interpolation.

Convolution is direct:

    out[n1, n2] = sum_{i,j} h[i, j] * x[n1 - i, n2 - j]

with x extended past its borders by the padding rule. Reflect padding
mirrors without repeating the edge sample (index -1 maps to index 1) and
rejects kernels larger than 2 * min(H, W) + 1; zero padding accepts any
kernel size.
"""

import numpy as np

from .filter_design import Kernel2D

PADDING_MODES = ("reflect", "zero")


def check_image(img) -> np.ndarray:
    """Validate a C x H x W tensor and return it as float64."""
    arr = np.asarray(img, dtype=float)
    if arr.ndim != 3:
        raise ValueError(f"expected a C x H x W array, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValueError(f"image has an empty axis: shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("image values must be finite")
    return arr


def _require_even(arr):
    _, H, W = arr.shape
    if H % 2 or W % 2:
        raise ValueError(f"height and width must be even, got {H} x {W}")


def _padded(arr, radius, padding):
    if padding not in PADDING_MODES:
        raise ValueError(f"unknown padding mode {padding!r}")
    _, H, W = arr.shape
    if padding == "reflect" and radius > min(H, W):
        raise ValueError(
            f"kernel size {2 * radius + 1} exceeds reflect-padding limit "
            f"{2 * min(H, W) + 1} for a {H} x {W} image")
    return np.pad(arr, ((0, 0), (radius, radius), (radius, radius)),
                  mode="reflect" if padding == "reflect" else "constant")


def convolve2d(img, kernel: Kernel2D, padding: str = "reflect") -> np.ndarray:
    """Convolve each channel with `kernel` at unchanged resolution."""
    arr = check_image(img)
    r = kernel.radius
    p = _padded(arr, r, padding)
    _, H, W = arr.shape
    out = np.zeros_like(arr)
    for di in range(kernel.size):
        for dj in range(kernel.size):
            # tap (i, j) = (di - r, dj - r) pairs with x shifted by (-i, -j)
            block = p[:, 2 * r - di: 2 * r - di + H, 2 * r - dj: 2 * r - dj + W]
            out += kernel.taps[di, dj] * block
    return out


def downsample2x_af(img, kernel: Kernel2D, padding: str = "reflect") -> np.ndarray:
    """Low-pass filter, then keep even-index rows and columns."""
    arr = check_image(img)
    _require_even(arr)
    return convolve2d(arr, kernel, padding)[:, ::2, ::2]


def upsample2x_af(img, kernel: Kernel2D, padding: str = "reflect") -> np.ndarray:
    """Zero-interleave to double resolution, filter, and restore gain.

    Original samples sit at even output indices; the factor 4 compensates
    for the density of inserted zeros.
    """
    arr = check_image(img)
    C, H, W = arr.shape
    stuffed = np.zeros((C, 2 * H, 2 * W))
    stuffed[:, ::2, ::2] = arr
    return 4.0 * convolve2d(stuffed, kernel, padding)


def downsample2x_naive(img) -> np.ndarray:
    """2x2 max pooling over disjoint blocks."""
    arr = check_image(img)
    _require_even(arr)
    C, H, W = arr.shape
    return arr.reshape(C, H // 2, 2, W // 2, 2).max(axis=(2, 4))


def upsample2x_naive(img) -> np.ndarray:
    """Align-corners bilinear doubling.

    Output index u samples input coordinate u * (H - 1) / (2H - 1), so the
    four image corners are reproduced exactly.
    """
    arr = check_image(img)
    C, H, W = arr.shape
    if H < 2 or W < 2:
        raise ValueError(f"bilinear doubling needs H, W >= 2, got {H} x {W}")
    # integer numerators keep the endpoint coordinates exact after division
    u = np.arange(2 * H) * (H - 1) / (2 * H - 1)
    v = np.arange(2 * W) * (W - 1) / (2 * W - 1)
    return _bilinear_apply(arr, _bilinear_plan(H, W, u[:, None], v[None, :]))


def _bilinear_plan(H: int, W: int, src_r, src_c):
    """Flat gather indices and blend weights for bilinear samples of an
    H x W grid at broadcast (src_r, src_c), clamped to the grid."""
    src_r = np.clip(src_r, 0.0, H - 1)
    src_c = np.clip(src_c, 0.0, W - 1)
    r0 = np.floor(src_r).astype(int)
    c0 = np.floor(src_c).astype(int)
    fr = src_r - r0
    fc = src_c - c0
    row0 = r0 * W
    row1 = np.minimum(r0 + 1, H - 1) * W
    c1 = np.minimum(c0 + 1, W - 1)
    return (row0 + c0, row0 + c1, row1 + c0, row1 + c1), (1.0 - fc, fc, 1.0 - fr, fr)


def _bilinear_apply(arr: np.ndarray, plan) -> np.ndarray:
    """Bilinear samples of every channel of a C x H x W array by a plan."""
    (i00, i01, i10, i11), (wc0, wc1, wr0, wr1) = plan
    C, H, W = arr.shape
    # gather by flat index: take along one axis is numpy's fastest gather
    flat = arr.reshape(C, H * W)
    top = wc0 * flat.take(i00, axis=1) + wc1 * flat.take(i01, axis=1)
    bottom = wc0 * flat.take(i10, axis=1) + wc1 * flat.take(i11, axis=1)
    return wr0 * top + wr1 * bottom
