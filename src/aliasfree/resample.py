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
rejects kernels larger than 2 * min(H, W) + 1 for the grid it pads, the
doubled grid when upsampling; zero padding accepts any kernel size.

Only the samples that survive are computed: downsampling evaluates the
kept outputs alone, upsampling never builds the interleaved zeros and
sums only the taps that meet an original sample, and bilinear doubling
interpolates columns, then rows. The output bytes are those of filtering
at full rate and of a two-dimensional gather.
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


def _check_padding(padding, radius, H, W, up=False):
    """Reject an unknown mode, and a reflect kernel too wide for an H x W
    image, or for its doubled grid when `up`."""
    if padding not in PADDING_MODES:
        raise ValueError(f"unknown padding mode {padding!r}")
    limit = (2 if up else 1) * min(H, W)
    if padding == "reflect" and radius > limit:
        raise ValueError(
            f"kernel size {2 * radius + 1} exceeds reflect-padding limit "
            f"{2 * limit + 1} for {'upsampling ' if up else ''}a {H} x {W} image")


def _filtered(arr, kernel: Kernel2D, padding: str, step: int = 1) -> np.ndarray:
    """Convolve each channel with `kernel` at every `step`-th row and column."""
    C, H, W = arr.shape
    r = kernel.radius
    _check_padding(padding, r, H, W)
    p = np.pad(arr, ((0, 0), (r, r), (r, r)),
               mode="reflect" if padding == "reflect" else "constant")
    out = np.zeros((C, H // step, W // step))
    for di in range(kernel.size):
        for dj in range(kernel.size):
            # tap (i, j) = (di - r, dj - r) pairs with x shifted by (-i, -j)
            block = p[:, 2 * r - di: 2 * r - di + H: step, 2 * r - dj: 2 * r - dj + W: step]
            out += kernel.taps[di, dj] * block
    return out


def convolve2d(img, kernel: Kernel2D, padding: str = "reflect") -> np.ndarray:
    """Convolve each channel with `kernel` at unchanged resolution."""
    return _filtered(check_image(img), kernel, padding)


def downsample2x_af(img, kernel: Kernel2D, padding: str = "reflect") -> np.ndarray:
    """Low-pass filter, then keep even-index rows and columns."""
    arr = check_image(img)
    _require_even(arr)
    return _filtered(arr, kernel, padding, step=2)


def upsample2x_af(img, kernel: Kernel2D, padding: str = "reflect") -> np.ndarray:
    """Zero-interleave to double resolution, filter, and restore gain.

    Original samples sit at even output indices; the factor 4 compensates
    for the density of inserted zeros.
    """
    arr = check_image(img)
    C, H, W = arr.shape
    r, h = kernel.radius, kernel.radius // 2
    _check_padding(padding, r, H, W, up=True)
    # Both border rules keep index parity on the interleaved grid, so its even
    # samples padded by r are the input padded by h before and r - h after:
    # zeros, or reflect before and symmetric after, which a padded index ramp
    # of the interleaved axis gives however often reflect folds.
    if padding == "reflect":
        rows, cols = (np.pad(np.arange(2 * n), r, mode="reflect")[r % 2::2] // 2
                      for n in (H, W))
        small = arr[:, rows[:, None], cols]
    else:
        small = np.pad(arr, ((0, 0), (h, r - h), (h, r - h)))
    out = np.empty((C, 2 * H, 2 * W))
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        # output phase (a, b) meets the originals only through the taps
        # (di, dj) with di - r - a and dj - r - b even
        acc = np.zeros((C, H, W))
        for di in range((r + a) % 2, kernel.size, 2):
            for dj in range((r + b) % 2, kernel.size, 2):
                i, j = (r + a - di) // 2 + h, (r + b - dj) // 2 + h
                acc += kernel.taps[di, dj] * small[:, i: i + H, j: j + W]
        out[:, a::2, b::2] = 4.0 * acc
    return out


def downsample2x_naive(img) -> np.ndarray:
    """2x2 max pooling over disjoint blocks."""
    arr = check_image(img)
    _require_even(arr)
    C, H, W = arr.shape
    return arr.reshape(C, H // 2, 2, W // 2, 2).max(axis=(2, 4))


def _linear_plan(src, n: int):
    """Linear interpolation of n samples at coordinates `src`, clipped to
    [0, n - 1]: the lower neighbour i0, the upper one min(i0 + 1, n - 1),
    and their weights 1 - f and f, with f the fraction of src past i0."""
    src = np.clip(src, 0.0, n - 1)
    i0 = np.floor(src).astype(int)
    f = src - i0
    return i0, np.minimum(i0 + 1, n - 1), 1.0 - f, f


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
    r0, r1, wr0, wr1 = _linear_plan(np.arange(2 * H) * (H - 1) / (2 * H - 1), H)
    c0, c1, wc0, wc1 = _linear_plan(np.arange(2 * W) * (W - 1) / (2 * W - 1), W)
    # columns at the H input rows, then rows: each output is the same blend
    # of the same four samples as a two-dimensional bilinear gather
    cols = wc0 * arr.take(c0, axis=2) + wc1 * arr.take(c1, axis=2)
    return wr0[:, None] * cols.take(r0, axis=1) + wr1[:, None] * cols.take(r1, axis=1)
