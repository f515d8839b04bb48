"""2x resampling operators on C x H x W image tensors.

The alias-free pair places a low-pass filter around each rate change:
downsampling filters first and then keeps the even-index samples, while
upsampling interleaves zeros (originals land on even indices), filters,
and multiplies by 4 to restore the signal level. The naive pair, kept as
a baseline, is 2x2 max pooling (a running maximum over each block in
row-major order) and align-corners bilinear interpolation.

Convolution is direct:

    out[n1, n2] = sum_{i,j} h[i, j] * x[n1 - i, n2 - j]

with x extended past its borders by the padding rule. Reflect padding
mirrors without repeating the edge sample (index -1 maps to index 1) and
rejects kernels larger than 2 * min(H, W) + 1 for the grid it pads, the
doubled grid when upsampling; zero padding accepts any kernel size.

One engine, `_filtered`, filters the input interleaved with up - 1 zeros
and keeps every down-th output, summing each output phase only over the
taps that meet an input sample: (up, down) is (1, 1) for convolve2d,
(1, 2) for downsampling and (2, 1) for upsampling. Bilinear doubling
interpolates columns, then rows. The output bytes are those of filtering
at full rate and of a two-dimensional gather.
"""

import numpy as np

from .filter_design import Kernel2D
from .rng import _choice, _whole

PADDING_MODES = ("reflect", "zero")


def _image_shape(shape) -> tuple:
    """The one image-shape rule, for every array, sampler shape, turn and --shape:
    three sides C x H x W, each a whole number >= 1, as a tuple of ints."""
    sides = tuple(_whole(side, "shape side") for side in shape)
    if len(sides) != 3 or min(sides) < 1:
        raise ValueError(f"expected a C x H x W shape with no empty axis, got {tuple(shape)}")
    return sides


def _check_finite(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError("image values must be finite")
    return arr


def check_image(img) -> np.ndarray:
    """Validate a tensor of `_image_shape` with finite values; return it as float64."""
    arr = np.asarray(img, dtype=float)
    _image_shape(arr.shape)
    return _check_finite(arr)


def _require_even(arr):
    _, H, W = arr.shape
    if H % 2 or W % 2:
        raise ValueError(f"height and width must be even, got {H} x {W}")
    return arr


def _check_border(arr, kernel: Kernel2D, padding: str, up: int = 1) -> None:
    """The border rule of `_filtered`: `padding` is a known mode, and reflect padding
    takes a kernel radius of at most up * min(H, W) for an H x W image."""
    _, H, W = arr.shape
    limit = up * min(H, W)
    if _choice(padding, PADDING_MODES, "padding mode") == "reflect" and kernel.radius > limit:
        raise ValueError(
            f"kernel size {kernel.size} exceeds reflect-padding limit {2 * limit + 1} "
            f"for {'upsampling ' if up > 1 else ''}a {H} x {W} image")


def _filtered(arr, kernel: Kernel2D, padding: str, up: int = 1, down: int = 1) -> np.ndarray:
    """Filter each channel on its grid interleaved with up - 1 zeros, keep every
    `down`-th row and column, and scale by up ** 2; one of up, down is 1."""
    _check_border(arr, kernel, padding, up)
    (C, H, W), r = arr.shape, kernel.radius
    # Both border rules keep index parity on the interleaved grid: padded by r, its samples
    # are the input padded by r // up before and ceil(r / up) after. At up = 2 reflect turns
    # symmetric after; a padded index ramp of the interleaved axis gives that at any fold.
    lo, hi = r // up, -(-r // up)
    if padding == "reflect" and up > 1:
        rows, cols = (np.pad(np.arange(up * n), r, mode="reflect")[r % up::up] // up
                      for n in (H, W))
        src = arr[:, rows[:, None], cols]
    else:
        src = np.pad(arr, ((0, 0), (lo, hi), (lo, hi)),
                     mode="reflect" if padding == "reflect" else "constant")
    out = np.empty((C, up * H, up * W)) if up > 1 else None
    for phase in range(up * up):
        a, b = divmod(phase, up)
        # output phase (a, b) meets a sample only through the taps (di, dj)
        # with di - r - a and dj - r - b divisible by up
        acc = np.zeros((C, H // down, W // down))
        for di in range((r + a) % up, kernel.size, up):
            for dj in range((r + b) % up, kernel.size, up):
                i, j = (r + a - di) // up + lo, (r + b - dj) // up + lo
                acc += kernel.taps[di, dj] * src[:, i: i + H: down, j: j + W: down]
        if up == 1:
            return acc
        np.multiply(acc, up * up, out=out[:, a::up, b::up])
    return out


def convolve2d(img, kernel: Kernel2D, padding: str = "reflect") -> np.ndarray:
    """Convolve each channel with `kernel` at unchanged resolution."""
    return _filtered(check_image(img), kernel, padding)


def downsample2x_af(img, kernel: Kernel2D, padding: str = "reflect") -> np.ndarray:
    """Low-pass filter, then keep even-index rows and columns."""
    return _filtered(_require_even(check_image(img)), kernel, padding, down=2)


def upsample2x_af(img, kernel: Kernel2D, padding: str = "reflect") -> np.ndarray:
    """Zero-interleave to double resolution, filter, and multiply by 4."""
    return _filtered(check_image(img), kernel, padding, up=2)


def downsample2x_naive(img) -> np.ndarray:
    """2x2 max pooling: each block's running maximum in row-major order. np.maximum
    keeps its later operand on a tie, so a +0/-0 tie keeps the sign numpy's reduce gives."""
    arr = _require_even(check_image(img))
    out = np.maximum(arr[:, 0::2, 0::2], arr[:, 0::2, 1::2])
    np.maximum(out, arr[:, 1::2, 0::2], out=out)
    return np.maximum(out, arr[:, 1::2, 1::2], out=out)


def _linear_plan(src, n: int):
    """Linear interpolation of n samples at coordinates `src`, clipped to
    [0, n - 1]: the lower neighbour i0, the upper one min(i0 + 1, n - 1),
    and their weights 1 - f and f, with f the fraction of src past i0."""
    src = np.clip(src, 0.0, n - 1)
    i0 = np.floor(src).astype(int)
    f = src - i0
    return i0, np.minimum(i0 + 1, n - 1), 1.0 - f, f


def _blend(w0, x0, w1, x1) -> np.ndarray:
    """w0 * x0 + w1 * x1, written into x0 and x1, fresh arrays of the result's shape."""
    x0 *= w0
    x1 *= w1
    x0 += x1
    return x0


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
    cols = _blend(wc0, arr.take(c0, axis=2), wc1, arr.take(c1, axis=2))
    return _blend(wr0[:, None], cols.take(r0, axis=1), wr1[:, None], cols.take(r1, axis=1))
