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

The raster commands run each operator through its band form, which checks
the image as the operator does and then yields the output one band of rows
at a time (`_slabs`): a filter or pooling runs on the input rows its band
reads and keeps its own rows, and bilinear doubling slices its row plan.
Every band form in the package spans its rows by one rule and budget, `_spans`:
about 2^14 output elements a band. The bytes are the whole image's.
"""

from functools import partial

import numpy as np

from .filter_design import Kernel2D
from .rng import _choice, _whole

PADDING_MODES = ("reflect", "zero")
_BAND = 1 << 14  # output elements a band of a band form, across channels
_HALO = 16  # least rows a band per kernel radius: a full band's halo adds <= 1/8, 1/4 at up = 2


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


def _max_pool(arr: np.ndarray) -> np.ndarray:
    out = np.maximum(arr[:, 0::2, 0::2], arr[:, 0::2, 1::2])
    np.maximum(out, arr[:, 1::2, 0::2], out=out)
    return np.maximum(out, arr[:, 1::2, 1::2], out=out)


def downsample2x_naive(img) -> np.ndarray:
    """2x2 max pooling: each block's running maximum in row-major order. np.maximum
    keeps its later operand on a tie, so a +0/-0 tie keeps the sign numpy's reduce gives."""
    return _max_pool(_require_even(check_image(img)))


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


def _doubling(img):
    """img checked for bilinear doubling, and the linear plans of its doubled rows and
    columns: output index u samples input coordinate u * (n - 1) / (2n - 1)."""
    arr = check_image(img)
    _, H, W = arr.shape
    if H < 2 or W < 2:
        raise ValueError(f"bilinear doubling needs H, W >= 2, got {H} x {W}")
    # integer numerators keep the endpoint coordinates exact after division
    return arr, *(_linear_plan(np.arange(2 * n) * (n - 1) / (2 * n - 1), n) for n in (H, W))


def _bilinear(arr, rows, cols) -> np.ndarray:
    """Columns blended by the plan `cols` at arr's rows, then rows by `rows`: each
    output is the same blend of the same four samples as a two-dimensional gather."""
    (r0, r1, wr0, wr1), (c0, c1, wc0, wc1) = rows, cols
    out = _blend(wc0, arr.take(c0, axis=2), wc1, arr.take(c1, axis=2))
    return _blend(wr0[:, None], out.take(r0, axis=1), wr1[:, None], out.take(r1, axis=1))


def upsample2x_naive(img) -> np.ndarray:
    """Align-corners bilinear doubling.

    Output index u samples input coordinate u * (H - 1) / (2H - 1), so the
    four image corners are reproduced exactly.
    """
    return _bilinear(*_doubling(img))


def _spans(shape, r: int = 0) -> list:
    """(n0, n1) of each band of rows of a C x n x w output: at most `_BAND` elements
    across the channels, but at least one row and 16r rows; the last may be shorter."""
    C, n, w = shape
    rows = max(1, _BAND // (C * w), _HALO * r)
    return [(n0, min(n0 + rows, n)) for n0 in range(0, n, rows)]


def _slabs(op, arr: np.ndarray, r: int = 0, up: int = 1, down: int = 1):
    """The band form of op on the checked image arr: op(arr)'s shape, and its bands
    (n0, n1, rows n0 to n1 of op(arr)) as `_spans` gives them: a full band's halo adds at
    most 1/8 to the input rows it reads, 1/4 at up = 2 (r = 1: 8 input rows, 2 halo rows).

    op's output row n may read only input rows within r of n * down / up on its
    interleaved grid, as a filter of radius r, a pooling (r = 0) or the wrapped
    nonlinearity does. A band runs op on those rows alone, clipped to the image and
    from a row `down` divides, and keeps its own rows, so the bytes are the whole
    image's. A slab has all W columns and either every row or more than r / up of
    them, so it passes every border rule the whole image passes. An image of one
    band runs op on all its rows and yields a view of that result, not a copy."""
    C, H, W = arr.shape
    shape, halo = (C, H * up // down, W * up // down), -(-r // up)

    def bands():
        for n0, n1 in _spans(shape, r):
            s0 = max(n0 * down // up - halo, 0) // down * down
            s1 = min(-(-n1 * down // up) + halo, H)
            s1 += s1 % down  # H is a multiple of down, so an end below H may grow by one
            lo = n0 - s0 * up // down
            yield n0, n1, op(arr[:, s0:s1])[:, lo:lo + n1 - n0]
    return shape, bands()


def _assembled(shape, bands) -> np.ndarray:
    """The output of a band form as one float array; a lone band is returned uncopied."""
    out = None
    for n0, n1, rows in bands:
        if n1 - n0 == shape[1]:
            return rows
        if out is None:
            out = np.empty(shape)
        out[:, n0:n1] = rows
        del rows  # freed before the next band is made
    return out


def _af_bands(img, kernel: Kernel2D, padding: str = "reflect", up: int = 1, down: int = 1):
    """The band form of downsample2x_af (down = 2) or upsample2x_af (up = 2)."""
    arr = _require_even(check_image(img)) if down > 1 else check_image(img)
    _check_border(arr, kernel, padding, up)
    return _slabs(partial(_filtered, kernel=kernel, padding=padding, up=up, down=down),
                  arr, kernel.radius, up, down)


def _max_pool_bands(img):
    """The band form of downsample2x_naive."""
    return _slabs(_max_pool, _require_even(check_image(img)), down=2)


def _bilinear_bands(img):
    """The band form of upsample2x_naive: a band slices the row plan to its rows and
    blends the columns of only the input rows that slice reads."""
    arr, rows, cols = _doubling(img)
    shape = len(arr), len(rows[0]), len(cols[0])  # the plans span the doubled sides

    def bands():
        for n0, n1 in _spans(shape):
            r0, r1, w0, w1 = (p[n0:n1] for p in rows)
            lo = r0[0]  # both neighbours grow with the output row
            yield n0, n1, _bilinear(arr[:, lo:r1[-1] + 1], (r0 - lo, r1 - lo, w0, w1), cols)
    return shape, bands()
