"""Image rotation by inverse mapping with bilinear interpolation.

Angles are in radians and positive angles turn the image content
counterclockwise on screen, where row 0 is the top of the picture. The
rotation center is the geometric center of the pixel grid,
((H - 1) / 2, (W - 1) / 2), which for even sizes falls between samples.
A turn's gather plan holds four indices and four weights an output pixel,
so a plane of more than one band (`resample._spans`) builds it one band of
rows at a time; the CLI's rotate writes each band into its payload.
"""

import math

import numpy as np

from .resample import _assembled, _blend, _check_finite, _image_shape, _linear_plan, _spans
from .rng import _choice, _finite

FILL_MODES = ("replicate", "zero")

# cos/sin of quarter-turn multiples land within one ulp of {0, +-1};
# snapping them keeps those rotations exactly on the integer grid.
_SNAP_EPS = 1e-12


def _snap(v: float) -> float:
    if abs(v) < _SNAP_EPS:
        return 0.0
    if abs(abs(v) - 1.0) < _SNAP_EPS:
        return math.copysign(1.0, v)
    return v


def _turned(flat: np.ndarray, plan) -> np.ndarray:
    """The rows of a turn that `plan` covers, gathered from every plane of flat
    (K x H*W) by flat index: take along one axis is numpy's fastest gather."""
    (i00, i01, i10, i11), (wr0, wr1, wc0, wc1), inside = plan
    top = _blend(wc0, flat.take(i00, axis=1), wc1, flat.take(i01, axis=1))
    bottom = _blend(wc0, flat.take(i10, axis=1), wc1, flat.take(i11, axis=1))
    out = _blend(wr0, top, wr1, bottom)
    return out if inside is None else np.where(inside, out, 0.0)


def _rotator(shape, phi, fill: str):
    """Check the shape (by `_image_shape`), phi and fill, and return the turn:
    turn(arr) checks arr's values and turns by phi every H x W plane of a stack
    whose last three axes are `shape`. Its gather plan (four flat indices and
    four weights an output pixel, and the zero-fill mask) is built for one band
    of about 2^14 output pixels at a time, inside the turn; a plane of one band
    has its plan built here, once. turn.bands(arr) is the turn's band form, as
    `resample._slabs` gives one: the stack's shape and its bands of rows."""
    _, H, W = _image_shape(shape)
    phi = _finite(phi, "phi")
    _choice(fill, FILL_MODES, "fill mode")

    cy, cx = (H - 1) / 2.0, (W - 1) / 2.0
    c, s = _snap(math.cos(phi)), _snap(math.sin(phi))
    dc = np.arange(W)[None, :] - cx

    def plan(n0, n1):
        dr = np.arange(n0, n1)[:, None] - cy
        # inverse map: rotate the output offset by -phi in display coordinates
        src_r = cy + c * dr + s * dc
        src_c = cx - s * dr + c * dc
        r0, r1, wr0, wr1 = _linear_plan(src_r, H)
        c0, c1, wc0, wc1 = _linear_plan(src_c, W)
        inside = None
        if fill == "zero":
            inside = (src_r >= 0.0) & (src_r <= H - 1) & (src_c >= 0.0) & (src_c <= W - 1)
        return (r0 * W + c0, r0 * W + c1, r1 * W + c0, r1 * W + c1), (wr0, wr1, wc0, wc1), inside

    spans = _spans((1, H, W))  # one plane's plan, shared by every plane of a stack
    whole = plan(0, H) if len(spans) == 1 else None

    def bands(arr):
        # every plane turns alike, so a stack rides in the channel axis
        flat = _check_finite(np.asarray(arr, dtype=float).reshape(-1, H * W))
        return (len(flat), H, W), ((n0, n1, _turned(flat, whole or plan(n0, n1)))
                                   for n0, n1 in spans)

    def turn(arr):
        arr = np.asarray(arr, dtype=float)
        if whole is None:
            return _assembled(*bands(arr)).reshape(arr.shape)
        # one band, as a sampler's state is: one gather by the plan built above
        return _turned(_check_finite(arr.reshape(-1, H * W)), whole).reshape(arr.shape)
    turn.bands = bands
    return turn


def rotate(img, phi, fill: str = "replicate") -> np.ndarray:
    """Rotate an image tensor about its center by `phi` radians.

    Each output pixel pulls from the source location found by rotating
    its own offset from the center by -phi, then interpolates bilinearly
    between the four surrounding samples. Source locations outside the
    grid are handled by `fill`: "replicate" clamps them to the nearest
    edge sample, "zero" makes the pixel 0. phi = 0 returns the input
    values unchanged. The indices and weights depend only on the shape,
    phi and fill; `sample_rotated` builds them once per chain and turns
    all its streams with them, with the bytes of one call per stream and step.
    """
    return _rotator(np.shape(img), phi, fill)(img)
