"""Image rotation by inverse mapping with bilinear interpolation.

Angles are in radians and positive angles turn the image content
counterclockwise on screen, where row 0 is the top of the picture. The
rotation center is the geometric center of the pixel grid,
((H - 1) / 2, (W - 1) / 2), which for even sizes falls between samples.
"""

import math

import numpy as np

from .resample import _blend, _check_finite, _image_shape, _linear_plan
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


def _rotator(shape, phi, fill: str):
    """Check the shape (by `_image_shape`), phi and fill, and build the gather
    plan and zero-fill mask once. The returned turn(arr) checks arr's values and
    turns by phi every H x W plane of a stack whose last three axes are `shape`."""
    _, H, W = _image_shape(shape)
    phi = _finite(phi, "phi")
    _choice(fill, FILL_MODES, "fill mode")

    cy, cx = (H - 1) / 2.0, (W - 1) / 2.0
    c, s = _snap(math.cos(phi)), _snap(math.sin(phi))
    dr = np.arange(H)[:, None] - cy
    dc = np.arange(W)[None, :] - cx
    # inverse map: rotate the output offset by -phi in display coordinates
    src_r = cy + c * dr + s * dc
    src_c = cx - s * dr + c * dc

    r0, r1, wr0, wr1 = _linear_plan(src_r, H)
    c0, c1, wc0, wc1 = _linear_plan(src_c, W)
    i00, i01, i10, i11 = r0 * W + c0, r0 * W + c1, r1 * W + c0, r1 * W + c1
    inside = (src_r >= 0.0) & (src_r <= H - 1) & (src_c >= 0.0) & (src_c <= W - 1)

    def turn(arr):
        # every plane turns alike, so a stack rides in the channel axis;
        # gather by flat index: take along one axis is numpy's fastest gather
        arr = np.asarray(arr, dtype=float)
        flat = _check_finite(arr.reshape(-1, H * W))
        top = _blend(wc0, flat.take(i00, axis=1), wc1, flat.take(i01, axis=1))
        bottom = _blend(wc0, flat.take(i10, axis=1), wc1, flat.take(i11, axis=1))
        out = _blend(wr0, top, wr1, bottom)
        return (out if fill == "replicate" else np.where(inside, out, 0.0)).reshape(arr.shape)
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
