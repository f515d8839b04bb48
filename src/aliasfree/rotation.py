"""Image rotation by inverse mapping with bilinear interpolation.

Angles are in radians and positive angles turn the image content
counterclockwise on screen, where row 0 is the top of the picture. The
rotation center is the geometric center of the pixel grid,
((H - 1) / 2, (W - 1) / 2), which for even sizes falls between samples.
"""

import math

import numpy as np

from .resample import _linear_plan, check_image

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


def _bilinear_plan(H: int, W: int, src_r, src_c):
    """Flat gather indices and blend weights for bilinear samples of an
    H x W grid at broadcast (src_r, src_c), clamped to the grid."""
    r0, r1, wr0, wr1 = _linear_plan(src_r, H)
    c0, c1, wc0, wc1 = _linear_plan(src_c, W)
    return (r0 * W + c0, r0 * W + c1, r1 * W + c0, r1 * W + c1), (wc0, wc1, wr0, wr1)


def _bilinear_apply(arr: np.ndarray, plan) -> np.ndarray:
    """Bilinear samples of every channel of a C x H x W array by a plan."""
    (i00, i01, i10, i11), (wc0, wc1, wr0, wr1) = plan
    C, H, W = arr.shape
    # gather by flat index: take along one axis is numpy's fastest gather
    flat = arr.reshape(C, H * W)
    top = wc0 * flat.take(i00, axis=1) + wc1 * flat.take(i01, axis=1)
    bottom = wc0 * flat.take(i10, axis=1) + wc1 * flat.take(i11, axis=1)
    return wr0 * top + wr1 * bottom


def _rotator(H: int, W: int, phi, fill: str):
    """Check phi and fill, build the gather plan and zero-fill mask once, and
    return a function that turns a C x H x W float array by phi."""
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    if fill not in FILL_MODES:
        raise ValueError(f"unknown fill mode {fill!r}, expected one of {FILL_MODES}")

    cy = (H - 1) / 2.0
    cx = (W - 1) / 2.0
    c, s = _snap(math.cos(phi)), _snap(math.sin(phi))

    dr = np.arange(H)[:, None] - cy
    dc = np.arange(W)[None, :] - cx
    # inverse map: rotate the output offset by -phi in display coordinates
    src_r = cy + c * dr + s * dc
    src_c = cx - s * dr + c * dc

    plan = _bilinear_plan(H, W, src_r, src_c)
    if fill == "replicate":
        return lambda arr: _bilinear_apply(arr, plan)
    inside = ((src_r >= 0.0) & (src_r <= H - 1)
              & (src_c >= 0.0) & (src_c <= W - 1))[None, :, :]
    return lambda arr: np.where(inside, _bilinear_apply(arr, plan), 0.0)


def rotate(img, phi, fill: str = "replicate") -> np.ndarray:
    """Rotate an image tensor about its center by `phi` radians.

    Each output pixel pulls from the source location found by rotating
    its own offset from the center by -phi, then interpolates bilinearly
    between the four surrounding samples. Source locations outside the
    grid are handled by `fill`: "replicate" clamps them to the nearest
    edge sample, "zero" makes the pixel 0. phi = 0 returns the input
    values unchanged. The indices and weights depend only on the shape,
    phi and fill; `sample_rotated` builds them once per chain and gets
    the same bytes as one call here per step.
    """
    arr = check_image(img)
    _, H, W = arr.shape
    return _rotator(H, W, phi, fill)(arr)
