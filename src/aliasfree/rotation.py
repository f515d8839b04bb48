"""Image rotation by inverse mapping with bilinear interpolation.

Angles are in radians and positive angles turn the image content
counterclockwise on screen, where row 0 is the top of the picture. The
rotation center is the geometric center of the pixel grid,
((H - 1) / 2, (W - 1) / 2), which for even sizes falls between samples.
"""

import math

import numpy as np

from .resample import bilinear_gather, check_image

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


def rotate(img, phi, fill: str = "replicate") -> np.ndarray:
    """Rotate an image tensor about its center by `phi` radians.

    Each output pixel pulls from the source location found by rotating
    its own offset from the center by -phi, then interpolates bilinearly
    between the four surrounding samples. Source locations outside the
    grid are handled by `fill`: "replicate" clamps them to the nearest
    edge sample, "zero" makes the pixel 0. phi = 0 returns the input
    values unchanged.
    """
    arr = check_image(img)
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    if fill not in FILL_MODES:
        raise ValueError(f"unknown fill mode {fill!r}, expected one of {FILL_MODES}")

    _, H, W = arr.shape
    cy = (H - 1) / 2.0
    cx = (W - 1) / 2.0
    c, s = _snap(math.cos(phi)), _snap(math.sin(phi))

    dr = np.arange(H)[:, None] - cy
    dc = np.arange(W)[None, :] - cx
    # inverse map: rotate the output offset by -phi in display coordinates
    src_r = cy + c * dr + s * dc
    src_c = cx - s * dr + c * dc

    out = bilinear_gather(arr, src_r, src_c)
    if fill == "zero":
        inside = ((src_r >= 0.0) & (src_r <= H - 1)
                  & (src_c >= 0.0) & (src_c <= W - 1))
        out = np.where(inside[None, :, :], out, 0.0)
    return out
