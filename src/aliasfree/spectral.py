"""Spectral measurements and the standing evaluation pipelines.

Everything here is measurement machinery: centered 2D DFTs, kernel
frequency responses, the fraction of signal energy above a cutoff, a
deterministic band-limited image corpus, and the four processing
pipelines whose rotation equivariance gets compared.

Pipelines pair one downsampler, one nonlinearity, and one upsampler; a
kind picks naive or alias-free resamplers and a plain or wrapped one:

    A: naive down, plain ReLU, naive up
    B: alias-free down, plain ReLU, alias-free up
    C: naive down, wrapped ReLU, naive up
    D: alias-free down, wrapped ReLU, alias-free up

`pipeline_stages` alone turns a kind into its (down, act, up) operators.
A config designs its kernel when built, before any image is touched.
Names like "D-1N" append the filter beta and an N for a normalized
kernel of the default size and cutoff; config A carries no filter at all.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .activation import (ACTIVATIONS, _pointwise_bands, _wrapped_bands, apply_pointwise,
                         wrapped_activation)
from .filter_design import HALF_PI, FilterSpec, Kernel2D, design_kernel
from .resample import (PADDING_MODES, _af_bands, _bilinear_bands, _max_pool_bands, check_image,
                       downsample2x_af, downsample2x_naive, upsample2x_af, upsample2x_naive)
from .rng import Rng, _choice, _finite, _number, _whole
from .rotation import _rotator

# kind -> (alias-free resamplers?, wrapped nonlinearity?)
_KINDS = {"A": (False, False), "B": (True, False), "C": (False, True), "D": (True, True)}
PIPELINE_KINDS = tuple(_KINDS)


def dft2(img) -> np.ndarray:
    """Centered 2D DFT of a square single-channel matrix.

    Bin (i, j) of the result holds frequency (w1, w2) = 2 pi (k1, k2) / N
    with k = i - N // 2, so the zero-frequency bin sits at the center.
    """
    arr = np.asarray(img, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square 2D matrix, got shape {arr.shape}")
    return np.fft.fftshift(np.fft.fft2(arr))


def spectrum_freqs(N: int) -> np.ndarray:
    """Angular frequency of each centered-DFT bin: 2 pi k / N, k = -N//2 .. N//2 - 1."""
    N = _whole(N, "N", 1)
    return 2.0 * np.pi * (np.arange(N) - N // 2) / N


def freq_response(kernel: Kernel2D, N: int) -> np.ndarray:
    """Magnitude response of a kernel on the N x N centered-DFT grid.

    The kernel is embedded at the center of an otherwise zero N x N
    field; the DC bin of the result equals the tap sum.
    """
    N = _whole(N, "N", kernel.size)
    field = np.zeros((N, N))
    r, c = kernel.radius, N // 2
    # embedding position only shifts phase; magnitudes are unaffected
    field[c - r: c + r + 1, c - r: c + r + 1] = kernel.taps
    return np.abs(dft2(field))


def alias_energy(img, cutoff: float = HALF_PI) -> float:
    """Fraction of spectral energy with max(|w1|, |w2|) above the cutoff.

    Accepts a single H x W matrix or a C x H x W tensor; channels pool
    their energy. Returns 0 for an all-zero input.
    """
    arr = np.asarray(img, dtype=float)
    arr = check_image(arr[None] if arr.ndim == 2 else arr)
    _, H, W = arr.shape
    if H != W:
        raise ValueError(f"expected square images, got {H} x {W}")
    if not (0.0 < _finite(cutoff, "cutoff") <= math.pi):
        raise ValueError(f"cutoff must lie in (0, pi], got {cutoff}")
    w = np.abs(spectrum_freqs(H))
    above = np.maximum(w[:, None], w[None, :]) > cutoff
    total = high = 0.0
    for channel in arr:
        power = np.abs(dft2(channel)) ** 2
        total += float(power.sum())
        high += float(power[above].sum())
    if total == 0.0:
        return 0.0
    return high / total


def band_limited_corpus(count: int = 8, size: int = 64, seed: int = 2024) -> np.ndarray:
    """Deterministic band-limited test images, shape (count, 1, size, size).

    Image i starts as white noise from Rng(seed ^ i), keeps only the DFT
    bins with max(|w1|, |w2|) strictly below 0.8 * (pi / 2), drops DC, and
    is rescaled to peak magnitude 0.8. The 20 percent guard band below
    the resampling cutoff means any above-cutoff energy seen after
    processing was created by the pipeline under test, not carried in.
    The most recent corpus is kept, read-only, and each call returns a
    writable copy of it.
    """
    count = _whole(count, "count", 1)
    size = _whole(size, "size", 16)
    if size % 2:
        raise ValueError(f"size must be even, got {size}")
    return _corpus(count, size, _whole(seed, "seed")).copy()


@lru_cache(maxsize=1)
def _corpus(count: int, size: int, seed: int) -> np.ndarray:
    kmax = math.ceil(0.2 * size) - 1  # largest k with 2 pi k / size < 0.4 pi
    ks = np.fft.fftfreq(size, d=1.0 / size).astype(int)
    keep = np.abs(ks) <= kmax
    mask = keep[:, None] & keep[None, :]
    mask[0, 0] = False
    noise = Rng([seed ^ i for i in range(count)]).normal((size, size))
    imgs = np.fft.ifft2(np.fft.fft2(noise) * mask).real
    peaks = np.max(np.abs(imgs), axis=(1, 2), keepdims=True)
    corpus = (imgs * (0.8 / peaks))[:, None]
    corpus.flags.writeable = False
    return corpus


@dataclass(frozen=True)
class PipelineConfig:
    """One pipeline kind, the filter its stages use (None for A) and its kernel."""

    kind: str
    filter_spec: Optional[FilterSpec] = None
    kernel: Optional[Kernel2D] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        filtered = any(_KINDS[_choice(self.kind, PIPELINE_KINDS, "pipeline kind")])
        if filtered != (self.filter_spec is not None):
            raise ValueError(f"pipeline {self.kind} needs a filter spec" if filtered
                             else f"pipeline {self.kind} uses no filter")
        object.__setattr__(self, "kernel", design_kernel(self.filter_spec) if filtered else None)


def config_name(config: PipelineConfig) -> str:
    """Short name like "A" or "D-1N". Names cover the default kernel size and
    cutoff only: any other filter raises, so every name parses back equal."""
    spec = config.filter_spec
    if spec is None:
        return config.kind
    if (spec.kernel_size, spec.cutoff) != (3, HALF_PI):
        raise ValueError(f"pipeline names cover kernel_size 3 and cutoff pi/2 only, got {spec}")
    beta = spec.kaiser_beta
    beta_txt = str(int(beta)) if beta == int(beta) else repr(beta)
    suffix = "N" if spec.normalized else ""
    return f"{config.kind}-{beta_txt}{suffix}"


def parse_config_name(name: str) -> PipelineConfig:
    """Inverse of config_name for names like "A", "B-2", "D-1N" (default kernel
    size and cutoff); PipelineConfig and FilterSpec check the kind, filter and beta."""
    kind, sep, tail = str(name).partition("-")
    if not sep:
        return PipelineConfig(kind)
    normalized = tail.endswith("N")
    try:
        beta = _number(float)(tail[:-1] if normalized else tail)
    except ValueError:
        raise ValueError(f"bad filter beta in pipeline name {name!r}") from None
    return PipelineConfig(kind, FilterSpec(kaiser_beta=beta, normalized=normalized))


def _stage(op, bands, **kwargs):
    """op with `kwargs` bound, a function of one image, whose `bands` is its band form
    (`resample._slabs`) with the same arguments: the raster commands run that."""
    stage = partial(op, **kwargs)
    stage.bands = partial(bands, **kwargs)
    return stage


def pipeline_stages(config: PipelineConfig, act: str = "relu", padding: str = "reflect"):
    """(down, act, up) of a pipeline, each a function of one C x H x W image.
    `act` and `padding` (its filters' border rule) are checked here, for every kind.
    Each stage's `bands` checks an image as the stage does and yields the stage's
    output in bands of rows, with the bytes of the stage."""
    _choice(act, ACTIVATIONS, "activation")
    _choice(padding, PADDING_MODES, "padding mode")
    af, wrapped = _KINDS[config.kind]
    filtered = {"kernel": config.kernel, "padding": padding}
    down = (_stage(downsample2x_af, partial(_af_bands, down=2), **filtered) if af
            else _stage(downsample2x_naive, _max_pool_bands))
    up = (_stage(upsample2x_af, partial(_af_bands, up=2), **filtered) if af
          else _stage(upsample2x_naive, _bilinear_bands))
    nonlinearity = (_stage(wrapped_activation, _wrapped_bands, act=act, **filtered) if wrapped
                    else _stage(apply_pointwise, _pointwise_bands, act=act))
    return down, nonlinearity, up


def apply_pipeline(config: PipelineConfig, img) -> np.ndarray:
    """Downsample, apply ReLU (wrapped for C and D), upsample back; reflect padding."""
    down, act, up = pipeline_stages(config)
    return up(act(down(img)))


def equivariance_error(config: PipelineConfig, img, phi: float) -> float | list[float]:
    """Relative L2 gap between rotate-then-process and process-then-rotate.

    The pipeline is apply_pipeline: ReLU with reflect padding. Rotations
    here use zero fill: replicate fill floods the turned-in corners with
    flat extrapolated content, and the comparison then mostly scores how
    a pipeline treats synthetic borders rather than the image itself.
    With zero fill both operand orders see the same vacated corners.
    A C x H x W image gives one float and an N x C x H x W batch a list of
    N floats, each bit for bit its image's own: the batch runs folded into
    the channel axis, which every stage treats channel by channel.
    """
    arr = np.asarray(img, dtype=float)
    if arr.ndim not in (3, 4) or 0 in arr.shape:
        raise ValueError(f"expected a non-empty C x H x W image or N x C x H x W batch, "
                         f"got shape {arr.shape}")
    batch = arr if arr.ndim == 4 else arr[None]
    x = batch.reshape((-1,) + batch.shape[2:])
    turn = _rotator(x.shape, phi, "zero")  # one plan for both turns, the bytes of rotate
    first = apply_pipeline(config, turn(x)).reshape(batch.shape)
    last = turn(apply_pipeline(config, x)).reshape(batch.shape)
    pairs = [(np.linalg.norm(a - b), np.linalg.norm(b)) for a, b in zip(first, last)]
    errors = [float(gap / denom if denom != 0.0 else gap) for gap, denom in pairs]
    return errors if arr.ndim == 4 else errors[0]
