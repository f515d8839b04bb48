"""DDPM forward process, training objective, and reverse-time samplers.

The schedule is a linear ramp of per-step variances beta_t. With
alpha_t = 1 - beta_t and alpha_bar_t their running product, the forward
process admits the closed form

    x_t = sqrt(alpha_bar_t) * x_0 + sqrt(1 - alpha_bar_t) * eps

and the reverse update removes the predicted noise component

    x_{t-1} = (x_t - (1 - alpha_t) / sqrt(1 - alpha_bar_t) * eps_hat)
              / sqrt(alpha_t) + sigma_t * z

with z fresh standard noise, skipped at t = 1. Steps t are 1-based at
every interface; schedule arrays are indexed [t - 1].

Denoisers are pluggable objects with predict(x_t, t). For isotropic
Gaussian data the exact posterior-mean noise predictor has a closed
form, which lets the whole chain be exercised without any training.
"""

from dataclasses import dataclass

import numpy as np

from .resample import _image_shape
from .rng import Rng, _choice, _finite, _whole
from .rotation import _rotator

SIGMA_MODES = ("beta", "zero")


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step arrays, each of length T, indexed [t - 1]."""

    T: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray


def linear_schedule(T: int, beta_start: float = 1e-4, beta_end: float = 0.02,
                    sigma_mode: str = "beta") -> NoiseSchedule:
    """Linearly spaced variance schedule from beta_start to beta_end.

    T = 1 degenerates to the single value beta_start. sigma_mode "beta"
    sets sigma_t = sqrt(beta_t); "zero" makes the sampler deterministic.
    """
    T = _whole(T, "T", 1)
    if not (0.0 < _finite(beta_start, "beta_start") <= _finite(beta_end, "beta_end") < 1.0):
        raise ValueError(
            f"need 0 < beta_start <= beta_end < 1, got {beta_start}, {beta_end}")
    _choice(sigma_mode, SIGMA_MODES, "sigma_mode")
    beta = np.linspace(beta_start, beta_end, T)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    sigma = np.sqrt(beta) if sigma_mode == "beta" else np.zeros(T)
    for a in (beta, alpha, alpha_bar, sigma):
        a.setflags(write=False)
    return NoiseSchedule(T=T, beta=beta, alpha=alpha, alpha_bar=alpha_bar, sigma=sigma)


def _check_step(sched: NoiseSchedule, t: int) -> int:
    t = _whole(t, "step t")
    if not 1 <= t <= sched.T:
        raise ValueError(f"step t must lie in 1..{sched.T}, got {t}")
    return t


def forward_noise(x0, t: int, eps, sched: NoiseSchedule) -> np.ndarray:
    """Closed-form jump to noise level t: mix x0 with one noise draw."""
    x0 = np.asarray(x0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x0.shape != eps.shape:
        raise ValueError(f"x0 shape {x0.shape} does not match eps shape {eps.shape}")
    return _noised(sched.alpha_bar[_check_step(sched, t) - 1], x0, eps)


def _noised(ab, x0, eps):
    """The closed form, elementwise: ab is one alpha_bar, or one per leading row."""
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


@dataclass(frozen=True)
class GaussianDataSpec:
    """Isotropic Gaussian data N(mean, stddev^2 I) per element of an `_image_shape` shape."""

    mean: float
    stddev: float
    shape: tuple

    def __post_init__(self):
        _finite(self.mean, "mean")
        if not 0.0 < _finite(self.stddev, "stddev"):
            raise ValueError(f"stddev must be > 0, got {self.stddev}")
        object.__setattr__(self, "shape", _image_shape(self.shape))

    def draw(self, rng: Rng) -> np.ndarray:
        return self.mean + self.stddev * rng.normal(self.shape)


class ZeroDenoiser:
    """Predicts no noise anywhere. Useful as a null baseline."""

    def predict(self, x_t, t):
        return np.zeros_like(np.asarray(x_t, dtype=float))


class ConstantDenoiser:
    """Predicts the same value for every element regardless of input."""

    def __init__(self, value: float):
        self.value = _finite(value, "value")

    def predict(self, x_t, t):
        return np.full_like(np.asarray(x_t, dtype=float), self.value)


class AnalyticGaussianDenoiser:
    """Exact posterior-mean noise predictor for isotropic Gaussian data.

    For x_t built from N(mean, stddev^2 I) data, the conditional
    expectation of the noise given x_t is linear:

        E[eps | x_t] = sqrt(1 - ab_t) * (x_t - sqrt(ab_t) * mean)
                       / (ab_t * stddev^2 + 1 - ab_t)

    This is the unique minimizer of the noise-prediction objective, so it
    stands in for a perfectly trained network.
    """

    def __init__(self, data: GaussianDataSpec, sched: NoiseSchedule):
        self.data = data
        self.sched = sched
        # per-step tables [t - 1]; elementwise, so each entry has the bits of its scalar formula
        ab = sched.alpha_bar
        self._slope = (np.sqrt(1.0 - ab) / (ab * data.stddev ** 2 + 1.0 - ab)).tolist()
        self._shift = (np.sqrt(ab) * data.mean).tolist()

    def coefficient(self, t: int) -> float:
        """Slope of the prediction in (x_t - sqrt(ab_t) * mean)."""
        return self._slope[_check_step(self.sched, t) - 1]

    def predict(self, x_t, t):
        x_t = np.asarray(x_t, dtype=float)
        i = _check_step(self.sched, t) - 1
        return self._slope[i] * (x_t - self._shift[i])


def training_loss(denoiser, data: GaussianDataSpec, sched: NoiseSchedule,
                  n_draws: int, rng: Rng) -> float:
    """Monte-Carlo noise-prediction objective.

    Each draw samples x0 from the data distribution, a step t uniform on
    1..T, and a fresh eps, then scores ||eps - predict(x_t, t)||^2. The
    per-draw order is x0 elements, then t, then eps elements, so a fixed
    seed pins the entire sequence. The draws come in runs from `Rng._runs`:
    x0 and x_t are formed for a whole run at once, predict runs once per
    draw, in order, on that draw's x_t with its int t, and each draw's
    squared error is added to the total in draw order. The stream, the
    counter and the loss are those of data.draw, randint and normal called
    once per draw. predict may return anything that broadcasts to
    data.shape. The rng must have a single stream.
    """
    n_draws = _whole(n_draws, "n_draws", 1)
    total = 0.0
    for z, ts, eps in rng._runs(n_draws, data.shape, sched.T, data.shape):
        ab = sched.alpha_bar[np.subtract(ts, 1)].reshape(-1, 1, 1, 1)
        x_t = _noised(ab, data.mean + data.stddev * z, eps)
        predicted = np.empty_like(eps)
        for j, t in enumerate(ts):
            predicted[j] = denoiser.predict(x_t[j], t)  # assignment broadcasts each return
        err = eps - predicted
        err *= err
        for term in err.reshape(len(ts), -1).sum(axis=1).tolist():
            total += term  # one at a time, left to right: sum() compensates on Python 3.12+
    return total / n_draws


def sample_classical(denoiser, sched: NoiseSchedule, shape, rng: Rng) -> np.ndarray:
    """Reverse chain from pure noise to a data sample: sample_rotated at phi = 0."""
    return sample_rotated(denoiser, sched, shape, 0.0, rng)


def sample_rotated(denoiser, sched: NoiseSchedule, shape, phi: float, rng: Rng,
                   fill: str = "replicate") -> np.ndarray:
    """Reverse chain that spreads one rotation across the trajectory.

    After every reverse step, including t = 1, the state turns by phi / T,
    so the total applied rotation is phi; phi = 0 skips the turns. Draw
    order: the initial x_T, then one fresh noise image per step with
    t > 1 (whenever sigma_t is nonzero). The step noise comes one draw
    per noisy step from `Rng._draws`; the stream, the counter and the
    output are those of one normal(shape) call per step. The step
    scalars (1 - alpha_t) / sqrt(1 - alpha_bar_t), sqrt(alpha_t) and
    sigma_t are computed once per chain, elementwise, in the bits of the
    per-step formulas, and the noise is added in place. A
    multi-stream rng runs one trajectory per stream and returns shape
    (N,) + shape; the denoiser then predicts on that whole batch.

    The rotation's gather indices and weights are built once per chain,
    not once per step; the output bytes are those of one rotate call per
    step. A shape `_image_shape` rejects, a non-finite phi and an unknown
    fill are rejected before any draw or predict call.
    """
    shape = _image_shape(shape)
    step_angle = _finite(phi, "phi") / sched.T
    turn = _rotator(shape, step_angle, fill)
    coef = ((1.0 - sched.alpha) / np.sqrt(1.0 - sched.alpha_bar)).tolist()
    root_alpha = np.sqrt(sched.alpha).tolist()
    sigma = sched.sigma.tolist()
    x = rng.normal(shape)
    noise = rng._draws(int(np.count_nonzero(sched.sigma[1:])), shape)
    for t in range(sched.T, 0, -1):
        i = t - 1
        eps_hat = denoiser.predict(x, t)
        x = (x - coef[i] * eps_hat) / root_alpha[i]
        if t > 1 and sigma[i] != 0.0:
            x += sigma[i] * next(noise)[0]
        if step_angle != 0.0:
            x = turn(x)
    return x
