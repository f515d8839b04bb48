import itertools
import math

import numpy as np
import pytest

from aliasfree import (FILL_MODES, AnalyticGaussianDenoiser, ConstantDenoiser,
                       FilterSpec, GaussianDataSpec, ZeroDenoiser, convolve2d,
                       design_kernel, forward_noise, linear_schedule, rotate,
                       sample_classical, sample_rotated, training_loss)
from aliasfree import rng as rng_module
from aliasfree.cli import parse_shape
from aliasfree.rng import Rng

from _oracles import sample_rotated_per_step, training_loss_per_draw


def test_schedule_default_constants():
    s = linear_schedule(1000)
    assert s.T == 1000
    assert s.beta[0] == 1e-4
    assert s.beta[-1] == 0.02
    assert np.all(np.diff(s.beta) > 0)
    assert np.array_equal(s.alpha, 1.0 - s.beta)
    assert np.all(np.diff(s.alpha_bar) < 0)  # strictly decreasing
    assert np.array_equal(s.sigma, np.sqrt(s.beta))


def test_schedule_cumulative_product_recurrence():
    s = linear_schedule(50)
    assert s.alpha_bar[0] == s.alpha[0]
    for t in range(2, 51):
        assert s.alpha_bar[t - 1] == pytest.approx(
            s.alpha_bar[t - 2] * s.alpha[t - 1], rel=1e-15)


def test_schedule_single_step_degenerates():
    s = linear_schedule(1, 0.5, 0.5, sigma_mode="zero")
    assert np.array_equal(s.beta, [0.5])
    assert np.array_equal(s.alpha, [0.5])
    assert np.array_equal(s.alpha_bar, [0.5])
    assert np.array_equal(s.sigma, [0.0])


def test_schedule_sigma_modes():
    z = linear_schedule(10, sigma_mode="zero")
    assert np.all(z.sigma == 0.0)
    with pytest.raises(ValueError):
        linear_schedule(10, sigma_mode="eta")


def test_schedule_validation():
    with pytest.raises(ValueError):
        linear_schedule(0)
    with pytest.raises(ValueError):
        linear_schedule(10, 0.02, 0.01)  # start > end
    with pytest.raises(ValueError):
        linear_schedule(10, 0.0, 0.01)
    with pytest.raises(ValueError):
        linear_schedule(10, 0.1, 1.0)
    with pytest.raises(ValueError, match="got 2.5"):
        linear_schedule(2.5)
    assert linear_schedule(3.0).T == linear_schedule(np.int64(3)).T == 3


def test_schedule_arrays_read_only():
    s = linear_schedule(10)
    with pytest.raises(ValueError):
        s.beta[0] = 0.5


def test_forward_noise_closed_form():
    s = linear_schedule(1, 0.19, 0.19)
    x0 = np.ones((1, 1, 1))
    eps = np.ones((1, 1, 1))
    out = forward_noise(x0, 1, eps, s)
    assert out[0, 0, 0] == pytest.approx(math.sqrt(0.81) + math.sqrt(0.19), abs=1e-12)
    assert out[0, 0, 0] == pytest.approx(1.3358899, abs=1e-6)


def test_forward_noise_at_no_noise_limit():
    s = linear_schedule(100)
    x0 = np.asarray(Rng(1).normal((1, 3, 3)))
    out = forward_noise(x0, 1, np.zeros_like(x0), s)
    assert np.max(np.abs(out - math.sqrt(s.alpha_bar[0]) * x0)) <= 1e-15


def test_forward_noise_validation():
    s = linear_schedule(10)
    x = np.zeros((1, 2, 2))
    with pytest.raises(ValueError):
        forward_noise(x, 0, x, s)
    with pytest.raises(ValueError):
        forward_noise(x, 11, x, s)
    with pytest.raises(ValueError, match="got 0.5"):
        forward_noise(x, 0.5, x, s)
    with pytest.raises(ValueError, match="got inf"):
        forward_noise(x, math.inf, x, s)
    with pytest.raises(ValueError):
        forward_noise(x, 3, np.zeros((1, 2, 3)), s)


def test_gaussian_data_spec():
    d = GaussianDataSpec(mean=0.3, stddev=0.05, shape=(1, 8, 8))
    x = d.draw(Rng(2))
    assert x.shape == (1, 8, 8)
    with pytest.raises(ValueError):
        GaussianDataSpec(mean=0.0, stddev=0.0, shape=(1, 8, 8))
    with pytest.raises(ValueError):
        GaussianDataSpec(mean=0.0, stddev=1.0, shape=(8, 8))
    for mean, stddev, field in ((math.nan, 1.0, "mean"), (math.inf, 1.0, "mean"),
                                (-math.inf, 1.0, "mean"), (0.0, math.inf, "stddev"),
                                (0.0, math.nan, "stddev")):
        with pytest.raises(ValueError, match=field):
            GaussianDataSpec(mean=mean, stddev=stddev, shape=(1, 8, 8))


def test_constant_denoiser_rejects_non_finite_values():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="value"):
            ConstantDenoiser(value)


def test_analytic_denoiser_is_zero_at_the_data_mean():
    d = GaussianDataSpec(mean=0.3, stddev=0.05, shape=(1, 2, 2))
    s = linear_schedule(1000)
    den = AnalyticGaussianDenoiser(d, s)
    for t in (1, 500, 1000):
        x_t = np.full(d.shape, math.sqrt(s.alpha_bar[t - 1]) * d.mean)
        assert np.array_equal(den.predict(x_t, t), np.zeros(d.shape))


def test_analytic_denoiser_sharp_data_limit():
    # as stddev -> 0 the denoiser inverts the forward map exactly
    d = GaussianDataSpec(mean=0.3, stddev=1e-12, shape=(1, 2, 2))
    s = linear_schedule(1000)
    den = AnalyticGaussianDenoiser(d, s)
    rng = Rng(3)
    for t in (1, 400, 1000):
        eps = rng.normal(d.shape)
        x_t = forward_noise(np.full(d.shape, d.mean), t, eps, s)
        assert np.max(np.abs(den.predict(x_t, t) - eps)) <= 1e-9


def test_analytic_coefficient_matches_regression():
    # the predictor is linear in x_t; its slope must match a Monte-Carlo
    # linear regression of eps on x_t at fixed t to three significant figures
    d = GaussianDataSpec(mean=0.3, stddev=0.05, shape=(1, 8, 8))
    s = linear_schedule(1000)
    den = AnalyticGaussianDenoiser(d, s)
    t = 500
    rng = Rng(123)
    n = 100_000
    x0 = d.mean + d.stddev * np.asarray(rng.normal((n,)))
    eps = np.asarray(rng.normal((n,)))
    ab = s.alpha_bar[t - 1]
    x_t = math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * eps
    slope = float(np.cov(eps, x_t)[0, 1] / np.var(x_t, ddof=1))
    assert slope == pytest.approx(den.coefficient(t), rel=1e-3)


def test_analytic_denoiser_step_validation():
    d = GaussianDataSpec(mean=0.0, stddev=1.0, shape=(1, 2, 2))
    s = linear_schedule(10)
    den = AnalyticGaussianDenoiser(d, s)
    with pytest.raises(ValueError):
        den.predict(np.zeros(d.shape), 0)
    with pytest.raises(ValueError, match="got 2.7"):
        den.predict(np.zeros(d.shape), 2.7)
    x = np.ones(d.shape)
    assert np.array_equal(den.predict(x, 3.0), den.predict(x, 3))
    assert np.array_equal(den.predict(x, np.int64(3)), den.predict(x, 3))


@pytest.mark.parametrize("T", [1, 7, 1000])
@pytest.mark.parametrize("mu, sigma0", [(0.3, 0.05), (-1.7, 2.5)])
def test_analytic_denoiser_tables_match_the_scalar_formulas(T, mu, sigma0):
    d = GaussianDataSpec(mean=mu, stddev=sigma0, shape=(2, 3, 4))
    s = linear_schedule(T)
    den = AnalyticGaussianDenoiser(d, s)
    x = Rng(T).normal(d.shape)
    for t in range(1, T + 1):
        ab = s.alpha_bar[t - 1]
        slope = math.sqrt(1.0 - ab) / (ab * sigma0 ** 2 + 1.0 - ab)
        assert repr(float(den.coefficient(t))) == repr(float(slope))
        want = den.coefficient(t) * (x - math.sqrt(ab) * mu)
        assert den.predict(x, t).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match=rf"step t must lie in 1\.\.{T}, got {T + 1}$"):
        den.predict(x, T + 1)


class ReplayOracle:
    """Test-only denoiser that replays the exact eps sequence of a run.

    training_loss draws x0, then t, then eps for every iteration; a twin
    stream lets the oracle precompute each eps and return it verbatim, so
    the loss must be exactly zero.
    """

    def __init__(self, data, sched, n_draws, seed):
        rng = Rng(seed)
        self.queue = []
        for _ in range(n_draws):
            rng.normal(data.shape)          # x0 body
            rng.randint(sched.T)            # t
            self.queue.append(rng.normal(data.shape))
        self.queue.reverse()

    def predict(self, x_t, t):
        return self.queue.pop()


def test_training_loss_zero_for_replay_oracle():
    d = GaussianDataSpec(mean=0.3, stddev=0.05, shape=(1, 4, 4))
    s = linear_schedule(100)
    oracle = ReplayOracle(d, s, n_draws=64, seed=77)
    assert training_loss(oracle, d, s, 64, Rng(77)) == 0.0


def test_training_loss_zero_denoiser_matches_noise_energy():
    # with no prediction the objective is E||eps||^2 = C*H*W
    d = GaussianDataSpec(mean=0.3, stddev=0.05, shape=(1, 8, 8))
    s = linear_schedule(1000)
    n = 2000
    loss = training_loss(ZeroDenoiser(), d, s, n, Rng(17))
    dim = 64
    assert abs(loss - dim) <= 4.0 * math.sqrt(2.0 * dim / n)


def test_training_loss_analytic_beats_perturbations():
    d = GaussianDataSpec(mean=0.3, stddev=0.05, shape=(1, 8, 8))
    s = linear_schedule(1000)
    den = AnalyticGaussianDenoiser(d, s)

    class Shifted:
        def __init__(self, base, c):
            self.base, self.c = base, c

        def predict(self, x_t, t):
            return self.base.predict(x_t, t) + self.c

    base = training_loss(den, d, s, 2000, Rng(99))
    for c in (0.1, -0.1):
        assert base < training_loss(Shifted(den, c), d, s, 2000, Rng(99))


def test_training_loss_is_seed_deterministic():
    d = GaussianDataSpec(mean=0.0, stddev=1.0, shape=(1, 4, 4))
    s = linear_schedule(50)
    a = training_loss(ZeroDenoiser(), d, s, 100, Rng(5))
    b = training_loss(ZeroDenoiser(), d, s, 100, Rng(5))
    assert a == b
    with pytest.raises(ValueError):
        training_loss(ZeroDenoiser(), d, s, 0, Rng(5))


def test_classical_sampler_single_step_by_hand():
    s = linear_schedule(1, 0.5, 0.5, sigma_mode="zero")
    rng = Rng(21)
    x_T = Rng(21).normal((1, 2, 2))
    den = ConstantDenoiser(0.25)
    out = sample_classical(den, s, (1, 2, 2), rng)
    # x_0 = (x_1 - (1 - a) / sqrt(1 - ab) * 0.25) / sqrt(a), a = ab = 0.5
    want = (x_T - 0.5 / math.sqrt(0.5) * 0.25) / math.sqrt(0.5)
    assert np.max(np.abs(out - want)) <= 1e-15


def test_classical_sampler_telescopes_with_zero_denoiser():
    s = linear_schedule(1000, sigma_mode="zero")
    x_T = Rng(11).normal((1, 8, 8))
    out = sample_classical(ZeroDenoiser(), s, (1, 8, 8), Rng(11))
    rel = float(np.linalg.norm(out * math.sqrt(s.alpha_bar[-1]) - x_T)
                / np.linalg.norm(x_T))
    assert rel <= 1e-9


def test_deterministic_sampler_draws_only_the_initial_state():
    s = linear_schedule(100, sigma_mode="zero")
    rng = Rng(31)
    sample_classical(ZeroDenoiser(), s, (1, 4, 4), rng)
    assert rng._count == 16  # one Box-Muller word pair per element


def test_stochastic_sampler_draw_order_by_replay():
    s = linear_schedule(3, 0.1, 0.3, sigma_mode="beta")
    shape = (1, 2, 2)
    out = sample_classical(ZeroDenoiser(), s, shape, Rng(41))
    # manual replay: x_3, then z for t = 3 and t = 2, none for t = 1
    rng = Rng(41)
    x = rng.normal(shape)
    for t in (3, 2, 1):
        i = t - 1
        x = x / math.sqrt(s.alpha[i])
        if t > 1:
            x = x + s.sigma[i] * rng.normal(shape)
    assert np.array_equal(out, x)


def test_rotated_sampler_zero_angle_matches_classical_bitwise():
    s = linear_schedule(16)
    a = sample_classical(ZeroDenoiser(), s, (1, 8, 8), Rng(51))
    b = sample_rotated(ZeroDenoiser(), s, (1, 8, 8), 0.0, Rng(51))
    assert np.array_equal(a, b)
    # phi = 0 turns nothing, but the rotation is still built, so fill is checked
    with pytest.raises(ValueError, match="bogus"):
        sample_rotated(ZeroDenoiser(), s, (1, 8, 8), 0.0, Rng(51), fill="bogus")


def test_rotated_sampler_single_step_is_one_rotation():
    s = linear_schedule(1, 0.5, 0.5, sigma_mode="zero")
    phi = 0.37
    a = sample_classical(ZeroDenoiser(), s, (1, 8, 8), Rng(61))
    b = sample_rotated(ZeroDenoiser(), s, (1, 8, 8), phi, Rng(61))
    assert np.array_equal(b, rotate(a, phi))


def test_rotated_sampler_distributes_the_angle():
    # four deterministic steps at phi = pi/2 apply four pi/8 turns;
    # against a pure scaling denoiser that equals two pi/4 turns composed
    s = linear_schedule(4, 0.01, 0.02, sigma_mode="zero")
    out = sample_rotated(ZeroDenoiser(), s, (1, 16, 16), math.pi / 2, Rng(71))
    x = Rng(71).normal((1, 16, 16))
    scale = 1.0 / math.sqrt(s.alpha_bar[-1])
    manual = x * scale
    for _ in range(4):
        manual = rotate(manual, math.pi / 8)
    # scaling commutes with rotation exactly, interpolation does not; the
    # two orders agree to rounding because each step scales uniformly
    assert np.max(np.abs(out - manual)) <= 1e-9 * float(np.max(np.abs(manual)))


def test_samplers_batch_streams_bitwise():
    s = linear_schedule(12)
    data = GaussianDataSpec(mean=0.3, stddev=0.05, shape=(3, 8, 8))
    den = AnalyticGaussianDenoiser(data, s)
    seeds = [4, 5, 6]
    for phi in (0.0, 0.7):
        got = sample_rotated(den, s, (3, 8, 8), phi, Rng(seeds), "zero")
        want = np.stack([sample_rotated(den, s, (3, 8, 8), phi, Rng(k), "zero")
                         for k in seeds])
        assert got.shape == (3, 3, 8, 8)
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(sample_classical(den, s, (3, 8, 8), Rng(seeds)),
                          sample_rotated(den, s, (3, 8, 8), 0.0, Rng(seeds)))


class Recorder:
    """Passes predict through and records each call's step and input bytes."""

    def __init__(self, base):
        self.base, self.calls = base, []

    def predict(self, x_t, t):
        self.calls.append((type(t), t, np.asarray(x_t).tobytes()))
        return self.base.predict(x_t, t)


def _bound_for(per_block, draw_size):
    # None: a bound below one draw; otherwise the largest bound that holds
    # per_block draws, so a block boundary never falls where the bound does
    return 1 if per_block is None else per_block * draw_size + draw_size - 1


# 11 noisy steps at T = 12 and 23 loss draws: 4 and 7 leave a partial last block
@pytest.mark.parametrize("per_block", [None, 1, 4, 7, 64])
def test_sampler_block_noise_matches_per_step_replay(per_block, monkeypatch):
    scheds = [linear_schedule(12), linear_schedule(12, sigma_mode="zero"), linear_schedule(1)]
    for shape in ((1, 3, 3), (3, 5, 7)):
        for seed in (0, [4, 5, 6]):
            streams = len(seed) if isinstance(seed, list) else 1
            bound = _bound_for(per_block, streams * math.prod(shape))
            monkeypatch.setattr(rng_module, "_NOISE_BLOCK", bound)
            for s in scheds:
                den = AnalyticGaussianDenoiser(GaussianDataSpec(0.3, 0.05, shape), s)
                for phi in (0.0, 0.7):
                    got_rng, want_rng = Rng(seed), Rng(seed)
                    got = sample_rotated(den, s, shape, phi, got_rng, "zero")
                    want = sample_rotated_per_step(den, s, shape, phi, want_rng, "zero")
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                    assert got_rng._count == want_rng._count


@pytest.mark.parametrize("fill", FILL_MODES)
def test_rotated_sampler_matches_per_step_rotate_replay(fill):
    # T * pi / 2 makes every step an exact quarter turn, through _snap
    T = 6
    for shape in ((1, 3, 3), (3, 5, 7), (1, 1, 6)):
        for s in (linear_schedule(T), linear_schedule(T, sigma_mode="zero")):
            den = AnalyticGaussianDenoiser(GaussianDataSpec(0.3, 0.05, shape), s)
            for seed in (0, [4, 5, 6]):
                for phi in (0.7, -2.1, T * math.pi / 2):
                    got_rng, want_rng = Rng(seed), Rng(seed)
                    got = sample_rotated(den, s, shape, phi, got_rng, fill)
                    want = sample_rotated_per_step(den, s, shape, phi, want_rng, fill)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (shape, seed, phi)
                    assert got_rng._count == want_rng._count


@pytest.mark.parametrize("phi, shape, match", [
    (float("nan"), (1, 8, 8), "finite"),
    (float("inf"), (1, 8, 8), "finite"),
    (-float("inf"), (3, 5, 7), "finite"),
    (0.3, (8, 8), "C x H x W"),
    (0.3, (1, 1, 8, 8), "C x H x W"),
    (0.3, (1, 0, 8), "C x H x W"),
    (0.3, (0, 8, 8), "C x H x W"),
    (0.0, (1, 0, 8), "shape"),
    (0.0, (0, 8, 8), "shape"),
    (0.0, (8, 8), "C x H x W"),
    (0.0, (1, 1, 8, 8), "C x H x W"),
])
def test_rotated_sampler_rejects_bad_phi_or_shape_before_any_work(phi, shape, match):
    den = Recorder(ZeroDenoiser())
    rng = Rng(3)
    with pytest.raises(ValueError, match=match):
        sample_rotated(den, linear_schedule(10), shape, phi, rng)
    assert rng._count == 0
    assert den.calls == []


def _sampler_entry(phi):
    def entry(shape):
        den, rng = Recorder(ZeroDenoiser()), Rng(3)
        try:
            sample_rotated(den, linear_schedule(10), shape, phi, rng)
        finally:
            assert rng._count == 0
            assert den.calls == []
    return entry


# every entry that takes an image, a sample shape or --shape text
_IMAGE_SHAPE_ENTRIES = {
    "convolve2d": lambda shape: convolve2d(
        np.zeros(shape), design_kernel(FilterSpec(1.0, True))),
    "rotate": lambda shape: rotate(np.zeros(shape), 0.3),
    "sample_rotated_phi0": _sampler_entry(0.0),
    "sample_rotated_phi0.3": _sampler_entry(0.3),
    "GaussianDataSpec": lambda shape: GaussianDataSpec(0.0, 1.0, shape),
    "parse_shape": lambda shape: parse_shape("x".join(map(str, shape))),
}


@pytest.mark.parametrize("shape", [(8, 8), (1, 1, 8, 8), (1, 0, 8), (0, 8, 8), ("1", "2", "2")])
def test_every_entry_gives_one_message_for_a_bad_image_shape(shape):
    # a text side reaches only the entries that take a shape: an array cannot
    # hold one, and --shape text is the CLI's to parse
    text = isinstance(shape[0], str)
    entries = {name: entry for name, entry in _IMAGE_SHAPE_ENTRIES.items()
               if not text or name.startswith(("sample_rotated", "GaussianDataSpec"))}
    messages = {}
    for name, entry in entries.items():
        with pytest.raises(ValueError) as info:
            entry(shape)
        messages[name] = str(info.value)
    want = ("shape side must be a whole number, got '1'" if text
            else f"expected a C x H x W shape with no empty axis, got {shape}")
    assert messages == dict.fromkeys(entries, want)


@pytest.mark.parametrize("phi", [0.0, 0.3])
def test_fractional_shape_sides_raise_before_any_work(phi):
    den = Recorder(ZeroDenoiser())
    rng = Rng(3)
    with pytest.raises(ValueError, match="shape side must be a whole number, got 2.5"):
        sample_rotated(den, linear_schedule(10), (1, 2.5, 3), phi, rng)
    assert rng._count == 0
    assert den.calls == []
    with pytest.raises(ValueError, match="shape side must be a whole number, got 2.5"):
        GaussianDataSpec(0.0, 1.0, (1, 2.5, 3))


def test_whole_float_and_numpy_shape_sides_equal_int_sides():
    s = linear_schedule(5)
    want = sample_rotated(ZeroDenoiser(), s, (1, 4, 3), 0.3, Rng(2))
    for shape in ((1.0, 4.0, 3.0), (np.int64(1), np.int32(4), 3)):
        got = sample_rotated(ZeroDenoiser(), s, shape, 0.3, Rng(2))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert GaussianDataSpec(0.0, 1.0, shape).shape == (1, 4, 3)


class FloatDenoiser:
    """Returns one Python float per step."""

    def predict(self, x_t, t):
        return 0.125 * t


class PlaneDenoiser:
    """Returns an H x W array, which broadcasts over the channels."""

    def predict(self, x_t, t):
        return 0.5 * np.asarray(x_t)[0] - t


class IdentityDenoiser:
    """Returns its own input."""

    def predict(self, x_t, t):
        return x_t


# predict may return anything that broadcasts to data.shape
_LOSS_DENOISERS = [AnalyticGaussianDenoiser, lambda data, s: FloatDenoiser(),
                   lambda data, s: PlaneDenoiser(), lambda data, s: IdentityDenoiser()]


@pytest.mark.parametrize("per_block", [None, 1, 4, 7, 64])
def test_training_loss_block_draws_match_per_draw_replay(per_block, monkeypatch):
    for shape in ((1, 3, 3), (3, 5, 7)):
        words = 2 * math.prod(shape) + 2 * (math.prod(shape) % 2) + 1
        monkeypatch.setattr(rng_module, "_NOISE_BLOCK", _bound_for(per_block, words))
        data = GaussianDataSpec(0.3, 0.05, shape)
        for s in (linear_schedule(12), linear_schedule(12, sigma_mode="zero"),
                  linear_schedule(1)):
            for make, seed in itertools.product(_LOSS_DENOISERS, (0, 91)):
                got_den = Recorder(make(data, s))
                want_den = Recorder(make(data, s))
                got_rng, want_rng = Rng(seed), Rng(seed)
                got = training_loss(got_den, data, s, 23, got_rng)
                want = training_loss_per_draw(want_den, data, s, 23, want_rng)
                assert repr(got) == repr(want)
                assert got_den.calls == want_den.calls
                assert got_rng._count == want_rng._count


def test_training_loss_rejects_multi_stream_rng_before_any_work():
    d = GaussianDataSpec(mean=0.3, stddev=0.05, shape=(1, 4, 4))
    s = linear_schedule(10)
    den = Recorder(ZeroDenoiser())
    rng = Rng([1, 2])
    with pytest.raises(ValueError, match="single-stream"):
        training_loss(den, d, s, 4, rng)
    assert rng._count == 0
    assert den.calls == []


def test_training_loss_rejects_fractional_n_draws_before_any_work():
    d = GaussianDataSpec(mean=0.3, stddev=0.05, shape=(1, 4, 4))
    s = linear_schedule(10)
    den = Recorder(ZeroDenoiser())
    rng = Rng(1)
    with pytest.raises(ValueError, match="got 2.5"):
        training_loss(den, d, s, 2.5, rng)
    assert rng._count == 0
    assert den.calls == []
    assert training_loss(den, d, s, 2.0, Rng(1)) == training_loss(den, d, s, 2, Rng(1))


@pytest.mark.parametrize("bound", [rng_module._NOISE_BLOCK, 59])
@pytest.mark.parametrize("seed", [0, [4, 5, 6]])
def test_noise_blocks_respect_the_bound(bound, seed, monkeypatch):
    # words fetched by each _top53 call holding more than one draw, over all streams
    fetched = []
    top53 = Rng._top53

    def recording(self, count, width):
        if count > 1:
            fetched.append(count * width * math.prod(self._streams))
        return top53(self, count, width)

    monkeypatch.setattr(Rng, "_top53", recording)
    monkeypatch.setattr(rng_module, "_NOISE_BLOCK", bound)
    # odd sizes draw one word more per stream than they hold floats
    for shape in ((1, 1, 1), (1, 3, 3), (1, 8, 8)):
        s = linear_schedule(300)
        data = GaussianDataSpec(0.3, 0.05, shape)
        sample_rotated(AnalyticGaussianDenoiser(data, s), s, shape, 0.0, Rng(seed))
        if not isinstance(seed, list):
            training_loss(ZeroDenoiser(), data, s, 300, Rng(seed))
    assert fetched, "no block held more than one draw"
    assert max(fetched) <= bound
