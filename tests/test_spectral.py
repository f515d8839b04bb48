import math
import re
import sys
from functools import partial

import numpy as np
import pytest

from aliasfree import (FilterSpec, PipelineConfig, alias_energy,
                       apply_pipeline, apply_pointwise, band_limited_corpus,
                       config_name, design_kernel, dft2, downsample2x_af,
                       downsample2x_naive, equivariance_error, freq_response,
                       parse_config_name, rotate, spectrum_freqs,
                       upsample2x_af, upsample2x_naive, wrapped_activation)
from aliasfree import spectral
from aliasfree.cli import main
from aliasfree.rng import Rng
from aliasfree.rotation import _rotator

from _oracles import dft2_loops, relu_alias_fraction_arccos

HALF_PI = math.pi / 2.0


def test_dft2_matches_direct_sum():
    img = np.asarray(Rng(1).normal((8, 8)))
    got = dft2(img)
    want = dft2_loops(img)
    assert np.max(np.abs(got - want)) <= 1e-9


def test_dft2_centering():
    # a constant image concentrates everything in the center bin
    img = np.full((8, 8), 2.0)
    spec = dft2(img)
    assert spec[4, 4] == pytest.approx(2.0 * 64, abs=1e-9)
    spec[4, 4] = 0.0
    assert np.max(np.abs(spec)) <= 1e-9


def test_dft2_pure_tone_lands_on_its_bin():
    N = 16
    n = np.arange(N)
    img = np.cos(2.0 * np.pi * 3.0 * n[:, None] / N) * np.ones((1, N))
    spec = np.abs(dft2(img))
    ci = N // 2
    assert spec[ci + 3, ci] == pytest.approx(N * N / 2, rel=1e-9)
    assert spec[ci - 3, ci] == pytest.approx(N * N / 2, rel=1e-9)
    spec[ci + 3, ci] = spec[ci - 3, ci] = 0.0
    assert np.max(spec) <= 1e-6


def test_dft2_parseval():
    img = np.asarray(Rng(2).normal((16, 16)))
    spec = dft2(img)
    lhs = float(np.sum(np.abs(spec) ** 2))
    rhs = 256.0 * float(np.sum(img ** 2))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_dft2_validation():
    with pytest.raises(ValueError):
        dft2(np.zeros((4, 6)))
    with pytest.raises(ValueError):
        dft2(np.zeros((1, 4, 4)))


def test_spectrum_freqs_grid():
    w = spectrum_freqs(8)
    assert w[0] == -math.pi
    assert w[4] == 0.0
    assert w[-1] == pytest.approx(2.0 * math.pi * 3 / 8)
    assert np.all(np.diff(w) > 0)
    with pytest.raises(ValueError):
        spectrum_freqs(0)


def test_freq_response_dc_equals_tap_sum():
    for beta, normalized in ((0.0, True), (1.0, False), (2.0, True)):
        kernel = design_kernel(FilterSpec(kaiser_beta=beta, normalized=normalized))
        mag = freq_response(kernel, 32)
        assert mag[16, 16] == pytest.approx(kernel.taps.sum(), abs=1e-12)


def test_freq_response_nyquist_corner():
    # at (pi, pi) the response is the alternating-sign tap sum
    kernel = design_kernel(FilterSpec(kaiser_beta=0.0, normalized=True))
    mag = freq_response(kernel, 16)
    signs = np.array([[1, -1, 1], [-1, 1, -1], [1, -1, 1]], dtype=float)
    want = abs(float((kernel.taps * signs).sum()))
    assert mag[0, 0] == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.0177, abs=1e-3)


def test_freq_response_is_low_pass():
    kernel = design_kernel(FilterSpec(kaiser_beta=1.0, normalized=True))
    mag = freq_response(kernel, 64)
    w = np.abs(spectrum_freqs(64))
    band = np.maximum(w[:, None], w[None, :])
    passband = mag[band <= 0.25 * math.pi].mean()
    stopband = mag[band >= 0.75 * math.pi].mean()
    assert passband > 4.0 * stopband


def test_freq_response_validation():
    kernel = design_kernel(FilterSpec(kaiser_beta=1.0, normalized=True))
    with pytest.raises(ValueError):
        freq_response(kernel, 1)


def test_alias_energy_pure_tones():
    N = 32
    n = np.arange(N)
    low = np.cos(2.0 * np.pi * 4.0 * n[None, :] / N) * np.ones((N, 1))
    high = np.cos(2.0 * np.pi * 12.0 * n[None, :] / N) * np.ones((N, 1))
    assert alias_energy(low, HALF_PI) == pytest.approx(0.0, abs=1e-12)
    assert alias_energy(high, HALF_PI) == pytest.approx(1.0, abs=1e-12)
    mix = low + high
    assert alias_energy(mix, HALF_PI) == pytest.approx(0.5, abs=1e-6)


def test_alias_energy_channel_pooling():
    N = 16
    n = np.arange(N)
    low = (np.cos(2.0 * np.pi * 2.0 * n[None, :] / N) * np.ones((N, 1)))
    high = (np.cos(2.0 * np.pi * 7.0 * n[None, :] / N) * np.ones((N, 1)))
    both = np.stack([low, high])
    assert alias_energy(both, HALF_PI) == pytest.approx(0.5, abs=1e-6)
    assert alias_energy(np.zeros((8, 8))) == 0.0


def test_alias_energy_validation():
    with pytest.raises(ValueError):
        alias_energy(np.zeros((1, 4, 6)))
    with pytest.raises(ValueError):
        alias_energy(np.zeros((8, 8)), 0.0)


def test_corpus_is_deterministic_and_band_limited():
    a = band_limited_corpus()
    b = band_limited_corpus()
    assert a.shape == (8, 1, 64, 64)
    assert np.array_equal(a, b)
    for img in a:
        assert np.max(np.abs(img)) == pytest.approx(0.8, abs=1e-12)
        assert alias_energy(img, HALF_PI) <= 1e-24
        # content stays strictly below 80 percent of the cutoff
        assert alias_energy(img, 0.8 * HALF_PI - 1e-9) <= 1e-24
        assert abs(img.sum()) <= 1e-9  # DC removed


def test_relu_alias_mean_over_the_corpus_matches_the_arc_cosine_prediction():
    # the corpus is a stationary Gaussian, so relu's expected spectrum is known in
    # closed form; the measured mean may sit within 4 standard errors of it
    fractions = [alias_energy(apply_pointwise(img, "relu"))
                 for img in band_limited_corpus(64, 64)]
    standard_error = np.std(fractions, ddof=1) / math.sqrt(len(fractions))
    predicted = relu_alias_fraction_arccos(64)
    assert abs(np.mean(fractions) - predicted) <= 4.0 * standard_error, (
        np.mean(fractions), predicted, standard_error)


def test_corpus_images_differ():
    a = band_limited_corpus(3, 32)
    assert not np.array_equal(a[0], a[1])
    assert not np.array_equal(a[1], a[2])


def test_corpus_matches_per_image_construction():
    count, size, seed = 3, 32, 11
    kmax = math.ceil(0.2 * size) - 1
    ks = np.fft.fftfreq(size, d=1.0 / size).astype(int)
    keep = np.abs(ks) <= kmax
    mask = keep[:, None] & keep[None, :]
    mask[0, 0] = False
    got = band_limited_corpus(count, size, seed)
    for i in range(count):
        img = np.fft.ifft2(np.fft.fft2(Rng(seed ^ i).normal((size, size))) * mask).real
        assert got[i, 0].tobytes() == (img * (0.8 / np.max(np.abs(img)))).tobytes()


def test_fractional_sizes_raise_before_any_work(monkeypatch):
    kernel = design_kernel(FilterSpec(kaiser_beta=1.0, normalized=True))

    def no_work(*args):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(spectral, "Rng", no_work)
    monkeypatch.setattr(spectral, "dft2", no_work)
    for call, name in ((lambda: band_limited_corpus(2.5, 16, 1), "count"),
                       (lambda: band_limited_corpus(2, 16.7, 1), "size"),
                       (lambda: band_limited_corpus(2, 16, 2.5), "seed"),
                       (lambda: spectrum_freqs(4.7), "N"),
                       (lambda: freq_response(kernel, 8.9), "N")):
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda kernel: freq_response(kernel, 2), "N must be >= 3, got 2"),
    (lambda kernel: spectrum_freqs(0), "N must be >= 1, got 0"),
    (lambda kernel: band_limited_corpus(0, 16, 1), "count must be >= 1, got 0"),
    (lambda kernel: band_limited_corpus(2, 8, 1), "size must be >= 16, got 8"),
    (lambda kernel: band_limited_corpus(2, 17, 1), "size must be even, got 17"),
    (lambda kernel: band_limited_corpus(2, 16, 2.5), "seed must be a whole number, got 2.5"),
    (lambda kernel: band_limited_corpus(2, 16, math.inf), "seed must be a whole number, got inf"),
])
def test_sizes_below_their_least_raise_before_any_work(monkeypatch, call, message):
    kernel = design_kernel(FilterSpec(kaiser_beta=1.0, normalized=True))

    def no_work(*args):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(spectral, "Rng", no_work)
    monkeypatch.setattr(spectral, "dft2", no_work)
    with pytest.raises(ValueError, match=re.escape(message)):
        call(kernel)


def test_whole_float_and_numpy_sizes_equal_int_sizes():
    kernel = design_kernel(FilterSpec(kaiser_beta=1.0, normalized=True))
    want = band_limited_corpus(2, 16, 1)
    for count, size in ((2.0, 16.0), (np.int64(2), np.int32(16))):
        assert band_limited_corpus(count, size, 1).tobytes() == want.tobytes()
    # a whole float or numpy seed builds its int's corpus on a cold cache too
    builds = []
    for seed in (2024, 2024.0, np.int64(2024)):
        spectral._corpus.cache_clear()
        builds.append(band_limited_corpus(2, 16, seed).tobytes())
    assert builds == [builds[0]] * 3
    assert spectrum_freqs(8.0).tobytes() == spectrum_freqs(8).tobytes()
    assert freq_response(kernel, np.int64(8)).tobytes() == freq_response(kernel, 8).tobytes()


def test_corpus_validation():
    with pytest.raises(ValueError):
        band_limited_corpus(0, 64)
    with pytest.raises(ValueError):
        band_limited_corpus(2, 15)


def test_config_names_round_trip():
    cases = [
        PipelineConfig("A"),
        PipelineConfig("B", FilterSpec(kaiser_beta=2.0, normalized=False)),
        PipelineConfig("C", FilterSpec(kaiser_beta=0.0, normalized=True)),
        PipelineConfig("D", FilterSpec(kaiser_beta=1.0, normalized=True)),
        PipelineConfig("D", FilterSpec(kaiser_beta=1.5, normalized=True)),
        # betas whose repr carries an exponent, and so a "-"
        PipelineConfig("D", FilterSpec(kaiser_beta=1e-05, normalized=True)),
        PipelineConfig("B", FilterSpec(kaiser_beta=2.5e-07, normalized=False)),
    ]
    for config in cases:
        assert parse_config_name(config_name(config)) == config
    assert config_name(cases[0]) == "A"
    assert config_name(cases[3]) == "D-1N"
    assert config_name(cases[1]) == "B-2"


def test_config_name_validation():
    with pytest.raises(ValueError):
        parse_config_name("E-1N")
    with pytest.raises(ValueError):
        parse_config_name("B")  # filtered pipelines need a suffix
    with pytest.raises(ValueError):
        parse_config_name("A-1N")
    with pytest.raises(ValueError):
        parse_config_name("D-xN")
    # float() reads "1_0", "\u0661" (Arabic-Indic one) and " 1" too; config_name writes none
    # names, like the numbers in them, take no surrounding whitespace
    for name in ("A-1", "D-", "D-infN", "D-1_0N", "B-1_0", "D-\u0661N", "D- 1N", "D-1 N",
                 "  D-1N\n", " A", "A\n", "B-2 "):
        with pytest.raises(ValueError):
            parse_config_name(name)
    with pytest.raises(ValueError):
        PipelineConfig("A", FilterSpec(kaiser_beta=1.0, normalized=True))
    with pytest.raises(ValueError):
        PipelineConfig("D")
    with pytest.raises(ValueError):
        PipelineConfig("E")
    # names cover the default kernel size and cutoff only, so each one parses back equal
    for config in (PipelineConfig("D", FilterSpec(4.0, True, kernel_size=9)),
                   PipelineConfig("B", FilterSpec(1.0, False, cutoff=1.0))):
        with pytest.raises(ValueError, match="kernel_size 3 and cutoff pi/2 only"):
            config_name(config)


def test_apply_pipeline_compositions():
    img = band_limited_corpus(1, 32)[0]
    spec = FilterSpec(kaiser_beta=1.0, normalized=True)
    kernel = design_kernel(spec)

    a = apply_pipeline(PipelineConfig("A"), img)
    want_a = upsample2x_naive(apply_pointwise(downsample2x_naive(img), "relu"))
    assert np.array_equal(a, want_a)

    b = apply_pipeline(PipelineConfig("B", spec), img)
    want_b = upsample2x_af(apply_pointwise(downsample2x_af(img, kernel), "relu"), kernel)
    assert np.array_equal(b, want_b)

    c = apply_pipeline(PipelineConfig("C", spec), img)
    want_c = upsample2x_naive(wrapped_activation(downsample2x_naive(img), "relu", kernel))
    assert np.array_equal(c, want_c)

    d = apply_pipeline(PipelineConfig("D", spec), img)
    want_d = upsample2x_af(wrapped_activation(downsample2x_af(img, kernel), "relu", kernel), kernel)
    assert np.array_equal(d, want_d)


@pytest.mark.parametrize("kind", "BCD")
def test_equivariance_error_designs_the_kernel_at_most_once(monkeypatch, kind):
    calls = []

    def counted(spec):
        calls.append(spec)
        return design_kernel(spec)

    for name, module in list(sys.modules.items()):
        if name.startswith("aliasfree") and hasattr(module, "design_kernel"):
            monkeypatch.setattr(module, "design_kernel", counted)
    spec = FilterSpec(kaiser_beta=1.0, normalized=True)
    equivariance_error(PipelineConfig(kind, spec), band_limited_corpus(2, 16), math.pi / 4)
    assert len(calls) <= 1


_OPERATORS = ("downsample2x_af", "upsample2x_af", "downsample2x_naive", "upsample2x_naive",
              "wrapped_activation", "apply_pointwise")


def _spy(ran, name, operator):
    def spied(*args, **kwargs):
        ran.append(name)
        return operator(*args, **kwargs)
    return spied


@pytest.mark.parametrize("kind", "ABCD")
@pytest.mark.parametrize("act, padding, message", [
    ("tanh", "reflect", "unknown activation 'tanh', expected one of"),
    ("relu", "wrap", "unknown padding mode 'wrap'"),
], ids=["act", "padding"])
def test_pipeline_stages_reject_an_unknown_act_or_padding_before_any_stage_runs(
        monkeypatch, kind, act, padding, message):
    ran = []
    for name in _OPERATORS:
        monkeypatch.setattr(spectral, name, _spy(ran, name, getattr(spectral, name)))
    config = PipelineConfig(kind, None if kind == "A" else FilterSpec(1.0, True))
    with pytest.raises(ValueError, match=message):
        down, nonlinearity, up = spectral.pipeline_stages(config, act, padding)
        up(nonlinearity(down(band_limited_corpus(1, 16)[0])))
    assert ran == []


def test_pipelines_preserve_shape():
    img = band_limited_corpus(1, 32)[0]
    spec = FilterSpec(kaiser_beta=1.0, normalized=True)
    for config in (PipelineConfig("A"), PipelineConfig("B", spec),
                   PipelineConfig("C", spec), PipelineConfig("D", spec)):
        assert apply_pipeline(config, img).shape == img.shape


def test_equivariance_error_zero_for_commuting_case():
    # pipeline A is built from 2x2 block and pointwise operators, all of
    # which commute exactly with quarter turns
    img = band_limited_corpus(1, 32)[0]
    err = equivariance_error(PipelineConfig("A"), img, math.pi / 2)
    assert err <= 1e-12
    # both branches of an all-zero image are zero, so the gap is 0
    config_d = PipelineConfig("D", FilterSpec(kaiser_beta=1.0, normalized=True))
    assert equivariance_error(config_d, np.zeros((1, 16, 16)), math.pi / 4) == 0.0


def test_equivariance_error_scale_invariant():
    img = band_limited_corpus(1, 32)[0]
    config = PipelineConfig("D", FilterSpec(kaiser_beta=1.0, normalized=True))
    e1 = equivariance_error(config, img, math.pi / 4)
    e2 = equivariance_error(config, 2.0 * img, math.pi / 4)
    # relu is positively homogeneous, so doubling the input doubles both
    # branches and the relative error is unchanged
    assert e1 == pytest.approx(e2, rel=1e-9)


def test_equivariance_error_batch_matches_per_image_calls():
    spec = FilterSpec(kaiser_beta=1.0, normalized=True)
    configs = [PipelineConfig("A")] + [PipelineConfig(k, spec) for k in "BCD"]
    rgb = 0.4 * np.asarray(Rng([1, 2, 3]).normal((3, 16, 16)))
    gray = band_limited_corpus(3, 32)
    gray[1] = 0.0
    for batch in (rgb, gray):
        for config in configs:
            for phi in (math.pi / 7, HALF_PI, 0.0):
                errors = equivariance_error(config, batch, phi)
                assert errors == [equivariance_error(config, img, phi) for img in batch]
                assert all(type(e) is float for e in errors)


def _two_rotate_error(config, img, phi):
    """equivariance_error of one C x H x W image, by one rotate call per turn."""
    first = apply_pipeline(config, rotate(img, phi, fill="zero"))
    last = rotate(apply_pipeline(config, img), phi, fill="zero")
    gap, denom = np.linalg.norm(first - last), np.linalg.norm(last)
    return float(gap / denom if denom != 0.0 else gap)


@pytest.mark.parametrize("kind", "ABCD")
def test_equivariance_error_builds_one_rotation_plan_with_the_bytes_of_rotate(
        monkeypatch, kind):
    config = PipelineConfig(kind, None if kind == "A" else FilterSpec(1.0, True))
    plans = []

    def counted(*args):
        plans.append(args)
        return _rotator(*args)

    monkeypatch.setattr(spectral, "_rotator", counted)
    rgb = 0.4 * np.asarray(Rng(4).normal((3, 16, 16)))
    batch = band_limited_corpus(3, 16)
    for arr, want in ((rgb, _two_rotate_error(config, rgb, math.pi / 7)),
                      (batch, [_two_rotate_error(config, img, math.pi / 7) for img in batch])):
        plans.clear()
        assert equivariance_error(config, arr, math.pi / 7) == want
        assert len(plans) == 1


def test_equivariance_error_validation():
    for bad in (np.zeros((8, 8)), np.zeros((0, 1, 8, 8))):
        with pytest.raises(ValueError):
            equivariance_error(PipelineConfig("A"), bad, math.pi / 4)


@pytest.mark.parametrize("shape", [(0, 1, 8, 8), (1, 0, 8, 8), (8, 8), (1, 1, 1, 8, 8)])
def test_equivariance_error_names_the_shape_passed(shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        equivariance_error(PipelineConfig("A"), np.zeros(shape), math.pi / 4)


def test_alias_free_pipeline_wins_at_oblique_angles():
    img = band_limited_corpus(2, 64)
    config_d = PipelineConfig("D", FilterSpec(kaiser_beta=1.0, normalized=True))
    for x in img:
        assert (equivariance_error(config_d, x, math.pi / 4)
                < equivariance_error(PipelineConfig("A"), x, math.pi / 4))


def _counted_rng(monkeypatch):
    """Count the corpus builds: each one constructs one Rng in spectral."""
    built = []

    def counted(seed):
        built.append(seed)
        return Rng(seed)
    monkeypatch.setattr(spectral, "Rng", counted)
    return built


def test_a_repeated_corpus_is_built_once(monkeypatch):
    spectral._corpus.cache_clear()
    built = _counted_rng(monkeypatch)
    first = band_limited_corpus(3, 16, 5)
    for _ in range(4):
        assert band_limited_corpus(3, 16, 5).tobytes() == first.tobytes()
    assert built == [[5, 4, 7]]


def test_a_new_corpus_is_built_and_only_the_latest_is_held(monkeypatch):
    spectral._corpus.cache_clear()
    built = _counted_rng(monkeypatch)
    for count, size, seed in ((2, 16, 5), (2, 16, 6), (2, 32, 6), (3, 32, 6), (2, 16, 5)):
        band_limited_corpus(count, size, seed)
        assert spectral._corpus.cache_info().currsize == 1
    assert len(built) == 5


def test_every_corpus_call_returns_its_own_writable_copy():
    spectral._corpus.cache_clear()
    last = band_limited_corpus(2, 16, 9)
    want = last.tobytes()
    for _ in range(3):
        got = band_limited_corpus(2, 16, 9)
        assert got.flags.writeable and not np.shares_memory(got, last)
        assert got.tobytes() == want
        last[...] = 0.0  # a caller's write reaches no later call
        last = got


@pytest.mark.parametrize("report", [
    ["alias"],
    *(["equivariance", "--pipeline", kind] for kind in "ABCD"),
], ids=["alias", "A", "B", "C", "D"])
def test_analyze_csv_bytes_equal_on_a_cold_and_a_warm_corpus(tmp_path, report):
    outputs = []
    for cache in ("cold", "warm"):
        if cache == "cold":
            spectral._corpus.cache_clear()
        out = tmp_path / f"{cache}.csv"
        assert main(["analyze", "--report", *report, "--beta", "1", "--normalized",
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# Each pipeline's exact symmetries on the corpus (8 images, 64 x 64, folded into
# the channel axis), as max abs differences. They hold up to rounding: the tap
# sums of a transposed image run in another order. Measured gaps are at most
# 4e-16 (0 for the rolls), so the tolerance is 1e-14.
SYMMETRY_ATOL = 1e-14
K3 = FilterSpec(kaiser_beta=1.0, normalized=True)
K9 = FilterSpec(kaiser_beta=4.0, normalized=True, kernel_size=9)


def _corpus_channels():
    return band_limited_corpus()[:, 0]


def _max_gap(a, b):
    return float(np.max(np.abs(a - b)))


@pytest.mark.parametrize("config", [
    PipelineConfig("A"), PipelineConfig("B", K3), PipelineConfig("C", K3),
    PipelineConfig("D", K3), PipelineConfig("D", K9),
], ids=["A", "B-1N", "C-1N", "D-1N", "D-4N-9x9"])
def test_every_pipeline_commutes_with_a_transpose(config):
    imgs = _corpus_channels()
    swap = partial(np.swapaxes, axis1=1, axis2=2)
    assert _max_gap(apply_pipeline(config, swap(imgs)),
                    swap(apply_pipeline(config, imgs))) <= SYMMETRY_ATOL


@pytest.mark.parametrize("turn", [
    partial(np.flip, axis=1), partial(np.flip, axis=2),
    partial(np.rot90, k=1, axes=(1, 2)), partial(np.rot90, k=-1, axes=(1, 2)),
], ids=["row-flip", "column-flip", "quarter-turn", "quarter-turn-back"])
def test_pipeline_a_commutes_with_flips_and_quarter_turns(turn):
    # A is built from 2 x 2 block and pointwise operators. B, C and D decimate at
    # even indices, which a flip maps to odd ones; nothing here asserts that they fail.
    imgs = _corpus_channels()
    config = PipelineConfig("A")
    assert _max_gap(apply_pipeline(config, turn(imgs)),
                    turn(apply_pipeline(config, imgs))) <= SYMMETRY_ATOL


@pytest.mark.parametrize("config, margin", [
    (PipelineConfig("B", K3), 12), (PipelineConfig("D", K3), 12),
    (PipelineConfig("B", K9), 12), (PipelineConfig("D", K9), 20),
], ids=["B-1N", "D-1N", "B-4N-9x9", "D-4N-9x9"])
@pytest.mark.parametrize("shift, axes", [
    ((2,), (1,)), ((2,), (2,)), ((2, -2), (1, 2)), ((-4,), (1,)),
], ids=["rows", "columns", "both", "back-4"])
def test_alias_free_pipelines_commute_with_an_even_roll_inside_the_border(
        config, margin, shift, axes):
    # an even shift keeps the decimation lattice; the wrapped-around rows and the
    # reflect border stay outside the crop. D's four 9 x 9 filter stages carry the
    # border further in than B's two, so it gets a 20 px margin.
    imgs = _corpus_channels()
    roll = partial(np.roll, shift=shift, axis=axes)
    crop = (slice(None), slice(margin, -margin), slice(margin, -margin))
    assert _max_gap(apply_pipeline(config, roll(imgs))[crop],
                    roll(apply_pipeline(config, imgs))[crop]) <= SYMMETRY_ATOL
