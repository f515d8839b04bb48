import tracemalloc

import numpy as np
import pytest

from aliasfree import (FilterSpec, Kernel2D, convolve2d, design_kernel,
                       downsample2x_af, downsample2x_naive, upsample2x_af,
                       upsample2x_naive, wrapped_activation)
from aliasfree.rng import Rng

from _oracles import (bilinear_gather_2d, bilinear_upsample_loops, conv2d_loops,
                      downsample_af_loops, max_pool_reshape, upsample_af_loops)

K1N = design_kernel(FilterSpec(kaiser_beta=1.0, normalized=True))
K0U = design_kernel(FilterSpec(kaiser_beta=0.0, normalized=False))
K2N = design_kernel(FilterSpec(kaiser_beta=2.0, normalized=True))


def rand_img(seed, shape):
    return np.asarray(Rng(seed).normal(shape))


def test_convolve_matches_loops_reflect():
    for seed, shape in ((1, (1, 6, 6)), (2, (2, 5, 7)), (3, (1, 8, 4))):
        img = rand_img(seed, shape)
        for kernel in (K1N, K0U):
            got = convolve2d(img, kernel, "reflect")
            want = conv2d_loops(img, kernel.taps, "reflect")
            assert np.max(np.abs(got - want)) <= 1e-12


def test_convolve_matches_loops_zero():
    for seed, shape in ((4, (1, 6, 6)), (5, (3, 4, 9))):
        img = rand_img(seed, shape)
        got = convolve2d(img, K2N, "zero")
        want = conv2d_loops(img, K2N.taps, "zero")
        assert np.max(np.abs(got - want)) <= 1e-12


def test_convolve_random_asymmetric_kernel():
    # correlation vs convolution orientation: an asymmetric kernel exposes
    # any index flip, which symmetric kernels would mask
    taps = np.asarray(Rng(6).normal((3, 3)))
    kernel = Kernel2D(taps)
    img = rand_img(7, (1, 5, 5))
    for padding in ("reflect", "zero"):
        got = convolve2d(img, kernel, padding)
        want = conv2d_loops(img, taps, padding)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_convolve_larger_kernel():
    taps = np.asarray(Rng(8).normal((5, 5)))
    kernel = Kernel2D(taps)
    img = rand_img(9, (1, 7, 6))
    got = convolve2d(img, kernel, "reflect")
    want = conv2d_loops(img, taps, "reflect")
    assert np.max(np.abs(got - want)) <= 1e-12


def test_reflect_padding_index_identity():
    # a one-hot at the border must pick up its mirror: index -1 maps to 1
    img = np.zeros((1, 4, 4))
    img[0, 0, 0] = 1.0
    taps = np.zeros((3, 3))
    taps[0, 1] = 1.0  # pure shift by (i, j) = (-1, 0): out[n] = x[n + 1 ...]
    out = convolve2d(img, Kernel2D(taps), "reflect")
    want = conv2d_loops(img, taps, "reflect")
    assert np.array_equal(out, want)


def test_downsample_af_matches_loops():
    for seed in range(3):
        img = rand_img(20 + seed, (1, 8, 8))
        for kernel in (K1N, K0U, K2N):
            got = downsample2x_af(img, kernel)
            want = downsample_af_loops(img, kernel.taps, "reflect")
            assert got.shape == (1, 4, 4)
            assert np.max(np.abs(got - want)) <= 1e-12


def test_upsample_af_matches_loops():
    for seed in range(3):
        img = rand_img(30 + seed, (1, 4, 4))
        for kernel in (K1N, K0U):
            got = upsample2x_af(img, kernel)
            want = upsample_af_loops(img, kernel.taps, "reflect")
            assert got.shape == (1, 8, 8)
            assert np.max(np.abs(got - want)) <= 1e-12


def test_upsample_places_originals_on_even_indices():
    # with a unit-impulse kernel the zero-stuffed grid comes back unfiltered
    taps = np.zeros((3, 3))
    taps[1, 1] = 0.25  # cancels the gain of 4
    img = rand_img(40, (1, 3, 3))
    out = upsample2x_af(img, Kernel2D(taps))
    assert np.allclose(out[:, ::2, ::2], img, atol=1e-15)
    assert np.all(out[:, 1::2, :] == 0.0)
    assert np.all(out[:, :, 1::2] == 0.0)


def test_downsample_keeps_even_samples():
    # same unit-impulse trick: downsampling reduces to plain decimation
    taps = np.zeros((3, 3))
    taps[1, 1] = 1.0
    img = rand_img(41, (2, 6, 8))
    out = downsample2x_af(img, Kernel2D(taps))
    assert np.array_equal(out, img[:, ::2, ::2])


def test_downsample_constant_preservation():
    img = np.full((1, 8, 8), 0.37)
    for kernel in (K1N, K2N):
        out = downsample2x_af(img, kernel, "reflect")
        assert np.max(np.abs(out - 0.37)) <= 1e-12
    # unnormalized kernel scales a constant by its tap sum instead
    out = downsample2x_af(img, K0U, "reflect")
    assert np.max(np.abs(out - 0.37 * K0U.taps.sum())) <= 1e-12


def upsample_constant_bound(kernel):
    """Largest deviation a constant can show after upsampling.

    The zero-stuffed grid feeds each output parity class from one subset
    of taps, so a constant c maps to 4 * (phase sum) * c per class. The
    reachable deviation from c is the worst phase-sum gap times |c|.
    """
    t = kernel.taps
    r = kernel.radius
    worst = 0.0
    for pi in (0, 1):
        for pj in (0, 1):
            s = sum(t[i, j] for i in range(t.shape[0]) for j in range(t.shape[1])
                    if (i - r) % 2 == pi and (j - r) % 2 == pj)
            worst = max(worst, abs(4.0 * s - 1.0))
    return worst


def test_upsample_constant_stays_within_phase_bound():
    img = np.full((1, 6, 6), 0.41)
    for kernel in (K1N, K2N):
        bound = upsample_constant_bound(kernel)
        out = upsample2x_af(img, kernel, "reflect")
        dev = np.max(np.abs(out - 0.41))
        assert dev <= bound * 0.41 + 1e-12
        # the bound is attained: the ripple is the phase structure itself
        assert dev >= bound * 0.41 - 1e-12


def test_upsample_preserves_constant_mean_with_normalized_kernel():
    # border reflection redistributes weight on arbitrary images, but a
    # constant image upsamples to per-phase constants whose mean is the
    # tap sum times the input level, i.e. the level itself when normalized
    img = np.full((1, 6, 6), -0.375)
    out = upsample2x_af(img, K1N, "reflect")
    assert abs(out.mean() - img.mean()) <= 1e-12


def test_max_pool_matches_loops():
    img = rand_img(50, (2, 6, 4))
    out = downsample2x_naive(img)
    assert out.shape == (2, 3, 2)
    for c in range(2):
        for i in range(3):
            for j in range(2):
                block = img[c, 2 * i: 2 * i + 2, 2 * j: 2 * j + 2]
                assert out[c, i, j] == block.max()


def signed_zero_img(seed, shape):
    """Normals with about a third of the entries set to +0 or -0 at random."""
    img = rand_img(seed, shape)
    pick = np.random.default_rng(seed).random(shape)
    img[pick < 1 / 3] = 0.0
    img[pick < 1 / 6] = -0.0
    return img


@pytest.mark.parametrize("shape", ((1, 2, 2), (3, 6, 4), (2, 64, 8), (1, 256, 256)))
def test_max_pool_equals_the_reshape_reduction_bitwise(shape):
    img = signed_zero_img(sum(shape), shape)
    got, want = downsample2x_naive(img), max_pool_reshape(img)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_bilinear_matches_loops():
    for shape in ((1, 4, 5), (1, 2, 2), (1, 3, 5), (3, 2, 7)):
        img = rand_img(51, shape)
        out = upsample2x_naive(img)
        C, H, W = shape
        assert out.shape == (C, 2 * H, 2 * W)
        assert np.max(np.abs(out - bilinear_upsample_loops(img))) <= 1e-12, shape


def test_bilinear_corners_exact():
    img = rand_img(52, (1, 5, 7))
    out = upsample2x_naive(img)
    assert out[0, 0, 0] == img[0, 0, 0]
    assert out[0, 0, -1] == img[0, 0, -1]
    assert out[0, -1, 0] == img[0, -1, 0]
    assert out[0, -1, -1] == img[0, -1, -1]


def test_round_trip_shapes():
    img = rand_img(53, (1, 16, 16))
    assert upsample2x_af(downsample2x_af(img, K1N), K1N).shape == img.shape
    assert upsample2x_naive(downsample2x_naive(img)).shape == img.shape


def test_shape_validation():
    with pytest.raises(ValueError):
        downsample2x_af(np.zeros((1, 7, 8)), K1N)
    with pytest.raises(ValueError):
        downsample2x_naive(np.zeros((1, 8, 9)))
    with pytest.raises(ValueError):
        convolve2d(np.zeros((4, 4)), K1N)
    with pytest.raises(ValueError):
        convolve2d(np.full((1, 4, 4), np.inf), K1N)
    with pytest.raises(ValueError):
        upsample2x_naive(np.zeros((1, 1, 4)))
    with pytest.raises(ValueError, match="empty axis"):
        convolve2d(np.zeros((1, 0, 4)), K1N)


def test_reflect_rejects_oversized_kernel():
    taps = np.zeros((7, 7))
    taps[3, 3] = 1.0
    with pytest.raises(ValueError):
        convolve2d(np.zeros((1, 2, 2)), Kernel2D(taps), "reflect")
    # zero padding accepts the same kernel
    convolve2d(np.zeros((1, 2, 2)), Kernel2D(taps), "zero")


def test_unknown_padding_rejected():
    with pytest.raises(ValueError):
        convolve2d(np.zeros((1, 4, 4)), K1N, "wrap")


# Property tests over odd, tiny and non-square shapes, both paddings and
# kernel sizes up to radius 4, which reaches 2 * min(H, W) on the 1x1x1 and
# 1x2x2 images, where reflect padding of the interleaved grid folds twice.
PROPERTY_SHAPES = ((1, 1, 1), (1, 2, 2), (2, 3, 5), (3, 6, 8), (1, 1, 6), (2, 4, 1))
PROPERTY_SIZES = (1, 3, 5, 7, 9)


def full_rate_downsample(img, kernel, padding):
    """Filter at full resolution, then decimate."""
    if img.shape[1] % 2 or img.shape[2] % 2:
        raise ValueError("odd size")
    return convolve2d(img, kernel, padding)[:, ::2, ::2]


def zero_stuffed_upsample(img, kernel, padding):
    """Filter the zero-interleaved grid at full resolution."""
    C, H, W = img.shape
    stuffed = np.zeros((C, 2 * H, 2 * W))
    stuffed[:, ::2, ::2] = img
    return 4.0 * convolve2d(stuffed, kernel, padding)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def property_cases(shape):
    img = rand_img(sum(shape), shape)
    img[0, 0, 0] = -0.0  # skipped zero taps must not change the sign of a zero sum
    for size in PROPERTY_SIZES:
        kernel = Kernel2D(np.asarray(Rng(60 + size).normal((size, size))))
        for padding in ("reflect", "zero"):
            yield img, kernel, padding


@pytest.mark.parametrize("shape", PROPERTY_SHAPES)
def test_polyphase_resamplers_equal_full_rate_formulas_bitwise(shape):
    for img, kernel, padding in property_cases(shape):
        for fast, full_rate in ((downsample2x_af, full_rate_downsample),
                                (upsample2x_af, zero_stuffed_upsample)):
            got = outcome(fast, img, kernel, padding)
            want = outcome(full_rate, img, kernel, padding)
            case = (fast.__name__, kernel.size, padding)
            if want is ValueError:
                assert got is ValueError, case
            else:
                assert got is not ValueError, case
                assert got.shape == want.shape, case
                assert got.tobytes() == want.tobytes(), case


@pytest.mark.parametrize("shape", PROPERTY_SHAPES)
def test_resamplers_match_loop_oracles(shape):
    for img, kernel, padding in property_cases(shape):
        for fn, oracle in ((convolve2d, conv2d_loops),
                           (downsample2x_af, downsample_af_loops),
                           (upsample2x_af, upsample_af_loops)):
            got = outcome(fn, img, kernel, padding)
            if got is ValueError:
                continue
            want = oracle(img, kernel.taps, padding)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12, (fn.__name__, kernel.size, padding)


@pytest.mark.parametrize("fn, size, match", [
    (upsample2x_af, 11, "kernel size 11 exceeds reflect-padding limit 9 for upsampling a 2 x 2 image"),
    (wrapped_activation, 11,
     "kernel size 11 exceeds reflect-padding limit 9 for upsampling a 2 x 2 image"),
    (downsample2x_af, 7, "kernel size 7 exceeds reflect-padding limit 5 for a 2 x 2 image"),
    (convolve2d, 7, "kernel size 7 exceeds reflect-padding limit 5 for a 2 x 2 image"),
], ids=("upsample", "wrapped", "downsample", "convolve"))
def test_reflect_limit_names_the_shape_passed(fn, size, match):
    img = np.zeros((1, 2, 2))
    kernel = Kernel2D(np.ones((size, size)))
    with pytest.raises(ValueError, match=match):
        fn(img, "relu", kernel) if fn is wrapped_activation else fn(img, kernel)


WIDE = Kernel2D(np.ones((259, 259)))  # radius 129, past 2 * 64 for a 64 x 64 image


@pytest.mark.parametrize("fn, kernel, padding", [
    (upsample2x_af, K1N, "wrap"),
    (upsample2x_af, WIDE, "reflect"),
    (wrapped_activation, K1N, "wrap"),
    (wrapped_activation, WIDE, "reflect"),
    (convolve2d, K1N, "wrap"),
    (downsample2x_af, K1N, "wrap"),
], ids=("upsample-mode", "upsample-size", "wrapped-mode", "wrapped-size", "convolve-mode",
        "downsample-mode"))
def test_bad_padding_fails_before_allocating(fn, kernel, padding):
    # the interleaved grid alone would take four times the input's bytes
    img = np.zeros((1, 64, 64))
    args = (img, "relu", kernel, padding) if fn is wrapped_activation else (img, kernel, padding)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="padding"):
            fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < img.nbytes


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", ((3, 64, 64), (1, 128, 128)))
@pytest.mark.parametrize("padding", ("reflect", "zero"))
def test_resamplers_hold_few_buffers(shape, padding):
    # one phase accumulator at a time: upsampling reads about 1.9x its output's
    # bytes, one accumulator for all four phases about 2.5x; downsampling
    # returns its accumulator, about 1.8x its input's bytes, where a separate
    # output beside it reads about 2.05x
    img = rand_img(64, shape)
    for size in (3, 7):
        kernel = design_kernel(FilterSpec(kaiser_beta=1.0, normalized=True, kernel_size=size))
        assert traced_peak(upsample2x_af, img, kernel, padding) < 2.25 * 4 * img.nbytes, size
    assert traced_peak(downsample2x_af, img, K1N, padding) < 2.0 * img.nbytes


def test_naive_upsample_equals_two_dimensional_gather_bitwise():
    for shape in ((1, 2, 2), (1, 3, 5), (2, 7, 4), (3, 5, 9), (1, 2, 11), (2, 9, 2)):
        img = rand_img(63, shape)
        C, H, W = shape
        u = np.arange(2 * H) * (H - 1) / (2 * H - 1)
        v = np.arange(2 * W) * (W - 1) / (2 * W - 1)
        want = bilinear_gather_2d(img, u[:, None], v[None, :])
        got = upsample2x_naive(img)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), shape
