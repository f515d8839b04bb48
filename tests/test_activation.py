import math
import platform
import sys
import types
import warnings

import mpmath as mp
import numpy as np
import pytest

from aliasfree import (FilterSpec, PipelineConfig, apply_pointwise, design_kernel, gelu,
                       pipeline_stages, relu, wrapped_activation)
from aliasfree import activation
from aliasfree.activation import _BLOCK, _erf
from aliasfree.rng import Rng

from _oracles import erf_error_ulps

K1N = design_kernel(FilterSpec(kaiser_beta=1.0, normalized=True))

# Since Python 3.11, math.erf is the C library's erf, and glibc's is the
# fdlibm code that _erf ports for |x| < 1.25 in the same operation order
# (past that _erf calls math.erf). Other libms (musl, macOS, Windows) round
# differently, so only on glibc can the bits be required to match; the
# mpmath oracle below runs on any libm.
ON_GLIBC = platform.libc_ver()[0] == "glibc" and sys.version_info >= (3, 11)
glibc_only = pytest.mark.skipif(not ON_GLIBC, reason="math.erf is glibc's only there")

# 2^-28, 0.84375, 1.25, 1/0.35, glibc's high-word switch just above it, 6
BOUNDARIES = (2.0 ** -28, 0.84375, 1.25, 1 / 0.35, float.fromhex("0x1.6db6ep+1"), 6.0)
# 2.8571431781744407 lies between 1/0.35 and glibc's switch, where the two
# erfc fits round erf apart
INSIDE = (1e-300, 1e-10, 3e-9, 0.1, 0.5, 0.8, 0.9, 1.0, 1.2, 1.5, 2.0, 2.8,
          2.8571431781744407, 3.0, 4.0, 5.9, 6.5, 10.0, 30.0, 1e300)
# k * 2^-1074 for k = 4, 35 and 43 round apart under x + efx*x unscaled
SUBNORMALS = tuple(k * 5e-324 for k in range(1, 65)) + (
    1e-320, 1e-310, np.nextafter(2.2250738585072014e-308, 0.0))


def _gelu_math(values):
    """gelu by its formula with math.erf per element."""
    v = np.asarray(values, dtype=float)
    erf = np.fromiter(map(math.erf, (v * (1.0 / math.sqrt(2.0))).ravel()), float, v.size)
    return v * 0.5 * (1.0 + erf.reshape(v.shape))


def _finite_edges():
    below = tuple(np.nextafter(b, 0.0) for b in BOUNDARIES)
    values = INSIDE + BOUNDARIES + below + SUBNORMALS
    return np.array([s * v for v in values for s in (1.0, -1.0)] + [0.0, -0.0])


def test_relu_values():
    v = np.array([[-2.0, -0.0, 0.0], [0.5, 3.0, -1e-9]])
    out = relu(v)
    assert np.array_equal(out, np.array([[0.0, 0.0, 0.0], [0.5, 3.0, 0.0]]))


def test_gelu_values_against_erf_oracle():
    mp.mp.dps = 40
    for x in (-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 2.5):
        want = float(mp.mpf(x) * 0.5 * (1 + mp.erf(mp.mpf(x) / mp.sqrt(2))))
        assert abs(float(gelu(np.array(x))) - want) <= 1e-14


def test_erf_is_within_one_ulp_of_mpmath():
    # 2^-30 reaches the |x| < 2^-28 branch; 0.5, 2 and 8 cover the others
    x = np.concatenate([Rng(11).normal(400) * scale for scale in (2.0 ** -30, 0.5, 2.0, 8.0)])
    a = np.abs(x)
    edges = (0.0, 2.0 ** -28, 0.84375, 1.25, 1 / 0.35, 6.0, np.inf)
    assert all(np.any((lo <= a) & (a < hi)) for lo, hi in zip(edges, edges[1:]))
    got = _erf(x)
    worst = max(erf_error_ulps(xi, gi) for xi, gi in zip(x, got))
    assert worst <= 1.0


@glibc_only
def test_erf_and_gelu_equal_math_erf_bitwise_on_branches_and_edges():
    x = _finite_edges()
    want_erf = np.array([math.erf(v) for v in x])
    small = np.full(100, 0.3)  # a block whose other values take the first fit alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _erf(x).tobytes() == want_erf.tobytes()
        for xi, want in zip(x, want_erf):
            small[50] = xi
            assert _erf(small)[50].tobytes() == want.tobytes(), xi
        for v in (x, x * math.sqrt(2.0)):
            assert gelu(v).tobytes() == _gelu_math(v).tobytes()


def test_erf_keeps_the_sign_of_zero_and_saturates():
    x = np.array([0.0, -0.0, 5e-324, -5e-324, 30.0, -30.0, 1e300, -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _erf(x)
    assert np.array_equal(np.signbit(got), np.signbit(x))
    assert np.array_equal(got[4:], [1.0, -1.0, 1.0, -1.0])
    assert np.array_equal(got[2:4], x[2:4])  # erf(x) = x (1 + 0.128...) rounds back to x


def test_erf_and_gelu_of_nan_and_infinities():
    big = np.finfo(float).max
    x = np.array([np.nan, np.inf, -np.inf, big, -big])
    got = _erf(x)
    assert np.isnan(got[0]) and got[1] == 1.0 and got[2] == -1.0
    assert got[3] == 1.0 and got[4] == -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gelu(x)
        assert np.isnan(gelu(np.full(3, np.nan))).all()
        # finite values sharing a block with -inf keep their bytes
        finite = np.array([-9.0, -1.0, 0.5])
        assert gelu(np.append(finite, -np.inf))[:3].tobytes() == gelu(finite).tobytes()
    assert np.isnan(g[0]) and g[1] == np.inf
    assert g[2] == 0.0 and math.copysign(1.0, g[2]) == -1.0
    # the largest double passes the floor unchanged: big * 0.5 * 2 and -big * 0.5 * 0
    assert g[3] == big
    assert g[4] == 0.0 and math.copysign(1.0, g[4]) == -1.0


def test_gelu_of_a_signalling_nan_is_a_silent_nan():
    snan = np.array([0x7FF0000000000001], dtype=np.uint64).view(float)
    finite = np.array([-9.0, -1.0, 0.5, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gelu(np.append(finite, snan))
        assert np.isnan(gelu(snan)).all()
    assert np.isnan(g[-1])
    assert g[:-1].tobytes() == gelu(finite).tobytes()


def _raster_block():
    """A block like upsampled raster data over sqrt 2: |x| < 0.84375 throughout,
    with signed zeros, subnormals, values below 2^-28 and the last double below
    0.84375."""
    block = Rng(8).uniform(_BLOCK) * 1.68 - 0.84
    small = (0.0, -0.0, 5e-324, -35 * 5e-324, 43 * 5e-324, 1e-310, 2.0 ** -29, -(2.0 ** -28) / 3,
             np.nextafter(2.0 ** -28, 0.0), 2.0 ** -28, -np.nextafter(0.84375, 0.0))
    block[:len(small)] = small
    return block


def _assert_erf(x, got):
    """got is math.erf of x bitwise on glibc, and within 1 ulp of erf on any libm."""
    if ON_GLIBC:
        assert got.tobytes() == np.array([math.erf(v) for v in x]).tobytes()
    else:
        assert max(erf_error_ulps(xi, gi) for xi, gi in zip(x[::64], got[::64])) <= 1.0


def test_erf_of_a_raster_block_skips_the_outer_branches(monkeypatch):
    def outer_branch(s):
        raise AssertionError("a branch past |x| < 0.84375 ran")

    monkeypatch.setattr(activation, "_powers", outer_branch)  # the middle branch's first call
    monkeypatch.setattr(activation, "math", types.SimpleNamespace(erf=outer_branch))  # the tail's
    x = _raster_block()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _erf(x)
    _assert_erf(x, got)
    assert np.array_equal(np.signbit(got[:2]), [False, True])


@pytest.mark.parametrize("edge", [0.84375, -1.25, 2.8571431781744407, 6.0, np.nan, -np.inf])
def test_erf_patches_a_lone_outer_element_of_a_raster_block(edge):
    x = _raster_block()
    want = _erf(x)
    x[100] = edge
    got = _erf(x)
    assert np.delete(got, 100).tobytes() == np.delete(want, 100).tobytes()
    if math.isnan(edge):
        assert math.isnan(got[100])
    else:
        _assert_erf(x[100:101], got[100:101])


@glibc_only
@pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK,
                                  2 * _BLOCK + 1, 4 * _BLOCK + 7])
@pytest.mark.parametrize("scale", [0.5, 3.0])
def test_gelu_bytes_across_block_boundaries(size, scale):
    v = Rng(size).normal(size) * scale if size else np.zeros(0)
    got = gelu(v)
    assert got.shape == v.shape
    assert got.tobytes() == _gelu_math(v).tobytes()


@glibc_only
def test_gelu_bytes_on_mixed_and_unmixed_blocks_and_other_layouts():
    # block 0 stays inside the first fit; block 1 mixes every branch
    unmixed = Rng(4).uniform(_BLOCK) * 1.1 + 0.05
    mixed = Rng(5).normal(_BLOCK) * 4.0
    v = np.concatenate([unmixed, mixed]).reshape(2, 128, _BLOCK // 128)
    assert gelu(v).tobytes() == _gelu_math(v).tobytes()
    for w in (v[:, ::3, 1::2], np.asfortranarray(v), np.arange(-40, 41).reshape(9, 9),
              np.array(0.7), np.array(-0.0)):
        got = gelu(w)
        assert np.shape(got) == np.shape(w)
        assert np.asarray(got).tobytes() == np.asarray(_gelu_math(w)).tobytes()
    img = Rng(6).normal((3, 100, 100)) * 2.0
    assert np.array_equal(apply_pointwise(img, "gelu"), gelu(img))


def test_gelu_asymptotics():
    assert float(gelu(np.array(10.0))) == pytest.approx(10.0, abs=1e-12)
    assert abs(float(gelu(np.array(-10.0)))) <= 1e-12
    assert float(gelu(np.array(0.0))) == 0.0


def test_apply_pointwise_dispatch():
    img = np.asarray(Rng(1).normal((1, 4, 4)))
    assert np.array_equal(apply_pointwise(img, "relu"), relu(img))
    assert np.array_equal(apply_pointwise(img, "gelu"), gelu(img))
    with pytest.raises(ValueError):
        apply_pointwise(img, "tanh")


def test_wrapped_is_the_advertised_composition():
    from aliasfree import downsample2x_af, upsample2x_af
    img = np.asarray(Rng(2).normal((1, 8, 8)))
    got = wrapped_activation(img, "relu", K1N)
    want = downsample2x_af(relu(upsample2x_af(img, K1N)), K1N)
    assert np.array_equal(got, want)


def test_wrapped_rejects_an_unknown_act_before_upsampling(monkeypatch):
    upsampled = []
    monkeypatch.setattr(activation, "_filtered", lambda *args, **kwargs: upsampled.append(args))
    img = np.zeros((1, 4, 4))
    messages = set()
    for call in (lambda: wrapped_activation(img, "tanh", K1N),
                 lambda: apply_pointwise(img, "tanh"),
                 lambda: pipeline_stages(PipelineConfig("D", FilterSpec(1.0, True)), "tanh")):
        with pytest.raises(ValueError) as raised:
            call()
        messages.add(str(raised.value))
    assert messages == {"unknown activation 'tanh', expected one of ('relu', 'gelu')"}
    assert upsampled == []


def test_wrapped_keeps_resolution():
    img = np.asarray(Rng(3).normal((2, 6, 6)))
    assert wrapped_activation(img, "gelu", K1N).shape == img.shape


def test_wrapped_relu_of_nonnegative_constant():
    # relu is identity on nonnegative input, so only resampling ripple remains
    img = np.full((1, 8, 8), 0.5)
    out = wrapped_activation(img, "relu", K1N)
    assert np.max(np.abs(out - 0.5)) <= 0.02  # phase ripple of the 3x3 kernel


def test_wrapped_relu_of_negative_constant_is_zero():
    # every tap of the beta = 1 normalized kernel is positive, so the
    # upsampled field stays nonpositive and relu sends all of it to 0
    img = np.full((1, 8, 8), -0.3)
    out = wrapped_activation(img, "relu", K1N)
    assert np.array_equal(out, np.zeros_like(img))


def test_wrapped_relu_cuts_above_cutoff_energy():
    # the corpus is band-limited well below pi/2, so any above-cutoff
    # power after the nonlinearity was created by it. Plain pointwise
    # relu scatters a few percent of the power up there; the wrapped
    # form must land strictly below half... measured ratios sit in
    # [0.51, 0.54] on this corpus, so 0.6 leaves real margin
    from aliasfree import alias_energy, band_limited_corpus
    corpus = band_limited_corpus(4, 32)
    for img in corpus:
        assert alias_energy(img) <= 1e-12
        plain = apply_pointwise(img, "relu")
        wrapped = wrapped_activation(img, "relu", K1N)
        assert alias_energy(plain) > 0.02
        assert alias_energy(wrapped) <= 0.6 * alias_energy(plain)
