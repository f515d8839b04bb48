import math

import mpmath as mp
import numpy as np
import pytest

from aliasfree import (FilterSpec, Kernel2D, design_kernel, jinc_tap,
                       kaiser_weight, kernel_from_text, kernel_to_text)

from _oracles import i0_series_60

mp.mp.dps = 50

GRID = [FilterSpec(kaiser_beta=float(b), normalized=n)
        for b in (0, 1, 2) for n in (True, False)]


def oracle_tap(cutoff, beta, n1, n2, length=2.0):
    """Full-precision windowed tap, assembled independently with mpmath."""
    wc = mp.mpf(cutoff)
    rho = mp.sqrt(mp.mpf(n1) ** 2 + mp.mpf(n2) ** 2)
    if rho == 0:
        ideal = wc ** 2 / (4 * mp.pi)
    else:
        ideal = wc ** 2 / (2 * mp.pi) * mp.besselj(1, wc * rho) / (wc * rho)
    win = mp.mpf(1)
    for n in (n1, n2):
        t = 2 * mp.mpf(n) / mp.mpf(length)
        win *= mp.besseli(0, mp.mpf(beta) * mp.sqrt(1 - t ** 2)) / mp.besseli(0, beta)
    return float(ideal * win)


def test_ideal_tap_values():
    spec = FilterSpec(kaiser_beta=0.0, normalized=False)
    assert abs(jinc_tap(spec, 0, 0) - math.pi / 16) <= 1e-12
    assert abs(jinc_tap(spec, 0, 0) - 0.1963495) <= 1e-6
    assert abs(jinc_tap(spec, 0, 1) - 0.1417060) <= 1e-6
    assert abs(jinc_tap(spec, 1, 1) - 0.0977265) <= 1e-6
    # circular symmetry of the ideal response
    assert jinc_tap(spec, 1, 0) == jinc_tap(spec, 0, 1)
    assert jinc_tap(spec, -1, 0) == jinc_tap(spec, 1, 0)


def test_kaiser_weight_values():
    # center of the window is always 1, the edge of a length-2 window at
    # beta = 1 is 1 / I0(1)
    assert kaiser_weight(0.0, 0, 2) == 1.0
    assert kaiser_weight(2.0, 0, 2) == 1.0
    assert abs(kaiser_weight(1.0, 1, 2) - 1.0 / i0_series_60(1.0)) <= 1e-12
    assert abs(kaiser_weight(1.0, 1, 2) - 0.7898483) <= 1e-6
    assert kaiser_weight(1.0, -1, 2) == kaiser_weight(1.0, 1, 2)
    assert kaiser_weight(3.0, 5, 2) == 0.0  # outside the support


def test_kaiser_weight_validation():
    with pytest.raises(ValueError):
        kaiser_weight(1.0, 0, 0)
    with pytest.raises(ValueError):
        kaiser_weight(-1.0, 0, 2)


def test_grid_kernels_match_oracle():
    for spec in GRID:
        kernel = design_kernel(spec)
        raw = np.array([[oracle_tap(spec.cutoff, spec.kaiser_beta, n1, n2)
                         for n2 in (-1, 0, 1)] for n1 in (-1, 0, 1)])
        expect = raw / raw.sum() if spec.normalized else raw
        assert np.max(np.abs(kernel.taps - expect)) <= 1e-13, spec


def test_grid_kernels_exactly_symmetric():
    for spec in GRID:
        taps = design_kernel(spec).taps
        assert np.array_equal(taps, taps[::-1, :]), spec
        assert np.array_equal(taps, taps[:, ::-1]), spec
        assert np.array_equal(taps, taps.T), spec


def test_normalized_kernels_sum_to_one():
    for spec in GRID:
        if spec.normalized:
            assert abs(design_kernel(spec).taps.sum() - 1.0) <= 1e-12


def test_unnormalized_beta0_sum():
    taps = design_kernel(FilterSpec(kaiser_beta=0.0, normalized=False)).taps
    oracle = sum(oracle_tap(math.pi / 2, 0.0, n1, n2)
                 for n1 in (-1, 0, 1) for n2 in (-1, 0, 1))
    assert abs(oracle - 1.154080) <= 1e-5
    assert abs(taps.sum() - oracle) <= 1e-3


def test_larger_kernel_sizes():
    spec = FilterSpec(kaiser_beta=2.0, normalized=True, kernel_size=7)
    kernel = design_kernel(spec)
    assert kernel.size == 7 and kernel.radius == 3
    assert abs(kernel.taps.sum() - 1.0) <= 1e-12
    assert np.array_equal(kernel.taps, kernel.taps.T)
    # window hits zero exactly at the support edge for beta = 0 only in the
    # jinc factor sense; here just check decay away from the center
    assert abs(kernel.taps[3, 3]) > abs(kernel.taps[0, 0])


def test_size_one_kernel():
    spec = FilterSpec(kaiser_beta=1.0, normalized=True, kernel_size=1)
    kernel = design_kernel(spec)
    assert kernel.taps.shape == (1, 1)
    assert kernel.taps[0, 0] == 1.0  # normalization forces the single tap to 1


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("normalized, tap", [(False, "0x1.921fb54442d18p-3"),
                                             (True, "0x1.0000000000000p+0")])
def test_size_one_taps_are_pinned(beta, normalized, tap):
    # the one window weight, I0(beta) / I0(beta), is exactly 1 for every beta;
    # the unnormalized tap is the jinc center (pi / 2)^2 / (4 pi) = pi / 8
    kernel = design_kernel(FilterSpec(beta, normalized, kernel_size=1))
    assert kernel.taps.tolist() == [[float.fromhex(tap)]]


def test_cutoff_scaling():
    # center tap scales as cutoff^2 / (4 pi)
    for wc in (0.5, 1.0, math.pi / 2, math.pi):
        spec = FilterSpec(kaiser_beta=0.0, normalized=False, cutoff=wc)
        assert abs(jinc_tap(spec, 0, 0) - wc ** 2 / (4 * math.pi)) <= 1e-15


def test_spec_validation():
    with pytest.raises(ValueError, match="kernel_size must be odd, got 4"):
        FilterSpec(kaiser_beta=1.0, normalized=True, kernel_size=4)
    with pytest.raises(ValueError):
        FilterSpec(kaiser_beta=1.0, normalized=True, kernel_size=-3)
    with pytest.raises(ValueError):
        FilterSpec(kaiser_beta=1.0, normalized=True, cutoff=0.0)
    with pytest.raises(ValueError):
        FilterSpec(kaiser_beta=1.0, normalized=True, cutoff=4.0)
    with pytest.raises(ValueError):
        FilterSpec(kaiser_beta=-0.5, normalized=True)
    with pytest.raises(ValueError):
        FilterSpec(kaiser_beta=float("nan"), normalized=True)
    with pytest.raises(ValueError, match="got inf"):
        FilterSpec(kaiser_beta=float("inf"), normalized=True)
    with pytest.raises(ValueError, match="got 3.5"):
        FilterSpec(kaiser_beta=1.0, normalized=True, kernel_size=3.5)
    # an integral float or numpy integer size is the same spec as the int
    for size in (5.0, np.int64(5)):
        spec = FilterSpec(kaiser_beta=1.0, normalized=True, kernel_size=size)
        assert type(spec.kernel_size) is int
        assert design_kernel(spec) == design_kernel(
            FilterSpec(kaiser_beta=1.0, normalized=True, kernel_size=5))


def test_kernel2d_validation():
    with pytest.raises(ValueError):
        Kernel2D(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Kernel2D(np.zeros((3, 5)))
    with pytest.raises(ValueError):
        Kernel2D(np.full((3, 3), np.nan))
    with pytest.raises(ValueError):
        Kernel2D(np.zeros(3))


def test_kernel_taps_are_immutable():
    kernel = design_kernel(FilterSpec(kaiser_beta=1.0, normalized=True))
    with pytest.raises(ValueError):
        kernel.taps[0, 0] = 9.0


def test_text_round_trip():
    for spec in GRID:
        kernel = design_kernel(spec)
        again = kernel_from_text(kernel_to_text(kernel))
        assert again == kernel  # repr round-trips float64 exactly


def test_text_parse_errors():
    with pytest.raises(ValueError):
        kernel_from_text("")
    with pytest.raises(ValueError):
        kernel_from_text("1.0 2.0\n3.0\n")
    with pytest.raises(ValueError):
        kernel_from_text("1.0 x 3.0\n" * 3)
    with pytest.raises(ValueError):
        kernel_from_text("1.0 2.0\n3.0 4.0\n")  # even size
    # float() reads "1_0" as 10.0 and "\u0661" (Arabic-Indic one) as 1.0, which
    # kernel_to_text never writes
    for text in ("1_0\n", "0.1 0.1 0.1\n0.1 1_0 0.1\n0.1 0.1 0.1\n", "\u0661\n",
                 "0.1 0.1 0.1\n0.1 \uff11 0.1\n0.1 0.1 0.1\n"):
        with pytest.raises(ValueError, match="kernel text holds a non-numeric token"):
            kernel_from_text(text)
