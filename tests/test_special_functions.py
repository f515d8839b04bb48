import math
import re

import numpy as np
import pytest

from aliasfree import bessel_i0, bessel_j1, jinc
from aliasfree.rng import Rng

from _oracles import i0_series_60, j1_series_60, jinc_series_60, mp


def test_j1_against_series_oracle():
    rng = Rng(101)
    xs = (np.asarray(rng.uniform((400,))) * 20.0) - 10.0
    for x in xs:
        assert abs(bessel_j1(float(x)) - j1_series_60(x)) <= 1e-10


def test_j1_known_values():
    # J1 roots and extrema, cross-checked against the oracle at fixed points
    assert bessel_j1(0.0) == 0.0
    assert abs(bessel_j1(3.8317059702075123) - j1_series_60(3.8317059702075123)) <= 1e-12
    assert abs(bessel_j1(1.0) - 0.4400505857449335) <= 1e-12
    assert abs(bessel_j1(5.0) - (-0.3275791375914652)) <= 1e-12


def test_j1_is_odd():
    for x in (0.3, 1.7, 9.9, 13.4, 28.0):
        assert bessel_j1(-x) == -bessel_j1(x)


def test_j1_branch_seam():
    # the series/asymptotic handoff at |x| = 12 must not leave a gap
    for x in np.linspace(11.5, 12.5, 101):
        assert abs(bessel_j1(float(x)) - j1_series_60(x)) <= 1e-10


def test_j1_large_arguments():
    # the 60-term series stops converging past |x| ~ 38, so compare
    # against mpmath's own Bessel evaluation out here
    for x in (15.0, 20.0, 30.0, 41.5, 50.0):
        assert abs(bessel_j1(x) - float(mp.besselj(1, x))) <= 1e-10
        assert abs(bessel_j1(-x) - float(mp.besselj(1, -x))) <= 1e-10


def test_i0_against_series_oracle():
    rng = Rng(202)
    xs = (np.asarray(rng.uniform((400,))) * 20.0) - 10.0
    for x in xs:
        assert abs(bessel_i0(float(x)) - i0_series_60(x)) <= 1e-10


def test_i0_known_values():
    assert bessel_i0(0.0) == 1.0
    assert abs(bessel_i0(1.0) - 1.2660658777520082) <= 1e-12
    assert bessel_i0(-2.5) == bessel_i0(2.5)
    assert bessel_i0(4.0) > bessel_i0(3.0) > 1.0


def test_i0_past_the_largest_double_raises_naming_x():
    assert math.isfinite(bessel_i0(713.98))
    assert bessel_i0(-713.98) == bessel_i0(713.98)
    # 713.99: finite terms whose sum overflows; 1e4 and up: a term overflows
    for x in (713.99, 800.0, 1e4, 1e300, -800.0):
        with pytest.raises(ValueError, match=re.escape(f"bessel_i0({x!r}) exceeds")):
            bessel_i0(x)


def test_jinc_against_series_oracle():
    rng = Rng(303)
    xs = (np.asarray(rng.uniform((400,))) * 20.0) - 10.0
    for x in xs:
        assert abs(jinc(float(x)) - jinc_series_60(x)) <= 1e-10


def test_jinc_at_zero_and_nearby():
    assert jinc(0.0) == 0.5
    # the small-argument branch agrees with the quotient on both sides of 1e-4
    for x in (1e-7, 5e-5, 9.9e-5, 1.1e-4, 1e-3):
        assert abs(jinc(x) - jinc_series_60(x)) <= 1e-12
    assert jinc(-3.3) == jinc(3.3)


def test_non_finite_arguments_rejected():
    for fn in (bessel_j1, bessel_i0, jinc):
        with pytest.raises(ValueError):
            fn(float("nan"))
        with pytest.raises(ValueError):
            fn(float("inf"))
