import math

import numpy as np
import pytest

from aliasfree import (FILL_MODES, band_limited_corpus, linear_schedule, resample, rotate,
                       rotation, sample_rotated)
from aliasfree.rng import Rng

from _oracles import bilinear_rotate_loops


def rand_img(seed, shape):
    return np.asarray(Rng(seed).normal(shape))


def test_matches_loop_oracle_generic_angles():
    # odd, non-square and tiny shapes; 4.49e-4 is the per-step angle of a
    # 1000-step chain turning by pi / 7; quarter turns are left to the
    # exact-permutation tests below
    for shape in ((1, 7, 9), (1, 1, 1), (1, 1, 6), (2, 5, 1), (3, 6, 4), (1, 2, 3)):
        img = rand_img(1, shape)
        for phi in (0.3, -0.7, math.pi / 7, 2.1, -2.1, 3.0, 1e-4, 4.49e-4):
            for fill in FILL_MODES:
                got = rotate(img, phi, fill)
                want = bilinear_rotate_loops(img, phi, fill)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12, (shape, phi, fill)


def test_multichannel_rotates_channels_independently():
    img = rand_img(2, (3, 8, 8))
    out = rotate(img, 0.5)
    for c in range(3):
        assert np.array_equal(out[c], rotate(img[c][None], 0.5)[0])


def test_zero_angle_is_bitwise_identity():
    img = rand_img(3, (2, 6, 6))
    assert np.array_equal(rotate(img, 0.0), img)
    assert np.array_equal(rotate(img, 0.0, "zero"), img)


def test_quarter_turn_is_an_exact_permutation():
    img = rand_img(4, (1, 6, 6))
    out = rotate(img, math.pi / 2)
    N = img.shape[1]
    for r in range(N):
        for c in range(N):
            # counterclockwise quarter turn: out[r, c] = in[c, N - 1 - r]
            assert out[0, r, c] == img[0, c, N - 1 - r]


def test_full_turn_snaps_to_identity():
    img = rand_img(5, (1, 8, 8))
    assert np.array_equal(rotate(img, 2.0 * math.pi), img)
    assert np.array_equal(rotate(img, -2.0 * math.pi), img)


def test_four_quarter_turns_compose_to_identity():
    img = rand_img(6, (1, 8, 8))
    x = img
    for _ in range(4):
        x = rotate(x, math.pi / 2)
    assert np.array_equal(x, img)


def test_direction_is_counterclockwise_on_screen():
    # a bright pixel right of center must move above center for phi > 0
    img = np.zeros((1, 9, 9))
    img[0, 4, 7] = 1.0
    out = rotate(img, math.pi / 2, "zero")
    assert out[0, 1, 4] == 1.0
    assert out[0, 4, 7] == 0.0


def test_rotation_center_is_fixed_point():
    img = rand_img(7, (1, 9, 9))
    for phi in (0.3, 1.1, -0.8):
        out = rotate(img, phi)
        assert abs(out[0, 4, 4] - img[0, 4, 4]) <= 1e-12


def test_replicate_fill_extends_edges():
    img = np.ones((1, 8, 8))
    out = rotate(img, 0.4, "replicate")
    # constant image with clamped sampling stays constant everywhere
    assert np.max(np.abs(out - 1.0)) <= 1e-12


def test_zero_fill_vacates_corners():
    img = np.ones((1, 16, 16))
    out = rotate(img, math.pi / 4, "zero")
    assert out[0, 0, 0] == 0.0
    assert out[0, 0, -1] == 0.0
    assert out[0, -1, 0] == 0.0
    assert out[0, -1, -1] == 0.0
    # center is untouched
    assert abs(out[0, 8, 8] - 1.0) <= 1e-12


def test_approximate_inverse_on_band_limited_content():
    # bilinear resampling is lossy, so there-and-back only approximately
    # recovers the image; the bound is the measured behavior of this
    # construction on 32x32 band-limited noise, frozen as a regression line
    img = band_limited_corpus(1, 32)[0]
    back = rotate(rotate(img, math.pi / 7), -math.pi / 7)
    rel = float(np.linalg.norm(back - img) / np.linalg.norm(img))
    assert rel <= 0.46


def test_small_angle_perturbs_little():
    img = band_limited_corpus(1, 32)[0]
    out = rotate(img, 1e-3)
    rel = float(np.linalg.norm(out - img) / np.linalg.norm(img))
    assert rel <= 0.01


@pytest.mark.parametrize("fill", FILL_MODES)
def test_a_turn_in_bands_gives_the_one_band_bytes(monkeypatch, fill):
    # a 12 x 10 plane is one band at the package's budget; bands of 1, 5 and 11 rows
    # take the turn's other branch, which assembles the bands of its band form
    img, stack, phi = rand_img(8, (3, 12, 10)), rand_img(9, (2, 1, 12, 10)), 0.4487989505
    want = rotate(img, phi, fill), rotation._rotator((1, 12, 10), phi, fill)(stack)
    assembled, assemble = [], rotation._assembled
    monkeypatch.setattr(rotation, "_assembled", lambda shape, bands: (
        assembled.append(shape) or assemble(shape, bands)))
    for rows in (1, 5, 11):
        monkeypatch.setattr(resample, "_BAND", rows * 10)
        got = rotate(img, phi, fill), rotation._rotator((1, 12, 10), phi, fill)(stack)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want], rows
        assert got[1].shape == stack.shape
    assert assembled == 3 * [(3, 12, 10), (2, 12, 10)]


def test_validation():
    with pytest.raises(ValueError):
        rotate(np.zeros((4, 4)), 0.3)
    with pytest.raises(ValueError):
        rotate(np.zeros((1, 4, 4)), float("nan"))
    with pytest.raises(ValueError):
        rotate(np.zeros((1, 4, 4)), 0.3, "wrap")
    with pytest.raises(ValueError):
        rotate(np.full((1, 4, 4), np.nan), 0.3)


class _NanDenoiser:
    def predict(self, x_t, t):
        return np.full_like(x_t, np.nan)


def test_a_non_finite_state_fails_every_turn(monkeypatch):
    for bad in (np.nan, np.inf, -np.inf):
        img = np.zeros((2, 5, 4))
        img[1, 3, 2] = bad
        with pytest.raises(ValueError, match="image values must be finite"):
            rotate(img, 0.3)
    shapes = []  # a turn checks values only: the plan fixed the shape
    monkeypatch.setattr("aliasfree.resample._image_shape", lambda shape: shapes.append(shape))
    with pytest.raises(ValueError, match="image values must be finite"):
        sample_rotated(_NanDenoiser(), linear_schedule(4), (1, 6, 6), 0.3, Rng([1, 2]))
    assert shapes == []
