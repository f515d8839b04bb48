import hashlib
import math
import re

import numpy as np
import pytest

from aliasfree import (ACTIVATIONS, FILL_MODES, PADDING_MODES, PIPELINE_KINDS, SIGMA_MODES,
                       ConstantDenoiser, FilterSpec, GaussianDataSpec, PipelineConfig,
                       ZeroDenoiser, apply_pointwise, band_limited_corpus, convolve2d,
                       design_kernel, downsample2x_af, jinc, kaiser_weight, linear_schedule,
                       pipeline_stages, rotate, sample_rotated, training_loss, upsample2x_af,
                       wrapped_activation)
from aliasfree import rng as rng_module
from aliasfree.cli import parse_denoiser_spec
from aliasfree.rng import Rng


def splitmix64_reference(seed):
    """Scalar SplitMix64, straight from the published reference."""
    state = seed & 0xFFFFFFFFFFFFFFFF
    while True:
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        yield z ^ (z >> 31)


def test_known_vectors_seed_zero():
    ref = splitmix64_reference(0)
    want = [next(ref) for _ in range(4)]
    assert want[0] == 0xE220A8397B1DCDAF  # published test vector
    got = Rng(0)._raw(4)
    assert [int(v) for v in got] == want


def test_matches_reference_for_other_seeds():
    for seed in (1, 42, 2**63, 0xDEADBEEF):
        ref = splitmix64_reference(seed)
        want = [next(ref) for _ in range(8)]
        assert [int(v) for v in Rng(seed)._raw(8)] == want


def test_batching_does_not_change_the_stream():
    a = Rng(7)
    b = Rng(7)
    one = [float(x) for x in np.asarray(a.normal((10,)))]
    parts = list(np.asarray(b.normal((4,)))) + list(np.asarray(b.normal((6,))))
    assert one == [float(x) for x in parts]


def test_uniform_range_and_determinism():
    u = np.asarray(Rng(3).uniform((10_000,)))
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    again = np.asarray(Rng(3).uniform((10_000,)))
    assert np.array_equal(u, again)
    assert abs(u.mean() - 0.5) <= 4.0 / math.sqrt(12 * 10_000)


def test_uniform_scalar_shape():
    v = Rng(4).uniform()
    assert isinstance(v, float)
    assert 0.0 <= v < 1.0


def test_normal_moments():
    z = np.asarray(Rng(5).normal((100_000,)))
    n = z.size
    assert abs(z.mean()) <= 4.0 / math.sqrt(n)
    assert abs(z.var(ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / n)
    skew = float(np.mean(z ** 3))
    assert abs(skew) <= 4.0 * math.sqrt(15.0 / n)


def test_normal_matches_box_muller_construction():
    raw = Rng(9)._raw(4)
    u1a = (int(raw[0]) >> 11) / float(1 << 53)
    u2a = (int(raw[1]) >> 11) / float(1 << 53)
    u1a += 1.0 / float(1 << 53)  # radius word maps to (0, 1]
    r0 = math.sqrt(-2.0 * math.log(u1a))
    z0 = r0 * math.cos(2.0 * math.pi * u2a)
    z1 = r0 * math.sin(2.0 * math.pi * u2a)
    got = np.asarray(Rng(9).normal((4,)))
    assert got[0] == pytest.approx(z0, abs=1e-12)
    assert got[1] == pytest.approx(z1, abs=1e-12)


def test_normal_odd_count_discards_spare():
    # after an odd-sized request the counter still advances by whole pairs
    a = Rng(11)
    a.normal((3,))
    tail_a = np.asarray(a.normal((2,)))
    b = Rng(11)
    b.normal((4,))
    tail_b = np.asarray(b.normal((2,)))
    assert np.array_equal(tail_a, tail_b)


def test_normal_row_major_order():
    flat = np.asarray(Rng(12).normal((6,)))
    shaped = np.asarray(Rng(12).normal((2, 3)))
    assert np.array_equal(shaped.ravel(), flat)


def test_randint_bounds_and_coverage():
    rng = Rng(13)
    draws = [rng.randint(6) for _ in range(6000)]
    assert min(draws) == 1 and max(draws) == 6
    counts = np.bincount(draws, minlength=7)[1:]
    assert np.all(counts > 800)  # roughly uniform, mean 1000 per bin


def test_randint_one_sided():
    rng = Rng(14)
    assert all(rng.randint(1) == 1 for _ in range(50))


def test_distinct_seeds_give_distinct_streams():
    a = np.asarray(Rng(0).uniform((64,)))
    b = np.asarray(Rng(1).uniform((64,)))
    assert not np.array_equal(a, b)


def test_validation():
    with pytest.raises(ValueError):
        Rng(1).randint(0)
    with pytest.raises(ValueError):
        Rng(1).normal((0,))
    with pytest.raises(ValueError):
        Rng(1).uniform((0,))
    # whole-number arguments are not truncated
    with pytest.raises(ValueError, match="got 2.7"):
        Rng(1).randint(2.7)
    with pytest.raises(ValueError, match="got 1.5"):
        Rng(1.5)
    with pytest.raises(ValueError, match="got 1.5"):
        Rng([2, 1.5])
    # integral floats and numpy integers still work
    assert Rng(2).randint(3.0) == Rng(2).randint(np.int64(3)) == Rng(2).randint(3)
    assert np.array_equal(Rng(1.0).normal((4,)), Rng(1).normal((4,)))
    assert np.array_equal(Rng(np.array([1.0, 2.0])).normal((4,)), Rng([1, 2]).normal((4,)))


@pytest.mark.parametrize("kind", ["uniform", "normal"])
@pytest.mark.parametrize("seed", [5, [5, 6]])
def test_shape_forms_equal_the_tuple_form_bitwise(kind, seed):
    for shape, want in [(np.int64(3), (3,)), (np.array([3]), (3,)), (3, (3,)),
                        (np.array([2, 3]), (2, 3)), ([np.int32(2), 3.0], (2, 3))]:
        got_rng, want_rng = Rng(seed), Rng(seed)
        got = getattr(got_rng, kind)(shape)
        assert got.shape == np.shape(seed) + want
        assert got.tobytes() == getattr(want_rng, kind)(want).tobytes()
        assert got_rng._count == want_rng._count


@pytest.mark.parametrize("kind", ["uniform", "normal"])
@pytest.mark.parametrize("shape", [(-2, -3), (2.5,), (2, 0), 0, -1, (float("nan"),),
                                   (float("inf"), 2), np.zeros((2, 2), dtype=int) + 1])
def test_bad_shapes_raise_before_any_draw(kind, shape):
    rng = Rng([3, 4])
    with pytest.raises(ValueError, match="shape"):
        getattr(rng, kind)(shape)
    assert rng._count == 0


def test_a_zero_side_is_named_before_any_draw():
    rng = Rng(0)
    with pytest.raises(ValueError, match="shape side must be >= 1, got 0"):
        rng.normal((2, 0))
    assert rng._count == 0


def test_multi_stream_rows_equal_single_streams():
    seeds = [3, 2**64 - 1, -7]
    multi = Rng(seeds)
    singles = [Rng(s) for s in seeds]
    draws = [("uniform", (4, 3)), ("normal", (5,)), ("normal", (2, 2)),
             ("uniform", ()), ("normal", (1, 3, 3))]
    for kind, shape in draws:
        got = getattr(multi, kind)(shape)
        want = np.stack([np.asarray(getattr(r, kind)(shape)) for r in singles])
        assert got.shape == (3,) + shape
        assert got.tobytes() == want.tobytes()
        assert all(multi._count == r._count for r in singles)


def test_multi_stream_randint_and_seed_validation():
    rng = Rng([1, 2])
    with pytest.raises(ValueError, match="single-stream"):
        rng.randint(6)
    assert rng._count == 0
    for bad in ([], [[1, 2]], np.zeros((2, 2), dtype=int)):
        with pytest.raises(ValueError):
            Rng(bad)
    # a one-element sequence is one stream with a leading axis of 1
    assert np.array_equal(Rng([9]).normal((4,))[0], Rng(9).normal((4,)))


# 13 draws at a bound of 100 words: 7 to a block for one stream (13 words a
# draw), 2 for three (36 words a draw), each leaving a partial last block
@pytest.mark.parametrize("bound", [rng_module._NOISE_BLOCK, 100])
@pytest.mark.parametrize("seed, parts", [(5, ((2, 3), 9, (5,))),
                                         ([3, 2**64 - 1, -7], ((2, 3), (5,)))])
def test_draws_yield_one_tuple_per_draw_equal_to_one_call_per_draw(bound, seed, parts,
                                                                   monkeypatch):
    monkeypatch.setattr(rng_module, "_NOISE_BLOCK", bound)
    got_rng, want_rng = Rng(seed), Rng(seed)
    draws = list(got_rng._draws(13, *parts))
    assert len(draws) == 13
    for draw in draws:
        assert len(draw) == len(parts)
        for value, part in zip(draw, parts):
            if isinstance(part, tuple):
                assert value.shape == np.shape(seed) + part
                assert value.tobytes() == want_rng.normal(part).tobytes()
            else:
                assert type(value) is int and value == want_rng.randint(part)
    assert got_rng._count == want_rng._count
    assert list(Rng(seed)._draws(0, *parts)) == []


_IMAGE = np.arange(48.0).reshape(3, 4, 4) / 47.0


def _rotated_chain(phi, rng):
    return sample_rotated(ZeroDenoiser(), linear_schedule(3), (1, 4, 4), phi, rng)


def _gaussian_loss(n_draws, rng):
    data = GaussianDataSpec(0.0, 1.0, (1, 2, 2))
    return training_loss(ZeroDenoiser(), data, linear_schedule(4), n_draws, rng)


# Each number argument: the name its message starts with, a call of
# (value, rng), a value it refuses (text, or past the largest double), a
# whole value it accepts, and the sha256 prefix of that call's bytes.
_NUMBER_ARGUMENTS = {
    'Rng("7")': ("seed", lambda v, rng: Rng(v).normal(3), "7", 7, "549b845474dbc638"),
    'Rng(b"7")': ("seed", lambda v, rng: Rng(v).normal(3), b"7", 7, "549b845474dbc638"),
    "Rng(2**1100)": ("seed", lambda v, rng: Rng(v).normal(3), 2**1100, 7, "549b845474dbc638"),
    'normal("8")': ("shape side", lambda v, rng: rng.normal(v), "8", 8, "a6af72bee22323f5"),
    'randint("3")': ("high", lambda v, rng: rng.randint(v), "3", 3, "161f4c0b1a18a050"),
    'corpus("2", 16)': ("count", lambda v, rng: band_limited_corpus(v, 16),
                        "2", 2, "6eb1e162a2903702"),
    'corpus(2, 16, "1")': ("seed", lambda v, rng: band_limited_corpus(2, 16, v),
                           "1", 1, "0b7d347e5a6cd6a3"),
    'linear_schedule("5")': ("T", lambda v, rng: linear_schedule(v).alpha_bar,
                             "5", 5, "3d54fe8a364e4e04"),
    'training_loss("3")': ("n_draws", _gaussian_loss, "3", 3, "fa06a3c48330a2c0"),
    'jinc("0.5")': ("x", lambda v, rng: jinc(v), "0.5", 2, "0a169ff4961d27f5"),
    'ConstantDenoiser(b"1")': ("value", lambda v, rng: ConstantDenoiser(v).predict(np.zeros(3), 1),
                               b"1", 1, "cc143326a2646c60"),
    'GaussianDataSpec("1")': ("mean", lambda v, rng: GaussianDataSpec(v, 1.0, (1, 2, 2)).draw(rng),
                              "1", 1, "6a7df9fa1818c719"),
    'FilterSpec("1")': ("kaiser_beta", lambda v, rng: design_kernel(FilterSpec(v, True)).taps,
                        "1", 1, "1be83844a9f556fc"),
    'rotate("0.3")': ("phi", lambda v, rng: rotate(_IMAGE, v), "0.3", 1, "5ad59ef46af032f6"),
    "rotate(10**400)": ("phi", lambda v, rng: rotate(_IMAGE, v), 10**400, 1, "5ad59ef46af032f6"),
    'sample_rotated("0.1")': ("phi", _rotated_chain, "0.1", 1, "5541fd92ffb7e0fc"),
    'kaiser_weight(1.0, 0, "2")': ("length", lambda v, rng: kaiser_weight(1.0, 0, v),
                                   "2", 2, "6c3c396ed6b5c36d"),
    'kaiser_weight(1.0, "0", 2.0)': ("n", lambda v, rng: kaiser_weight(1.0, v, 2.0),
                                     "0", 1, "070a554a1efb7a53"),
}


def _digest(out) -> str:
    return hashlib.sha256(np.asarray(out, dtype=float).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("name, call, bad, good, pin", _NUMBER_ARGUMENTS.values(),
                         ids=_NUMBER_ARGUMENTS)
def test_number_arguments_refuse_text_and_overflow_and_keep_their_bytes(name, call, bad,
                                                                        good, pin):
    """Text and values past the largest double raise a ValueError that names the
    argument before any draw; an int, an integral float, numpy scalars and a
    0-d array of the accepted value all give the pinned bytes."""
    rng = Rng(0)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(bad, rng)
    assert rng._count == 0
    for form in (good, float(good), np.int64(good), np.float64(good), np.array(good)):
        assert _digest(call(form, Rng(0))) == pin, form


_K3 = design_kernel(FilterSpec(1.0, True))
_D = PipelineConfig("D", FilterSpec(1.0, True))
_DENOISER_KINDS = ("zero", "constant", "gaussian")

# Each named option: the words its message names, the options it lists, and
# a call of (value, rng) that takes it.
_OPTIONS = {
    "apply_pointwise act": ("activation", ACTIVATIONS,
                            lambda v, rng: apply_pointwise(_IMAGE, v)),
    "wrapped_activation act": ("activation", ACTIVATIONS,
                               lambda v, rng: wrapped_activation(_IMAGE, v, _K3)),
    "pipeline_stages act": ("activation", ACTIVATIONS, lambda v, rng: pipeline_stages(_D, v)),
    "convolve2d padding": ("padding mode", PADDING_MODES,
                           lambda v, rng: convolve2d(_IMAGE, _K3, v)),
    "downsample2x_af padding": ("padding mode", PADDING_MODES,
                                lambda v, rng: downsample2x_af(_IMAGE, _K3, v)),
    "upsample2x_af padding": ("padding mode", PADDING_MODES,
                              lambda v, rng: upsample2x_af(_IMAGE, _K3, v)),
    "wrapped_activation padding": ("padding mode", PADDING_MODES,
                                   lambda v, rng: wrapped_activation(_IMAGE, "relu", _K3, v)),
    "pipeline_stages padding": ("padding mode", PADDING_MODES,
                                lambda v, rng: pipeline_stages(_D, "relu", v)),
    "rotate fill": ("fill mode", FILL_MODES, lambda v, rng: rotate(_IMAGE, 0.3, v)),
    "sample_rotated fill": ("fill mode", FILL_MODES, lambda v, rng: sample_rotated(
        ZeroDenoiser(), linear_schedule(3), (1, 4, 4), 0.1, rng, v)),
    "linear_schedule sigma_mode": ("sigma_mode", SIGMA_MODES,
                                   lambda v, rng: linear_schedule(5, sigma_mode=v)),
    "PipelineConfig kind": ("pipeline kind", PIPELINE_KINDS, lambda v, rng: PipelineConfig(v)),
    "parse_denoiser_spec kind": ("denoiser kind", _DENOISER_KINDS,
                                 lambda v, rng: parse_denoiser_spec(v)),
}


@pytest.mark.parametrize("listed", (False, True), ids=("text", "list"))
@pytest.mark.parametrize("what, options, call", _OPTIONS.values(), ids=_OPTIONS)
def test_named_options_share_one_rule(what, options, call, listed):
    """An unknown name, or a list holding a known one, raises rng._choice's
    ValueError naming the option and listing the known ones, before any draw."""
    bad = [options[0]] if listed else "tanh"
    shown = ".+" if listed else re.escape(repr(bad))  # the denoiser parser reads str(list)
    rng = Rng(0)
    with pytest.raises(ValueError, match=f"^unknown {what} {shown}, "
                                         f"expected one of {re.escape(str(options))}$"):
        call(bad, rng)
    assert rng._count == 0
