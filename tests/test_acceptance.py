"""Acceptance gate: ten end-to-end properties, one test each.

Every test prints a single [criterion NN] PASS/FAIL line (bypassing
capture) and then asserts, so the gate's verdict is visible in any run.
Tolerances and the DERIVED constants frozen from first oracle runs are
pinned next to each criterion.
"""

import math
import time

import numpy as np
import pytest

from aliasfree import (AnalyticGaussianDenoiser, FilterSpec, GaussianDataSpec,
                       PipelineConfig, ZeroDenoiser, alias_energy,
                       apply_pointwise, band_limited_corpus, bessel_i0,
                       bessel_j1, design_kernel, downsample2x_af,
                       downsample2x_naive, equivariance_error, jinc,
                       linear_schedule, read_raster, rotate, sample_classical,
                       sample_rotated, training_loss, upsample2x_af,
                       upsample2x_naive, wrapped_activation, write_raster)
from aliasfree.cli import main as cli_main
from aliasfree.rng import Rng

from _oracles import (downsample_af_loops, i0_series_60, j1_series_60,
                      jinc_series_60)

GRID = [FilterSpec(kaiser_beta=float(b), normalized=n)
        for b in (0, 1, 2) for n in (True, False)]


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[criterion {num:02d}] {name}: {verdict} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_special_functions(capsys):
    rng = Rng(1001)
    xs = (np.asarray(rng.uniform((1000,))) * 20.0) - 10.0
    oracles = [(j1_series_60(x), i0_series_60(x), jinc_series_60(x)) for x in xs]
    t0 = time.perf_counter()
    got = [(bessel_j1(float(x)), bessel_i0(float(x)), jinc(float(x))) for x in xs]
    elapsed = time.perf_counter() - t0
    worst = max(max(abs(a - b) for a, b in zip(g, o)) for g, o in zip(got, oracles))
    ok = worst <= 1e-10 and elapsed < 1.0
    report(capsys, 1, "special functions vs 60-term series", ok,
           f"max err {worst:.2e}, {elapsed:.3f}s")


def test_criterion_02_filter_grid(capsys):
    import mpmath as mp
    mp.mp.dps = 50
    problems = []
    for spec in GRID:
        taps = design_kernel(spec).taps
        if not (np.array_equal(taps, taps[::-1, :])
                and np.array_equal(taps, taps[:, ::-1])
                and np.array_equal(taps, taps.T)):
            problems.append(f"{spec} asymmetric")
        if spec.normalized and abs(taps.sum() - 1.0) > 1e-12:
            problems.append(f"{spec} sum {taps.sum()!r}")
    # independent oracle for the unnormalized beta=0 tap sum
    wc = mp.pi / 2
    oracle = mp.mpf(0)
    for n1 in (-1, 0, 1):
        for n2 in (-1, 0, 1):
            rho = mp.sqrt(n1 ** 2 + n2 ** 2)
            if rho == 0:
                oracle += wc ** 2 / (4 * mp.pi)
            else:
                oracle += wc ** 2 / (2 * mp.pi) * mp.besselj(1, wc * rho) / (wc * rho)
    got = design_kernel(FilterSpec(kaiser_beta=0.0, normalized=False)).taps.sum()
    if abs(got - float(oracle)) > 1e-3:
        problems.append(f"beta0 sum {got} vs oracle {float(oracle)}")
    ok = not problems
    report(capsys, 2, "filter grid symmetry and sums", ok,
           problems[0] if problems else
           f"{len(GRID)} specs, beta0 sum {got:.6f} vs oracle {float(oracle):.6f}")


def test_criterion_03_resampling_oracle(capsys):
    t0 = time.perf_counter()
    kernels = [design_kernel(s) for s in GRID]
    worst = 0.0
    for i in range(50):
        img = np.asarray(Rng(3000 + i).normal((1, 8, 8)))
        kernel = kernels[i % len(kernels)]
        got = downsample2x_af(img, kernel)
        want = downsample_af_loops(img, kernel.taps, "reflect")
        worst = max(worst, float(np.max(np.abs(got - want))))
    # constant preservation: normalized kernels pass constants through the
    # downsampler exactly; the upsampler's deviation equals its phase gap
    const = np.full((1, 8, 8), 0.37)
    k1n = design_kernel(FilterSpec(kaiser_beta=1.0, normalized=True))
    down_dev = float(np.max(np.abs(downsample2x_af(const, k1n) - 0.37)))
    phase_gap = max(abs(4.0 * k1n.taps[ii % 2::2, jj % 2::2].sum() - 1.0)
                    for ii in (0, 1) for jj in (0, 1))
    up_dev = float(np.max(np.abs(upsample2x_af(const, k1n) - 0.37)))
    elapsed = time.perf_counter() - t0
    ok = (worst <= 1e-12 and down_dev <= 1e-12
          and up_dev <= phase_gap * 0.37 + 1e-12 and elapsed < 5.0)
    report(capsys, 3, "downsampler vs triple-loop oracle", ok,
           f"max err {worst:.2e}, const down {down_dev:.2e}, "
           f"const up {up_dev:.4f} <= {phase_gap * 0.37:.4f}, {elapsed:.2f}s")


def test_criterion_04_aliasing_reduction(capsys):
    # DERIVED baselines, first oracle run on this corpus and kernel:
    # min round-trip margin 0.2779, min alias margin 0.0206
    t0 = time.perf_counter()
    corpus = band_limited_corpus()
    k1n = design_kernel(FilterSpec(kaiser_beta=1.0, normalized=True))
    rt_margins, alias_margins = [], []
    for img in corpus:
        scale = float(np.linalg.norm(img))
        naive = upsample2x_naive(downsample2x_naive(img))
        af = upsample2x_af(downsample2x_af(img, k1n), k1n)
        rt_margins.append((float(np.linalg.norm(naive - img)) -
                           float(np.linalg.norm(af - img))) / scale)
        alias_margins.append(alias_energy(apply_pointwise(img, "relu"))
                             - alias_energy(wrapped_activation(img, "relu", k1n)))
    elapsed = time.perf_counter() - t0
    ok = (all(m > 0.0 for m in rt_margins) and all(m > 0.0 for m in alias_margins)
          and min(rt_margins) >= 0.25 and min(alias_margins) >= 0.018
          and elapsed < 30.0)
    report(capsys, 4, "alias-free beats naive on corpus", ok,
           f"min rt margin {min(rt_margins):.4f} (baseline 0.2779), "
           f"min alias margin {min(alias_margins):.4f} (baseline 0.0206), "
           f"{elapsed:.2f}s")


def test_criterion_05_equivariance_ordering(capsys):
    t0 = time.perf_counter()
    corpus = band_limited_corpus()
    config_a = PipelineConfig("A")
    config_d = PipelineConfig("D", FilterSpec(kaiser_beta=1.0, normalized=True))
    angles = ((math.pi / 7, "pi/7"), (math.pi / 4, "pi/4"), (math.pi / 2, "pi/2"))
    parts = []
    ok = True
    for phi, label in angles:
        margins = [equivariance_error(config_a, img, phi)
                   - equivariance_error(config_d, img, phi) for img in corpus]
        holds = all(m > 0.0 for m in margins)
        ok = ok and holds
        parts.append(f"{label}: {'ok' if holds else 'VIOLATED'} "
                     f"worst margin {min(margins):+.4f}")
    elapsed = time.perf_counter() - t0
    # pi/2 cannot hold: a quarter turn is an exact grid permutation, and
    # pipeline A is built purely from 2x2 block and pointwise operators,
    # which commute exactly with it, so A's error there is rounding noise;
    # D keeps even-index samples when it decimates, and a quarter turn of
    # an even-sized grid maps even indices to odd ones, so D lands half a
    # pixel from its rotated self
    report(capsys, 5, "D-1N more rotation-equivariant than A", ok,
           "; ".join(parts) + f", {elapsed:.2f}s")


def test_criterion_06_sampler_telescopes(capsys):
    t0 = time.perf_counter()
    sched = linear_schedule(1000, sigma_mode="zero")
    x_T = Rng(11).normal((1, 8, 8))
    out = sample_classical(ZeroDenoiser(), sched, (1, 8, 8), Rng(11))
    rel = float(np.linalg.norm(out * math.sqrt(sched.alpha_bar[-1]) - x_T)
                / np.linalg.norm(x_T))
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-9 and elapsed < 1.0
    report(capsys, 6, "zero-denoiser chain telescopes", ok,
           f"rel err {rel:.2e}, {elapsed:.3f}s")


def test_criterion_07_analytic_denoiser_end_to_end(capsys):
    t0 = time.perf_counter()
    data = GaussianDataSpec(mean=0.3, stddev=0.05, shape=(1, 8, 8))
    sched = linear_schedule(1000)
    den = AnalyticGaussianDenoiser(data, sched)
    seeds = [2026 ^ i for i in range(1024)]
    # one stream per trajectory; each row is bitwise its single-stream chain
    flat = sample_classical(den, sched, data.shape, Rng(seeds)).reshape(len(seeds), -1)
    for i in (0, len(seeds) - 1):
        single = sample_classical(den, sched, data.shape, Rng(seeds[i]))
        assert flat[i].tobytes() == single.tobytes(), i
    pooled = flat.ravel()
    mean_z = abs(pooled.mean() - data.mean) / (pooled.std(ddof=1)
                                               / math.sqrt(pooled.size))
    n = flat.shape[0]
    var = flat.var(axis=0, ddof=1)
    centered = flat - flat.mean(axis=0)
    m2 = (centered ** 2).mean(axis=0)
    m4 = (centered ** 4).mean(axis=0)
    se_var = np.sqrt((m4 - m2 ** 2 * (n - 3) / (n - 1)) / n)
    var_z = float(np.max(np.abs((var - data.stddev ** 2) / se_var)))
    elapsed = time.perf_counter() - t0
    ok = mean_z <= 3.0 and var_z <= 3.0 and elapsed < 60.0
    report(capsys, 7, "sampled moments match the data law", ok,
           f"mean z {mean_z:.2f}, worst per-element var z {var_z:.2f}, "
           f"{elapsed:.1f}s")


def test_criterion_08_rotated_sampling(capsys):
    # DERIVED bound: eight pi/16 bilinear turns of 32x32 white noise vs one
    # exact quarter turn measured 0.9251 relative on first oracle run
    t0 = time.perf_counter()
    sched = linear_schedule(8, sigma_mode="zero")
    shape = (1, 32, 32)
    a = sample_classical(ZeroDenoiser(), sched, shape, Rng(3))
    b = sample_rotated(ZeroDenoiser(), sched, shape, 0.0, Rng(3))
    bitwise = bool(np.array_equal(a, b))
    x_T = Rng(3).normal(shape)
    out = sample_rotated(ZeroDenoiser(), sched, shape, math.pi / 2, Rng(3))
    ref = rotate(x_T / math.sqrt(sched.alpha_bar[-1]), math.pi / 2)
    rel = float(np.linalg.norm(out - ref) / np.linalg.norm(ref))
    elapsed = time.perf_counter() - t0
    ok = bitwise and rel <= 0.93 and elapsed < 5.0
    report(capsys, 8, "rotation-distributed sampler", ok,
           f"phi=0 bitwise {bitwise}, composition rel err {rel:.4f} "
           f"(bound 0.93), {elapsed:.2f}s")


def test_criterion_09_loss_optimality(capsys):
    t0 = time.perf_counter()
    data = GaussianDataSpec(mean=0.3, stddev=0.05, shape=(1, 8, 8))
    sched = linear_schedule(1000)
    den = AnalyticGaussianDenoiser(data, sched)

    class Shifted:
        def __init__(self, base, c):
            self.base, self.c = base, c

        def predict(self, x_t, t):
            return self.base.predict(x_t, t) + self.c

    n_draws = 10_000
    base = training_loss(den, data, sched, n_draws, Rng(99))
    margins = {}
    for c in (0.1, -0.1, 0.5, -0.5):
        margins[c] = training_loss(Shifted(den, c), data, sched,
                                   n_draws, Rng(99)) - base
    elapsed = time.perf_counter() - t0
    ok = all(m > 0.0 for m in margins.values()) and elapsed < 10.0
    report(capsys, 9, "analytic denoiser minimizes the objective", ok,
           f"base {base:.4f}, min margin {min(margins.values()):.4f}, "
           f"{elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    src_img = np.clip(np.asarray(Rng(5).normal((1, 16, 16))) * 0.4, -1.0, 1.0)
    src = tmp_path / "in.pgm"
    src.write_bytes(write_raster(src_img))
    matrix = [
        ("kernel", ["kernel", "--beta", "1", "--normalized"]),
        ("freq", ["freq", "--beta", "0", "--normalized", "--N", "16"]),
        ("resample", ["resample", "--in", str(src), "--mode", "af",
                      "--dir", "down", "--beta", "1", "--normalized"]),
        ("activate", ["activate", "--in", str(src), "--act", "relu",
                      "--wrapped", "--beta", "1", "--normalized"]),
        ("rotate", ["rotate", "--in", str(src), "--phi", "0.448798950512827"]),
        ("sample", ["sample", "--config", "rotated", "--T", "8",
                    "--shape", "1x8x8", "--denoiser", "gaussian:mu=0.3,sigma0=0.05",
                    "--phi", "half-pi", "--n", "2", "--seed", "3"]),
        ("analyze", ["analyze", "--report", "alias", "--beta", "1",
                     "--normalized", "--count", "2", "--N", "32"]),
    ]
    failures = []
    for name, argv in matrix:
        out1 = tmp_path / f"{name}-run1.out"
        out2 = tmp_path / f"{name}-run2.out"
        if cli_main([*argv, "--out", str(out1)]) != 0:
            failures.append(f"{name} rc != 0")
            continue
        if cli_main([*argv, "--out", str(out2)]) != 0:
            failures.append(f"{name} rerun rc != 0")
            continue
        if name == "sample":
            for i in range(2):
                a = (tmp_path / f"{name}-run1.out-{i:03d}.pgm").read_bytes()
                b = (tmp_path / f"{name}-run2.out-{i:03d}.pgm").read_bytes()
                if a != b:
                    failures.append(f"{name} trajectory {i} differs")
        elif out1.read_bytes() != out2.read_bytes():
            failures.append(f"{name} bytes differ")
    # raster round trip: quantization never moves a value more than one step
    worst_q = 0.0
    for seed in range(5):
        img = np.clip(np.asarray(Rng(7000 + seed).normal((1, 6, 6))), -1.0, 1.0)
        back = read_raster(write_raster(img))
        worst_q = max(worst_q, float(np.max(np.abs(back - img))))
    if worst_q > 1.0 / 127.5:
        failures.append(f"quantization error {worst_q}")
    ok = not failures
    report(capsys, 10, "CLI byte determinism and raster bound", ok,
           "; ".join(failures) if failures else
           f"{len(matrix)} subcommands byte-identical, "
           f"round trip {worst_q:.5f} <= {1.0 / 127.5:.5f}")
