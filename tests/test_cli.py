import argparse
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from aliasfree import (FilterSpec, PipelineConfig, alias_energy, apply_pointwise,
                       band_limited_corpus, design_kernel, downsample2x_af,
                       downsample2x_naive, equivariance_error, freq_response,
                       kernel_from_text, linear_schedule, read_raster,
                       rotate, sample_classical, upsample2x_af, upsample2x_naive,
                       wrapped_activation, write_raster)
from aliasfree import cli
from aliasfree.cli import (build_parser, main, parse_angle, parse_denoiser_spec,
                          parse_shape)
from aliasfree.diffusion import (AnalyticGaussianDenoiser, ConstantDenoiser,
                                 GaussianDataSpec)
from aliasfree.rng import Rng
from aliasfree.rotation import _rotator


def run(*argv):
    return main(list(argv))


def make_input(tmp_path, name="in.pgm", shape=(1, 16, 16), seed=5):
    img = np.clip(np.asarray(Rng(seed).normal(shape)) * 0.4, -1.0, 1.0)
    path = tmp_path / name
    path.write_bytes(write_raster(img))
    return path


def test_parse_angle():
    assert parse_angle("half-pi") == math.pi / 2
    assert parse_angle("0.25") == 0.25
    for bad in ("quarter-pi", "nan", "inf", "-inf", "0_5"):
        with pytest.raises(ValueError):
            parse_angle(bad)


def test_parse_shape():
    assert parse_shape("1x8x8") == (1, 8, 8)
    assert parse_shape("3X4X5") == (3, 4, 5)
    for bad in ("8x8", "1x8x8x8", "0x8x8", "1xax8", "1x1_6x16"):
        with pytest.raises(ValueError):
            parse_shape(bad)


def test_parse_denoiser_spec():
    assert parse_denoiser_spec("zero") == ("zero", {})
    assert parse_denoiser_spec("constant:v=0.5") == ("constant", {"v": 0.5})
    kind, args = parse_denoiser_spec("gaussian:mu=0.3,sigma0=0.05")
    assert kind == "gaussian" and args == {"mu": 0.3, "sigma0": 0.05}
    for bad in ("unknown", "constant", "gaussian:mu=0.3",
                "constant:v=0.5,w=2", "gaussian:mu=x,sigma0=1", "zero:v=1",
                "constant:v=nan", "gaussian:mu=inf,sigma0=1", "constant:v",
                "constant:v=1_0", "constant:v=1,v=2", "gaussian:mu=1,mu=2,sigma0=1",
                # names, like numbers, take no surrounding whitespace
                "constant: v =1", "constant:v =1", " constant:v=1", "zero\n",
                "gaussian:mu=0.3, sigma0=0.05"):
        with pytest.raises(ValueError):
            parse_denoiser_spec(bad)


def test_kernel_command_writes_designed_taps(tmp_path):
    out = tmp_path / "k.txt"
    assert run("kernel", "--beta", "1", "--normalized", "--out", str(out)) == 0
    kernel = kernel_from_text(out.read_text())
    assert kernel == design_kernel(FilterSpec(kaiser_beta=1.0, normalized=True))


def test_kernel_command_honors_cutoff_token(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert run("kernel", "--beta", "0", "--cutoff", "half-pi", "--out", str(a)) == 0
    assert run("kernel", "--beta", "0", "--cutoff", repr(math.pi / 2), "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_freq_command_csv(tmp_path):
    out = tmp_path / "f.csv"
    assert run("freq", "--beta", "1", "--normalized", "--N", "8", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k1,k2,magnitude"
    assert len(lines) == 1 + 64
    rows = {}
    for line in lines[1:]:
        k1, k2, mag = line.split(",")
        rows[(int(k1), int(k2))] = float(mag)
    assert rows[(0, 0)] == pytest.approx(1.0, abs=1e-12)  # normalized DC
    assert rows[(-4, -4)] < 0.1


@pytest.mark.parametrize("N", [7, 8])
def test_freq_csv_equals_the_cell_by_cell_rows(tmp_path, N):
    out = tmp_path / "f.csv"
    assert run("freq", "--beta", "1", "--size", "5", "--N", str(N), "--out", str(out)) == 0
    mag = freq_response(design_kernel(FilterSpec(1.0, False, kernel_size=5)), N)
    ks = range(-(N // 2), N - N // 2)
    want = ["k1,k2,magnitude"] + [f"{k1},{k2},{float(mag[i, j])!r}"
                                  for i, k1 in enumerate(ks) for j, k2 in enumerate(ks)]
    assert out.read_text() == "\n".join(want) + "\n"


def test_resample_commands(tmp_path):
    src = make_input(tmp_path)
    for mode, direction, shape in (("af", "down", (1, 8, 8)),
                                   ("af", "up", (1, 32, 32)),
                                   ("naive", "down", (1, 8, 8)),
                                   ("naive", "up", (1, 32, 32))):
        out = tmp_path / f"{mode}-{direction}.pgm"
        assert run("resample", "--in", str(src), "--mode", mode,
                   "--dir", direction, "--beta", "1", "--normalized",
                   "--out", str(out)) == 0
        assert read_raster(out.read_bytes()).shape == shape


def test_activate_command(tmp_path):
    src = make_input(tmp_path)
    plain = tmp_path / "plain.pgm"
    wrapped = tmp_path / "wrapped.pgm"
    assert run("activate", "--in", str(src), "--act", "relu",
               "--out", str(plain)) == 0
    assert run("activate", "--in", str(src), "--act", "relu", "--wrapped",
               "--beta", "1", "--normalized", "--out", str(wrapped)) == 0
    a = read_raster(plain.read_bytes())
    b = read_raster(wrapped.read_bytes())
    assert a.shape == b.shape == (1, 16, 16)
    assert not np.array_equal(a, b)
    assert np.min(a) >= -1e-9  # relu output is nonnegative


def test_rotate_command(tmp_path):
    src = make_input(tmp_path)
    out = tmp_path / "rot.pgm"
    assert run("rotate", "--in", str(src), "--phi", "half-pi",
               "--out", str(out)) == 0
    got = read_raster(out.read_bytes())
    src_img = read_raster(src.read_bytes())
    want = src_img[:, :, ::-1].transpose(0, 2, 1)  # exact quarter turn
    assert np.max(np.abs(got - want)) <= 1.0 / 127.5


def test_sample_command_files_and_seeding(tmp_path):
    prefix = tmp_path / "run"
    assert run("sample", "--config", "classical", "--T", "10",
               "--shape", "1x8x8", "--denoiser", "gaussian:mu=0.3,sigma0=0.05",
               "--n", "3", "--seed", "7", "--out", str(prefix)) == 0
    paths = [tmp_path / f"run-{i:03d}.pgm" for i in range(3)]
    assert all(p.exists() for p in paths)
    sched = linear_schedule(10)
    data = GaussianDataSpec(mean=0.3, stddev=0.05, shape=(1, 8, 8))
    den = AnalyticGaussianDenoiser(data, sched)
    for i, p in enumerate(paths):
        want = write_raster(sample_classical(den, sched, (1, 8, 8), Rng(7 ^ i)))
        assert p.read_bytes() == want
    const = tmp_path / "const"
    assert run("sample", "--config", "classical", "--T", "10",
               "--shape", "1x8x8", "--denoiser", "constant:v=0.25",
               "--seed", "7", "--out", str(const)) == 0
    want = write_raster(sample_classical(ConstantDenoiser(0.25), sched, (1, 8, 8), Rng(7)))
    assert (tmp_path / "const-000.pgm").read_bytes() == want
    # a zero angle of either sign is the classical chain
    assert run("sample", "--config", "classical", "--T", "10",
               "--shape", "1x8x8", "--denoiser", "constant:v=0.25", "--phi", "-0",
               "--seed", "7", "--out", str(tmp_path / "neg0")) == 0
    assert (tmp_path / "neg0-000.pgm").read_bytes() == want


def test_sample_command_rgb_uses_ppm(tmp_path):
    prefix = tmp_path / "rgb"
    assert run("sample", "--config", "classical", "--T", "4",
               "--shape", "3x4x4", "--denoiser", "zero", "--n", "1",
               "--out", str(prefix)) == 0
    assert (tmp_path / "rgb-000.ppm").exists()


def test_analyze_commands(tmp_path):
    alias_csv = tmp_path / "alias.csv"
    assert run("analyze", "--report", "alias", "--beta", "1", "--normalized",
               "--count", "2", "--N", "32", "--out", str(alias_csv)) == 0
    lines = alias_csv.read_text().strip().splitlines()
    assert lines[0] == "image,naive_roundtrip,af_roundtrip,relu_alias,wrapped_relu_alias"
    assert len(lines) == 3
    for line in lines[1:]:
        _, naive, af, plain, wrapped = line.split(",")
        assert float(af) < float(naive)
        assert float(wrapped) < float(plain)

    eq_csv = tmp_path / "eq.csv"
    assert run("analyze", "--report", "equivariance", "--pipeline", "D",
               "--beta", "1", "--normalized", "--phi", "0.448798950512827",
               "--count", "2", "--N", "32", "--out", str(eq_csv)) == 0
    lines = eq_csv.read_text().strip().splitlines()
    assert lines[0] == "image,config,phi,error"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "D-1N"


def test_analyze_equivariance_csv_matches_per_image_calls(tmp_path):
    out = tmp_path / "eq.csv"
    assert run("analyze", "--report", "equivariance", "--count", "3", "--N", "32",
               "--out", str(out)) == 0
    config = PipelineConfig("D", FilterSpec(kaiser_beta=1.0, normalized=False))
    phi = math.pi / 4
    rows = ["image,config,phi,error"] + [
        f"{i},D-1,{phi!r},{equivariance_error(config, img, phi)!r}"
        for i, img in enumerate(band_limited_corpus(3, 32))]
    assert out.read_bytes() == ("\n".join(rows) + "\n").encode("ascii")


K5 = FilterSpec(kaiser_beta=1.0, normalized=True, kernel_size=5)


@pytest.mark.parametrize("padding", ["reflect", "zero"])
@pytest.mark.parametrize("mode, direction, want", [
    ("naive", "down", lambda img, padding: downsample2x_naive(img)),
    ("naive", "up", lambda img, padding: upsample2x_naive(img)),
    ("af", "down", lambda img, padding: downsample2x_af(img, design_kernel(K5), padding)),
    ("af", "up", lambda img, padding: upsample2x_af(img, design_kernel(K5), padding)),
])
def test_resample_bytes_equal_the_library_call(tmp_path, mode, direction, want, padding):
    src = make_input(tmp_path, shape=(3, 12, 12))
    out = tmp_path / "out.ppm"
    assert run("resample", "--in", str(src), "--mode", mode, "--dir", direction,
               "--beta", "1", "--normalized", "--size", "5", "--padding", padding,
               "--out", str(out)) == 0
    img = read_raster(src.read_bytes())
    assert out.read_bytes() == write_raster(want(img, padding))


def assert_activate_bytes_equal_the_library_call(tmp_path, shape, wrapped, act, padding):
    src = make_input(tmp_path, shape=shape)
    out = tmp_path / "out.img"
    flags = ["--wrapped"] if wrapped else []
    assert run("activate", "--in", str(src), "--act", act, *flags, "--beta", "1",
               "--normalized", "--size", "5", "--padding", padding, "--out", str(out)) == 0
    img = read_raster(src.read_bytes())
    got = (wrapped_activation(img, act, design_kernel(K5), padding) if wrapped
           else apply_pointwise(img, act))
    assert out.read_bytes() == write_raster(got)


@pytest.mark.parametrize("padding", ["reflect", "zero"])
@pytest.mark.parametrize("act", ["relu", "gelu"])
@pytest.mark.parametrize("wrapped", [False, True])
def test_activate_bytes_equal_the_library_call(tmp_path, wrapped, act, padding):
    assert_activate_bytes_equal_the_library_call(tmp_path, (1, 12, 12), wrapped, act, padding)


# the raster commands run one channel plane at a time; a P6 file, square or
# of odd sides, must still give the bytes of the whole-image call
@pytest.mark.parametrize("shape", [(3, 12, 12), (3, 7, 9)], ids=("3x12x12", "3x7x9"))
@pytest.mark.parametrize("padding", ["reflect", "zero"])
@pytest.mark.parametrize("act", ["relu", "gelu"])
@pytest.mark.parametrize("wrapped", [False, True])
def test_activate_ppm_bytes_equal_the_library_call(tmp_path, wrapped, act, padding, shape):
    assert_activate_bytes_equal_the_library_call(tmp_path, shape, wrapped, act, padding)


@pytest.mark.parametrize("text, phi", [("0.448798950512827", 0.448798950512827),
                                       ("half-pi", math.pi / 2)], ids=("pi-7", "half-pi"))
@pytest.mark.parametrize("fill", ["replicate", "zero"])
@pytest.mark.parametrize("shape", [(1, 12, 12), (3, 12, 12), (3, 7, 9)],
                         ids=("1x12x12", "3x12x12", "3x7x9"))
def test_rotate_bytes_equal_the_library_call(tmp_path, shape, fill, text, phi):
    src = make_input(tmp_path, shape=shape)
    out = tmp_path / "out.img"
    assert run("rotate", "--in", str(src), "--phi", text, "--fill", fill,
               "--out", str(out)) == 0
    assert out.read_bytes() == write_raster(rotate(read_raster(src.read_bytes()), phi, fill))


def test_rotate_builds_one_plan_for_every_plane(tmp_path, monkeypatch):
    plans = []

    def counted(*args):
        plans.append(args)
        return _rotator(*args)
    monkeypatch.setattr(cli, "_rotator", counted)
    src = make_input(tmp_path, shape=(3, 8, 8))
    assert run("rotate", "--in", str(src), "--phi", "0.3", "--out", str(tmp_path / "out.ppm")) == 0
    assert plans == [((3, 8, 8), 0.3, "replicate")]


@pytest.mark.parametrize("shape, argv, message", [
    ((3, 15, 15), ["--dir", "down"], "height and width must be even, got 15 x 15"),
    ((3, 2, 2), ["--dir", "up", "--size", "11"],
     "kernel size 11 exceeds reflect-padding limit 9 for upsampling a 2 x 2 image"),
], ids=("odd-down", "reflect-limit-up"))
def test_a_rejected_ppm_resample_names_its_fault_and_writes_no_file(
        tmp_path, capsys, shape, argv, message):
    src = make_input(tmp_path, shape=shape)
    out = tmp_path / "out.ppm"
    assert run("resample", "--in", str(src), "--mode", "af", *argv, "--beta", "1",
               "--out", str(out)) == 1
    assert capsys.readouterr().err == f"aliasfree: error: {message}\n"
    assert not out.exists()


def test_analyze_alias_csv_matches_the_hand_built_chains(tmp_path):
    # the chains of acceptance criterion 04, one row per corpus image
    out = tmp_path / "alias.csv"
    assert run("analyze", "--report", "alias", "--beta", "1", "--normalized",
               "--count", "3", "--N", "32", "--out", str(out)) == 0
    k1n = design_kernel(FilterSpec(kaiser_beta=1.0, normalized=True))
    rows = ["image,naive_roundtrip,af_roundtrip,relu_alias,wrapped_relu_alias"]
    for i, img in enumerate(band_limited_corpus(3, 32)):
        scale = float(np.linalg.norm(img))
        naive = upsample2x_naive(downsample2x_naive(img))
        af = upsample2x_af(downsample2x_af(img, k1n), k1n)
        rows.append(f"{i},{float(np.linalg.norm(naive - img)) / scale!r},"
                    f"{float(np.linalg.norm(af - img)) / scale!r},"
                    f"{alias_energy(apply_pointwise(img, 'relu'))!r},"
                    f"{alias_energy(wrapped_activation(img, 'relu', k1n))!r}")
    assert out.read_bytes() == ("\n".join(rows) + "\n").encode("ascii")


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the filter was designed")


@pytest.mark.parametrize("argv", [
    ["resample", "--mode", "af", "--dir", "down"],
    ["resample", "--mode", "af", "--dir", "up"],
    ["activate", "--act", "relu", "--wrapped"],
    ["analyze", "--report", "alias"],
    ["analyze", "--report", "equivariance", "--pipeline", "B"],
    ["analyze", "--report", "equivariance", "--pipeline", "C"],
    ["analyze", "--report", "equivariance", "--pipeline", "D"],
])
def test_a_rejected_filter_exits_before_any_input_is_read(tmp_path, monkeypatch, capsys, argv):
    src = make_input(tmp_path)
    monkeypatch.setattr("aliasfree.cli._pixels", _no_work)
    monkeypatch.setattr("aliasfree.cli.band_limited_corpus", _no_work)
    if argv[0] != "analyze":
        argv = argv + ["--in", str(src)]
    out = tmp_path / "out"
    assert run(*argv, "--beta", "800", "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "aliasfree: error: bessel_i0(800.0) exceeds the largest double\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["resample", "--mode", "naive", "--dir", "down"],
    ["resample", "--mode", "naive", "--dir", "up"],
    ["activate", "--act", "relu"],
    ["activate", "--act", "gelu"],
])
def test_commands_without_a_filter_ignore_its_flags(tmp_path, argv):
    src = make_input(tmp_path)
    out = tmp_path / "out.pgm"
    assert run(*argv, "--in", str(src), "--beta", "800", "--out", str(out)) == 0
    assert out.exists()


def test_every_subcommand_is_byte_deterministic(tmp_path):
    src = make_input(tmp_path)
    matrix = [
        ("kernel", ["kernel", "--beta", "2", "--normalized"]),
        ("freq", ["freq", "--beta", "0", "--N", "16"]),
        ("resample", ["resample", "--in", str(src), "--mode", "af", "--dir", "down",
                      "--beta", "1", "--normalized"]),
        ("activate", ["activate", "--in", str(src), "--act", "gelu", "--wrapped",
                      "--beta", "1", "--normalized"]),
        ("rotate", ["rotate", "--in", str(src), "--phi", "0.3"]),
        ("sample", ["sample", "--config", "rotated", "--T", "6", "--shape", "1x8x8",
                    "--denoiser", "gaussian:mu=0.0,sigma0=0.5", "--phi", "half-pi",
                    "--n", "2", "--seed", "3"]),
        ("analyze", ["analyze", "--report", "equivariance", "--pipeline", "B",
                     "--beta", "1", "--count", "1", "--N", "32"]),
    ]
    for name, argv in matrix:
        first = tmp_path / f"{name}-1.out"
        second = tmp_path / f"{name}-2.out"
        assert run(*argv, "--out", str(first)) == 0
        assert run(*argv, "--out", str(second)) == 0
        if name == "sample":
            for i in range(2):
                a = tmp_path / f"{name}-1.out-{i:03d}.pgm"
                b = tmp_path / f"{name}-2.out-{i:03d}.pgm"
                assert a.read_bytes() == b.read_bytes()
        else:
            assert first.read_bytes() == second.read_bytes()


def test_exit_codes(tmp_path):
    # usage errors: argparse rejects before any handler runs
    assert run() == 2
    assert run("resample", "--mode", "af", "--out", "x.pgm") == 2
    assert run("freq", "--beta", "1", "--N", "bogus", "--out", "x.csv") == 2
    assert run("sample", "--config", "classical", "--denoiser", "what:z=1",
               "--out", "x") == 2
    assert run("rotate", "--in", "a.pgm", "--phi", "pi-ish", "--out", "x.pgm") == 2
    # runtime errors: valid arguments, failing work
    assert run("resample", "--in", str(tmp_path / "missing.pgm"), "--mode", "af",
               "--dir", "down", "--out", str(tmp_path / "x.pgm")) == 1
    assert run("freq", "--beta", "1", "--N", "1", "--out", str(tmp_path / "x.csv")) == 1
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    assert run("rotate", "--in", str(bad), "--phi", "0.1",
               "--out", str(tmp_path / "x.pgm")) == 1
    src = make_input(tmp_path, "odd.pgm", (1, 15, 15), seed=8)
    assert run("resample", "--in", str(src), "--mode", "af", "--dir", "down",
               "--beta", "1", "--out", str(tmp_path / "x.pgm")) == 1


def test_help_exits_zero():
    assert run("--help") == 0
    assert run("sample", "--help") == 0


def test_cli_settable_values():
    # a ratchet on the CLI surface: a new flag changes these counts, and
    # the change that adds it says why
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    counts = {name: sum(not isinstance(a, argparse._HelpAction) for a in sub._actions)
              for name, sub in subs.choices.items()}
    assert counts == {"kernel": 5, "freq": 6, "resample": 9, "activate": 9,
                      "rotate": 4, "sample": 12, "analyze": 8}
    assert sum(counts.values()) == 53


def test_module_entry_point(tmp_path):
    out = tmp_path / "k.txt"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # this process's imports
    proc = subprocess.run(
        [sys.executable, "-m", "aliasfree", "kernel", "--beta", "1",
         "--normalized", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert kernel_from_text(out.read_text()) == design_kernel(
        FilterSpec(kaiser_beta=1.0, normalized=True))


def test_usage_error_message_on_stderr(capsys):
    code = main(["freq", "--beta", "1", "--N", "bogus", "--out", "x.csv"])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid" in captured.err or "error" in captured.err


def test_runtime_error_message_on_stderr(tmp_path, capsys):
    code = main(["resample", "--in", str(tmp_path / "nope.pgm"), "--mode", "af",
                 "--dir", "down", "--out", str(tmp_path / "x.pgm")])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["sample", "--config", "classical", "--shape", "8x8"],
     "argument --shape: expected a C x H x W shape with no empty axis, got (8, 8)"),
    (["sample", "--config", "rotated", "--phi", "inf"],
     "argument --phi: angle 'inf' is not finite"),
    (["rotate", "--in", "in.pgm", "--phi", "0_5"], "argument --phi: number '0_5' contains '_'"),
    (["rotate", "--in", "in.pgm", "--phi", "0.5 "],
     "argument --phi: number '0.5 ' must be ASCII with no surrounding whitespace"),
    (["kernel", "--cutoff", "nan"], "argument --cutoff: angle 'nan' is not finite"),
    (["sample", "--config", "classical", "--denoiser", "gaussian:mu=1,mu=-1,sigma0=0.1"],
     "argument --denoiser: denoiser argument 'mu' given twice"),
    (["sample", "--config", "classical", "--denoiser", "tanh"],
     "argument --denoiser: unknown denoiser kind 'tanh', "
     "expected one of ('zero', 'constant', 'gaussian')"),
], ids=("shape", "phi-inf", "phi-underscore", "phi-space", "cutoff-nan", "denoiser-twice",
         "denoiser-kind"))
def test_a_rejected_parse_prints_its_own_message(tmp_path, capsys, argv, message):
    # argparse shows an ArgumentTypeError's text; for a ValueError it would print
    # only "invalid parse_shape value: '8x8'"
    assert run(*argv, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def _sampler_must_not_run(*args, **kwargs):
    raise AssertionError("the sampler ran on a command it should have rejected")


def test_kernel_names_a_beta_past_the_largest_i0(tmp_path, capsys):
    code = run("kernel", "--beta", "800", "--out", str(tmp_path / "k.txt"))
    err = capsys.readouterr().err
    assert code == 1
    assert err == "aliasfree: error: bessel_i0(800.0) exceeds the largest double\n"
    assert list(tmp_path.iterdir()) == []


def test_sample_rejects_channel_count_before_sampling(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("aliasfree.cli.sample_rotated", _sampler_must_not_run)
    code = run("sample", "--config", "rotated", "--T", "5", "--shape", "2x8x8",
               "--denoiser", "zero", "--out", str(tmp_path / "s"))
    assert code == 1
    assert "channels" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sample_names_a_bad_trajectory_count(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("aliasfree.cli.sample_rotated", _sampler_must_not_run)
    code = run("sample", "--config", "classical", "--n", "0", "--out", str(tmp_path / "s"))
    assert code == 1
    assert "--n must be >= 1, got 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, code", [
    # 2: argparse rejects the command line before any command runs
    (["sample", "--config", "classical", "--shape", "2x8"], 2),
    (["analyze", "--report", "alias", "--N", "x"], 2),
    # 1: the command rejects a value or an input while running
    (["sample", "--config", "classical", "--T", "0"], 1),
    (["sample", "--config", "classical", "--n", "0"], 1),
    (["sample", "--config", "rotated", "--shape", "2x8x8"], 1),
    (["analyze", "--report", "alias", "--N", "33"], 1),
    # 2: a non-finite denoiser value, and --seed anywhere but sample
    (["sample", "--config", "classical", "--denoiser", "constant:v=nan"], 2),
    (["kernel", "--seed", "1"], 2),
    (["freq", "--seed", "1"], 2),
    (["resample", "--in", "in.pgm", "--mode", "af", "--dir", "down", "--seed", "1"], 2),
    (["activate", "--in", "in.pgm", "--act", "relu", "--seed", "1"], 2),
    (["rotate", "--in", "in.pgm", "--phi", "0.1", "--seed", "1"], 2),
    (["analyze", "--report", "alias", "--seed", "1"], 2),
    # 2: a non-finite angle
    (["rotate", "--in", "in.pgm", "--phi", "nan"], 2),
    (["analyze", "--report", "equivariance", "--phi", "inf"], 2),
    (["kernel", "--cutoff", "nan"], 2),
    # 1: a nonzero angle for the classical sampler
    (["sample", "--config", "classical", "--phi", "1"], 1),
    # 1: a non-finite Kaiser beta
    (["kernel", "--beta", "inf"], 1),
    # 2: a denoiser value float() would read with its underscore dropped
    (["sample", "--config", "classical", "--denoiser", "constant:v=1_0"], 2),
    # 2: any other number written with an underscore
    (["sample", "--config", "classical", "--T", "1_0"], 2),
    (["sample", "--config", "classical", "--seed", "1_0"], 2),
    (["kernel", "--size", "0_3"], 2),
    (["kernel", "--beta", "1_0"], 2),
    (["rotate", "--in", "in.pgm", "--phi", "0_5"], 2),
    (["sample", "--config", "classical", "--shape", "1x1_6x16"], 2),
    # 2: a denoiser argument given twice
    (["sample", "--config", "classical", "--denoiser", "gaussian:mu=1,mu=-1,sigma0=0.1"], 2),
    # 2: a number in non-ASCII digits or with surrounding whitespace, which
    # float() and int() read and nothing writes
    (["kernel", "--beta", "\u0661", "--normalized"], 2),
    (["kernel", "--beta", " 1 "], 2),
    (["kernel", "--size", "\uff13"], 2),
    (["rotate", "--in", "in.pgm", "--phi", " half-pi"], 2),
    (["sample", "--config", "classical", "--shape", "1x 8x8"], 2),
    (["sample", "--config", "classical", "--denoiser", "constant:v=\u0661"], 2),
])
def test_exit_code_rule(tmp_path, monkeypatch, argv, code):
    monkeypatch.setattr("aliasfree.cli.sample_rotated", _sampler_must_not_run)
    assert run(*argv, "--out", str(tmp_path / "out")) == code
    assert list(tmp_path.iterdir()) == []


def _counted_build(monkeypatch):
    """Count parser builds: main's cached parser comes from cli.build_parser."""
    built = []

    def counted():
        built.append(1)
        return build_parser()
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    return built


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    built = _counted_build(monkeypatch)
    for i in range(5):
        assert run("kernel", "--size", str(2 * i + 1), "--out", str(tmp_path / f"k{i}.txt")) == 0
    assert run("kernel", "--size", "x", "--out", str(tmp_path / "bad.txt")) == 2
    assert run("--help") == 0
    assert built == [1]


@pytest.mark.parametrize("argv", [
    [],
    ["kernel"],
    ["kernel", "--seed", "1", "--out", "k.txt"],
    ["sample", "--config", "classical", "--shape", "8x8", "--out", "s"],
    ["sample", "--config", "classical", "--denoiser", "gaussian:mu=1,mu=-1,sigma0=0.1",
     "--out", "s"],
    ["analyze", "--report", "equivariance", "--phi", "inf", "--out", "a.csv"],
], ids=["no-command", "no-out", "seed", "shape", "denoiser-twice", "phi-inf"])
def test_a_rejected_command_line_reads_the_same_after_a_good_one(
        tmp_path, monkeypatch, capsys, argv):
    # the parser is kept for the process, so no parse may leave state in it
    built = _counted_build(monkeypatch)
    monkeypatch.chdir(tmp_path)
    seen = []
    for good in (["kernel", "--beta", "2", "--normalized", "--size", "5", "--out", "k.txt"],
                 ["sample", "--config", "classical", "--T", "3", "--denoiser", "zero",
                  "--n", "2", "--seed", "4", "--out", "s"],
                 ["analyze", "--report", "alias", "--count", "1", "--N", "16",
                  "--out", "a.csv"]):
        seen.append((run(*argv), capsys.readouterr()))
        assert run(*good) == 0
    seen.append((run(*argv), capsys.readouterr()))
    assert seen[0][0] == 2 and seen[0][1].err.startswith("usage: aliasfree")
    assert seen == [seen[0]] * 4
    assert built == [1]


def test_the_default_denoiser_is_read_only_and_gives_the_same_bytes_each_call(
        tmp_path, monkeypatch):
    built = _counted_build(monkeypatch)
    argv = ["sample", "--config", "classical", "--T", "5", "--n", "2", "--seed", "3"]
    blobs = []
    for call in range(2):
        assert run(*argv, "--out", str(tmp_path / f"s{call}")) == 0
        blobs.append([(tmp_path / f"s{call}-{i:03d}.pgm").read_bytes() for i in range(2)])
    assert blobs[0] == blobs[1]
    assert built == [1]
    _, values = cli._parser().parse_args([*argv, "--out", "s"]).denoiser
    assert values == {"mu": 0.0, "sigma0": 1.0}
    with pytest.raises(TypeError):
        values["mu"] = 2.0
