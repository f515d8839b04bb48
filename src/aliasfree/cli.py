"""Command line front end.

Every subcommand takes --out and writes only to the path(s) derived from
it, so identical invocations produce byte identical files. Each command
returns its outputs as {path: bytes}, and main writes them only once the
command has succeeded, so a command that fails writes no file. Only sample
takes --seed (default 0); analyze always measures its built-in seed-2024
corpus. Angles are finite; a nonzero sample --phi needs --config rotated.
Exit status is 0 on success, 2 when argparse rejects the command line
(--seed on any other subcommand, a non-finite angle, a non-finite or
repeated --denoiser argument, a number with an underscore such as --T 1_0,
in non-ASCII digits or with surrounding whitespace, a --denoiser name with
surrounding whitespace),
and 1 when a command rejects a value or an input while running (--T 0, a
2-channel sample shape, classical sampling with --phi 1, an unreadable file).
A filter design_kernel rejects (--beta 800) exits 1 before any input is read.
main builds its parser once per process; band_limited_corpus keeps its most
recent corpus, read-only and one at a time, and hands each analyze a copy.
resample, activate and rotate decode one channel plane of the input at a
time and run their operator's band form on it, the form the whole-image call
assembles: every check first, then one band of rows (at most 2^14 output
elements and at least 16r rows, `resample._spans`) at a time, each
quantized in place straight into the payload, one bytearray with the header:
a command holds one input plane of floats and one band, never an output plane.
Every operator treats each channel alone, so the bytes are the whole image's.

Examples:

  aliasfree kernel --beta 1 --normalized --out kernel.txt
  aliasfree freq --beta 0 --normalized --N 64 --out response.csv
  aliasfree resample --in img.pgm --mode af --dir down --beta 1 --normalized --out half.pgm
  aliasfree activate --in img.pgm --act relu --wrapped --beta 1 --normalized --out act.pgm
  aliasfree rotate --in img.pgm --phi 0.4487989505 --fill replicate --out rot.pgm
  aliasfree sample --config classical --T 50 --shape 1x8x8 \\
      --denoiser gaussian:mu=0.3,sigma0=0.05 --n 4 --seed 7 --out run/sample
  aliasfree analyze --report equivariance --pipeline D --beta 1 --normalized \\
      --phi 0.448798950512827 --out equiv.csv

sample writes one raster per trajectory ({out}-000.pgm, {out}-001.pgm,
and so on); trajectory i draws from its own stream seeded with seed XOR i.
"""

import argparse
import functools
import math
import sys
import types

import numpy as np

from .activation import ACTIVATIONS
from .diffusion import (AnalyticGaussianDenoiser, ConstantDenoiser,
                        GaussianDataSpec, ZeroDenoiser, linear_schedule,
                        sample_rotated, SIGMA_MODES)
from .filter_design import HALF_PI, FilterSpec, design_kernel, kernel_to_text
from .image_io import _encoded, _pixels, byte_to_float, raster_format, write_raster
from .resample import PADDING_MODES, _image_shape
from .rng import Rng, _choice, _number, _whole
from .rotation import FILL_MODES, _rotator
from .spectral import (PIPELINE_KINDS, PipelineConfig, alias_energy,
                       band_limited_corpus, config_name, equivariance_error,
                       freq_response, pipeline_stages)


_int, _float = _number(int), _number(float)


def _argument(parse):
    """`parse` as an argparse type, which prints the text of its ValueError (exit 2)."""
    def read(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


def parse_angle(text: str) -> float:
    """Finite float radians, with the convenience token half-pi."""
    angle = HALF_PI if text == "half-pi" else _float(text)
    if not math.isfinite(angle):
        raise ValueError(f"angle {text!r} is not finite")
    return angle


def parse_shape(text: str) -> tuple:
    """CxHxW text (x or X) as the sides `_image_shape` accepts."""
    return _image_shape(tuple(map(_int, text.lower().split("x"))))


# each --denoiser kind: the argument names it takes, and its builder from them
_DENOISERS = {
    "zero": (set(), lambda sched, shape: ZeroDenoiser()),
    "constant": ({"v"}, lambda sched, shape, v: ConstantDenoiser(v)),
    "gaussian": ({"mu", "sigma0"}, lambda sched, shape, mu, sigma0: AnalyticGaussianDenoiser(
        GaussianDataSpec(mean=mu, stddev=sigma0, shape=shape), sched)),
}


def parse_denoiser_spec(text: str):
    """Parse --denoiser values: zero, constant:v=V, gaussian:mu=M,sigma0=S."""
    kind, _, arg_text = str(text).partition(":")
    args = {}
    if arg_text:
        for item in arg_text.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise ValueError(f"bad denoiser argument {item!r}")
            number = _float(value)
            if not math.isfinite(number):
                raise ValueError(f"denoiser argument {item!r} is not finite")
            if key in args:
                raise ValueError(f"denoiser argument {key!r} given twice")
            args[key] = number
    expected, _ = _DENOISERS[_choice(kind, _DENOISERS, "denoiser kind")]
    if set(args) != expected:
        raise ValueError(
            f"denoiser {kind!r} takes arguments {sorted(expected)}, got {sorted(args)}")
    return kind, args


def _read_pixels(path: str) -> np.ndarray:
    with open(path, "rb") as handle:
        return _pixels(handle.read())


def _csv(rows) -> bytes:
    text = "\n".join(",".join(str(cell) for cell in row) for row in rows) + "\n"
    return text.encode("ascii")


def _filter_spec(args) -> FilterSpec:
    return FilterSpec(kaiser_beta=args.beta, normalized=args.normalized,
                      cutoff=args.cutoff, kernel_size=args.size)


def cmd_kernel(args) -> dict:
    kernel = design_kernel(_filter_spec(args))
    return {args.out: kernel_to_text(kernel).encode("ascii")}


def cmd_freq(args) -> dict:
    kernel = design_kernel(_filter_spec(args))
    mag = freq_response(kernel, args.N)
    ks = np.arange(args.N) - args.N // 2
    rows = zip(np.repeat(ks, args.N).tolist(), np.tile(ks, args.N).tolist(),
               map(repr, mag.ravel().tolist()))
    return {args.out: _csv([("k1", "k2", "magnitude"), *rows])}


def _raster(pixels: np.ndarray, bands) -> bytearray:
    """The raster of an operator's output on the H x W x C bytes `pixels`, from its band
    form `bands`: each channel plane is decoded, checked and run in turn, and its bands
    of rows are encoded straight into the payload before the next plane is decoded.
    Every operator treats each channel alone, so the bytes are those of
    write_raster(op(read_raster(file)))."""
    channels = pixels.shape[2]
    return _encoded(channels, (bands(byte_to_float(pixels[None, :, :, c]))
                               for c in range(channels)))


def cmd_resample(args) -> dict:
    config = PipelineConfig("B", _filter_spec(args)) if args.mode == "af" else PipelineConfig("A")
    down, _, up = pipeline_stages(config, padding=args.padding)
    stage = down if args.dir == "down" else up
    return {args.out: _raster(_read_pixels(args.input), stage.bands)}


def cmd_activate(args) -> dict:
    config = PipelineConfig("C", _filter_spec(args)) if args.wrapped else PipelineConfig("A")
    _, act, _ = pipeline_stages(config, args.act, args.padding)
    return {args.out: _raster(_read_pixels(args.input), act.bands)}


def cmd_rotate(args) -> dict:
    pixels = _read_pixels(args.input)
    H, W, C = pixels.shape
    # one turn for every plane: its checks and plans depend only on the shape, phi and fill
    return {args.out: _raster(pixels, _rotator((C, H, W), args.phi, args.fill).bands)}


def cmd_sample(args) -> dict:
    if args.config == "classical" and args.phi != 0.0:
        raise ValueError(f"--phi applies only to --config rotated, got {args.phi!r}")
    _whole(args.n, "--n", 1)
    _, ext = raster_format(args.shape[0])
    sched = linear_schedule(args.T, args.beta_start, args.beta_end, args.sigma_mode)
    kind, values = args.denoiser
    denoiser = _DENOISERS[kind][1](sched, args.shape, **values)
    rng = Rng([args.seed ^ i for i in range(args.n)])
    xs = sample_rotated(denoiser, sched, args.shape, args.phi, rng, args.fill)
    return {f"{args.out}-{i:03d}.{ext}": write_raster(x) for i, x in enumerate(xs)}


def cmd_analyze(args) -> dict:
    spec = FilterSpec(kaiser_beta=args.beta, normalized=args.normalized)
    if args.report == "alias":
        # naive stages from pipeline A, alias-free ones from D
        stages = [pipeline_stages(PipelineConfig("A")), pipeline_stages(PipelineConfig("D", spec))]
        rows = [("image", "naive_roundtrip", "af_roundtrip", "relu_alias", "wrapped_relu_alias")]
        for i, img in enumerate(band_limited_corpus(args.count, args.N)):
            scale = float(np.linalg.norm(img))
            trips = [float(np.linalg.norm(up(down(img)) - img)) / scale for down, _, up in stages]
            alias = [alias_energy(act(img)) for _, act, _ in stages]
            rows.append((i, *map(repr, trips + alias)))
    else:
        config = PipelineConfig(args.pipeline, None if args.pipeline == "A" else spec)
        errors = equivariance_error(config, band_limited_corpus(args.count, args.N), args.phi)
        rows = [("image", "config", "phi", "error")] + [
            (i, config_name(config), repr(args.phi), repr(err)) for i, err in enumerate(errors)]
    return {args.out: _csv(rows)}


def _add_filter_flags(parser, with_size=True):
    parser.add_argument("--beta", type=_float, default=1.0,
                        help="Kaiser window beta (default 1)")
    parser.add_argument("--normalized", action="store_true",
                        help="rescale kernel taps to unit sum")
    if with_size:
        parser.add_argument("--size", type=_int, default=3,
                            help="odd kernel size (default 3)")
        parser.add_argument("--cutoff", type=_argument(parse_angle), default=HALF_PI,
                            help="angular cutoff in radians, or half-pi (default)")


def _add_padding_flag(parser):
    parser.add_argument("--padding", choices=PADDING_MODES, default="reflect",
                        help="border rule for filtering (default reflect)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aliasfree",
        description="Alias-free resampling and diffusion sampling tools.")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--out", required=True,
                         help="output path, or path prefix for sample")
        sub.set_defaults(handler=handler)
        return sub

    p = command("kernel", cmd_kernel, "write kernel taps as text")
    _add_filter_flags(p)

    p = command("freq", cmd_freq, "write a kernel magnitude response as CSV")
    _add_filter_flags(p)
    p.add_argument("--N", type=_int, default=64, help="DFT grid size (default 64)")

    p = command("resample", cmd_resample, "2x resample a raster image")
    p.add_argument("--in", dest="input", required=True, help="input PGM/PPM path")
    p.add_argument("--mode", choices=("naive", "af"), required=True)
    p.add_argument("--dir", choices=("up", "down"), required=True)
    _add_filter_flags(p)
    _add_padding_flag(p)

    p = command("activate", cmd_activate, "apply a nonlinearity to a raster image")
    p.add_argument("--in", dest="input", required=True, help="input PGM/PPM path")
    p.add_argument("--act", choices=ACTIVATIONS, required=True)
    p.add_argument("--wrapped", action="store_true",
                   help="evaluate at doubled resolution between alias-free resamplers")
    _add_filter_flags(p)
    _add_padding_flag(p)

    p = command("rotate", cmd_rotate, "rotate a raster image")
    p.add_argument("--in", dest="input", required=True, help="input PGM/PPM path")
    p.add_argument("--phi", type=_argument(parse_angle), required=True,
                   help="angle in radians, counterclockwise positive")
    p.add_argument("--fill", choices=FILL_MODES, default="replicate")

    p = command("sample", cmd_sample, "draw reverse-diffusion samples as rasters")
    p.add_argument("--config", choices=("classical", "rotated"), required=True)
    p.add_argument("--T", type=_int, default=1000, help="number of steps (default 1000)")
    p.add_argument("--beta-start", type=_float, default=1e-4)
    p.add_argument("--beta-end", type=_float, default=0.02)
    p.add_argument("--sigma-mode", choices=SIGMA_MODES, default="beta")
    p.add_argument("--shape", type=_argument(parse_shape), default=(1, 8, 8),
                   help="CxHxW sample shape (default 1x8x8)")
    p.add_argument("--denoiser", type=_argument(parse_denoiser_spec),
                   default=("gaussian", types.MappingProxyType({"mu": 0.0, "sigma0": 1.0})),
                   help="zero | constant:v=V | gaussian:mu=M,sigma0=S "
                        "(default gaussian:mu=0,sigma0=1)")
    p.add_argument("--n", type=_int, default=1, help="number of trajectories")
    p.add_argument("--seed", type=_int, default=0,
                   help="trajectory i uses the stream seeded seed XOR i (default 0)")
    p.add_argument("--phi", type=_argument(parse_angle), default=0.0,
                   help="total rotation; only --config rotated takes a nonzero angle")
    p.add_argument("--fill", choices=FILL_MODES, default="replicate")

    p = command("analyze", cmd_analyze, "write corpus measurements as CSV")
    p.add_argument("--report", choices=("alias", "equivariance"), required=True)
    p.add_argument("--pipeline", choices=PIPELINE_KINDS, default="D",
                   help="pipeline kind for the equivariance report")
    _add_filter_flags(p, with_size=False)
    p.add_argument("--phi", type=_argument(parse_angle), default=math.pi / 4,
                   help="test rotation for the equivariance report")
    p.add_argument("--count", type=_int, default=8, help="corpus image count")
    p.add_argument("--N", type=_int, default=64, help="corpus image size")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process on its first call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        for path, payload in args.handler(args).items():
            with open(path, "wb") as handle:
                handle.write(payload)
    except (ValueError, OSError) as exc:
        print(f"aliasfree: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
