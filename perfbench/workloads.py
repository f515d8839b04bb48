"""The four closed-loop workloads and the checks on their outputs.

One client runs each workload: the next operation starts when the previous
one has returned and its output has been checked, as for a user waiting on
a batch. A workload is a cycle of operations repeated until the run time is
used up; every cycle does the same work, so per-cycle counts are exact. The
seed only chooses inputs (sampler and loss seeds, raster contents, the
order of commands within a cycle); the package receives only those inputs.

Why these four:
  ddpm_8       classical DDPM sampling at 1x8x8 plus the training loss:
               Python and numpy call overhead in rng and diffusion.
  rotsample_32 the same sampler loop with a bilinear rotation per step on a
               32x32 state: rotation dominates.
  spectral_64  the analyze reports over the built-in 64x64 corpus:
               resample, activation, spectral and rotation on small arrays.
  raster_cli   many small CLI commands on 256x256 P5/P6 files: image_io
               and cli parsing, and resampling arithmetic on larger arrays.
"""

import hashlib
import math
import os
import random
import shutil

import numpy as np

import aliasfree.cli
import aliasfree.diffusion
import aliasfree.rng

DENOISER = "gaussian:mu=0.3,sigma0=0.05"
DATA_MEAN, DATA_STDDEV = 0.3, 0.05
PHI = "0.448798950512827"
FILTER = ["--beta", "1", "--normalized"]
# A correct sampler leaves |z| above 3 at about 0.5 % of seeds; the gate
# runs at many seeds, so it sits where chance failures are below 1e-5.
Z_MAX = 4.5


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


class Op:
    """One closed-loop operation.

    `run` is the timed call and returns the CLI exit code or a value;
    `outputs` lists files the call writes, removed before and read after
    it; `check` validates the output bytes and raises CheckFailed.
    """

    def __init__(self, kind, key, run, items, outputs=(), check=None):
        self.kind = kind
        self.key = key
        self.run = run
        self.items = items
        self.outputs = list(outputs)
        self.check = check


class Workload:
    """Inputs built once, then cycles of operations over them."""

    name = ""
    rates = {}            # printed rate metric -> (op kinds, item unit)
    headline = ""         # the rate reported as throughput_per_s
    latency_unit = "cycle"  # "cycle" or "op": what one latency sample times

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rnd = random.Random(seed)

    def path(self, name):
        return os.path.join(self.workdir, name)

    def cycle_ops(self, cycle):
        raise NotImplementedError

    def pinned_ops(self, seed):
        """Cycle 0 of this workload at the seed digests.json was recorded at.

        Its inputs are built in a sub-directory, apart from this run's.
        """
        return make(self.name, seed, self.path("pinned")).cycle_ops(0)

    def final_failures(self, outputs_by_key):
        """Pooled, seed-independent property checks over distinct outputs.

        Returns the keys whose operations failed them.
        """
        return []


def cli_op(kind, key, argv, outputs, items=1, check=None):
    return Op(kind, key, lambda: aliasfree.cli.main(list(argv)), items, outputs, check)


# -- output checks -----------------------------------------------------------


def parse_netpbm(data):
    """Return (magic, width, height, pixel bytes) of a binary PGM/PPM."""
    fields, pos = [], 0
    while len(fields) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise CheckFailed("truncated netpbm header")
        fields.append(data[start:pos])
    magic, width, height, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
    channels = {b"P5": 1, b"P6": 3}.get(magic)
    if channels is None or maxval != 255:
        raise CheckFailed(f"unexpected netpbm header {fields}")
    pixels = data[pos + 1:]
    if len(pixels) != channels * width * height:
        raise CheckFailed(f"payload of {len(pixels)} bytes for {width}x{height}x{channels}")
    return magic, width, height, pixels


def raster_check(magic, width, height):
    def check(blobs):
        for blob in blobs:
            got = parse_netpbm(blob)[:3]
            if got != (magic, width, height):
                raise CheckFailed(f"raster is {got}, expected {(magic, width, height)}")
    return check


def csv_check(columns, rows, text_columns=()):
    def check(blobs):
        lines = blobs[0].decode("ascii").splitlines()
        if len(lines) != rows + 1:
            raise CheckFailed(f"{len(lines)} lines, expected {rows + 1}")
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != columns:
                raise CheckFailed(f"row {line!r} has {len(cells)} cells, expected {columns}")
            for i, cell in enumerate(cells):
                if i not in text_columns and not math.isfinite(float(cell)):
                    raise CheckFailed(f"non-finite value in row {line!r}")
    return check


def kernel_check(size):
    def check(blobs):
        rows = [line.split() for line in blobs[0].decode("ascii").splitlines()]
        if len(rows) != size or any(len(r) != size for r in rows):
            raise CheckFailed(f"kernel text is not {size}x{size}")
        if not all(math.isfinite(float(v)) for r in rows for v in r):
            raise CheckFailed("non-finite kernel tap")
    return check


def moment_z(values, mean, stddev):
    """z-scores of the pooled mean and pooled variance against N(mean, stddev^2)."""
    x = np.asarray(values, dtype=float)
    n = x.size
    mean_z = abs(x.mean() - mean) / (x.std(ddof=1) / math.sqrt(n))
    centered = x - x.mean()
    m2 = (centered ** 2).mean()
    m4 = (centered ** 4).mean()
    se_var = math.sqrt((m4 - m2 ** 2 * (n - 3) / (n - 1)) / n)
    var_z = abs(x.var(ddof=1) - stddev ** 2) / se_var
    return float(mean_z), float(var_z)


def digest(blobs):
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


# -- workloads -----------------------------------------------------------------


class SamplingWorkload(Workload):
    """cli sample --n K over a deck of stream seeds drawn from the workload seed."""

    args = []
    n = 1
    side = 8
    deck = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.sample_seeds = [self.rnd.getrandbits(31) for _ in range(self.deck)]

    def sample_op(self, cycle):
        # Cycles 2k and 2k + 1 share an input, so a traced run checks each
        # traced output against the untraced output of the same input.
        stream = self.sample_seeds[(cycle // 2) % self.deck]
        prefix = self.path(f"sample-{stream}")
        outputs = [f"{prefix}-{i:03d}.pgm" for i in range(self.n)]
        argv = self.args + ["--n", str(self.n), "--seed", str(stream), "--out", prefix]
        return cli_op("sample", f"s{self.seed}:sample:{stream}", argv, outputs, self.n,
                      raster_check(b"P5", self.side, self.side))

    def cycle_ops(self, cycle):
        return [self.sample_op(cycle)]


class Ddpm8(SamplingWorkload):
    name = "ddpm_8"
    args = ["sample", "--config", "classical", "--T", "1000", "--shape", "1x8x8",
            "--denoiser", DENOISER]
    n = 8
    draws = 1000
    rates = {"trajectories_per_s": (("sample",), "trajectories"),
             "loss_draws_per_s": (("loss",), "draws")}
    headline = "trajectories_per_s"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.loss_seeds = [self.rnd.getrandbits(31) for _ in range(self.deck)]
        self.data = aliasfree.diffusion.GaussianDataSpec(
            mean=DATA_MEAN, stddev=DATA_STDDEV, shape=(1, 8, 8))
        self.sched = aliasfree.diffusion.linear_schedule(1000)
        self.denoiser = aliasfree.diffusion.AnalyticGaussianDenoiser(self.data, self.sched)

    def loss_op(self, cycle):
        stream = self.loss_seeds[(cycle // 2) % self.deck]

        def run():
            return aliasfree.diffusion.training_loss(
                self.denoiser, self.data, self.sched, self.draws, aliasfree.rng.Rng(stream))

        def check(blobs):
            if not math.isfinite(float(blobs[0])):
                raise CheckFailed(f"training loss is {blobs[0]!r}")
        return Op("loss", f"s{self.seed}:loss:{stream}", run, self.draws, check=check)

    def cycle_ops(self, cycle):
        return [self.sample_op(cycle), self.loss_op(cycle)]

    def final_failures(self, outputs_by_key):
        keys = [k for k in outputs_by_key if ":sample:" in k]
        if not keys:
            return []
        values = [np.frombuffer(parse_netpbm(blob)[3], np.uint8) / 127.5 - 1.0
                  for k in keys for blob in outputs_by_key[k]]
        mean_z, var_z = moment_z(np.concatenate(values), DATA_MEAN, DATA_STDDEV)
        self.moments = (mean_z, var_z, sum(v.size for v in values))
        return keys if max(mean_z, var_z) > Z_MAX else []


class Rotsample32(SamplingWorkload):
    name = "rotsample_32"
    args = ["sample", "--config", "rotated", "--T", "1000", "--shape", "1x32x32",
            "--phi", PHI, "--fill", "replicate", "--denoiser", DENOISER]
    n = 2
    side = 32
    rates = {"trajectories_per_s": (("sample",), "trajectories")}
    headline = "trajectories_per_s"


class Spectral64(Workload):
    """One cycle is one pass of all 13 analyze reports over the default corpus."""

    name = "spectral_64"
    images = 8
    rates = {"images_per_s": (("analyze",), "images")}
    headline = "images_per_s"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        reports = [("alias", [])]
        for kind in "ABCD":
            for phi in (repr(math.pi / 7), repr(math.pi / 4), "half-pi"):
                reports.append((f"equivariance-{kind}-{phi}",
                                ["--pipeline", kind, "--phi", phi]))
        self.rnd.shuffle(reports)
        self.reports = reports

    def cycle_ops(self, cycle):
        ops = []
        for i, (label, extra) in enumerate(self.reports):
            report = "alias" if label == "alias" else "equivariance"
            out = self.path(f"{label}.csv")
            argv = ["analyze", "--report", report, *extra, *FILTER, "--out", out]
            check = (csv_check(5, self.images) if report == "alias"
                     else csv_check(4, self.images, text_columns=(1,)))
            # the images count once the last report of the pass has run
            items = self.images if i == len(self.reports) - 1 else 0
            ops.append(cli_op("analyze", f"analyze:{label}", argv, [out], items, check))
        return ops


class RasterCli(Workload):
    """A fixed mix of 16 CLI commands over one P5 and one P6 256x256 file."""

    name = "raster_cli"
    side = 256
    rates = {"commands_per_s": (None, "commands")}
    headline = "commands_per_s"
    latency_unit = "op"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        pixels = np.random.default_rng(seed).integers(0, 256, (4, self.side, self.side),
                                                      dtype=np.uint8)
        header = f"{self.side} {self.side}\n255\n".encode("ascii")
        inputs = {"P5": b"P5\n" + header + pixels[0].tobytes(),
                  "P6": b"P6\n" + header + np.moveaxis(pixels[1:], 0, 2).tobytes()}
        commands = []
        for fmt, blob in inputs.items():
            src = self.path(f"in.{fmt.lower()}")
            with open(src, "wb") as handle:
                handle.write(blob)
            magic = fmt.encode("ascii")
            for mode in ("af", "naive"):
                for direction, side in (("down", self.side // 2), ("up", 2 * self.side)):
                    commands.append((f"s{seed}:resample-{mode}-{direction}-{fmt}",
                                     ["resample", "--in", src, "--mode", mode,
                                      "--dir", direction, *FILTER], magic, side))
            for act in ("relu", "gelu"):
                commands.append((f"s{seed}:activate-{act}-{fmt}",
                                 ["activate", "--in", src, "--act", act, "--wrapped",
                                  *FILTER], magic, self.side))
            commands.append((f"s{seed}:rotate-{fmt}",
                             ["rotate", "--in", src, "--phi", PHI], magic, self.side))
        commands.append(("kernel-7", ["kernel", "--size", "7", *FILTER], None, 7))
        commands.append(("freq-64", ["freq", "--N", "64", *FILTER], None, 64))
        self.rnd.shuffle(commands)
        self.commands = commands

    def command_op(self, key, argv, magic, side):
        out = self.path(key.split(":")[-1] + (".txt" if magic is None else ".img"))
        if key.startswith("kernel"):
            check = kernel_check(side)
        elif key.startswith("freq"):
            check = csv_check(3, side * side)
        else:
            check = raster_check(magic, side, side)
        return cli_op(argv[0], key, [*argv, "--out", out], [out], 1, check)

    def cycle_ops(self, cycle):
        return [self.command_op(*c) for c in self.commands]


WORKLOADS = {w.name: w for w in (Ddpm8, Rotsample32, Spectral64, RasterCli)}


def make(name, seed, workdir):
    """Build a workload's inputs in a fresh `workdir` (its set-up)."""
    if os.path.exists(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    return WORKLOADS[name](seed, workdir)
