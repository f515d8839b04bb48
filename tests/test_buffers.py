"""The raster path writes only into buffers it made itself.

Encoding quantizes its one clamped copy in place, the wrapped
nonlinearity runs in place on its own upsampled array, the bilinear
blends multiply and add into the arrays their gathers return, and the
raster commands hold one input plane of floats and one band of output
rows at a time, which they quantize in place into the payload. These
tests hold that to three things: a caller's array is never written, the
traced peak stays at the buffers the path needs, and the bytes are those
of the out-of-place formulas, of the whole-image calls, of the oracles,
and of pins recorded before the buffers were reused.
"""

import hashlib
import math
import platform
import weakref

import numpy as np
import pytest

from aliasfree import (FilterSpec, activation, apply_pointwise, byte_to_float, design_kernel,
                       downsample2x_af, downsample2x_naive, float_to_byte, gelu, image_io,
                       read_raster, relu, resample, rotate, upsample2x_af,
                       upsample2x_naive, wrapped_activation, write_raster)

from aliasfree.cli import main

from _oracles import bilinear_gather_2d
from test_resample import traced_peak

K1N = design_kernel(FilterSpec(kaiser_beta=1.0, normalized=True))
K9 = design_kernel(FilterSpec(kaiser_beta=4.0, normalized=True, kernel_size=9))  # radius 4
K1 = design_kernel(FilterSpec(kaiser_beta=1.0, normalized=True, kernel_size=1))  # radius 0
PHI = 0.4487989505


def edge_input(noncontiguous):
    """3 x 12 x 10 float64 on [-1.3, 1.3] with signed zeros, the clamp edges and
    a tiny value, as a C-contiguous array or a strided view of a larger one."""
    big = np.random.default_rng(7).uniform(-1.3, 1.3, (3, 24, 20))
    x = big[:, ::2, 1::2] if noncontiguous else np.ascontiguousarray(big[:, ::2, 1::2])
    x[0, 0, :6] = (-0.0, 0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), 5e-324)
    return x


CALLS = {
    "write_raster": write_raster,
    "float_to_byte": float_to_byte,
    "upsample2x_af": lambda x: upsample2x_af(x, K1N),
    "upsample2x_naive": upsample2x_naive,
    "downsample2x_af": lambda x: downsample2x_af(x, K1N),
    "downsample2x_naive": downsample2x_naive,
    "wrapped relu": lambda x: wrapped_activation(x, "relu", K1N),
    "wrapped gelu": lambda x: wrapped_activation(x, "gelu", K1N, "zero"),
    "apply_pointwise gelu": lambda x: apply_pointwise(x, "gelu"),
    "relu": relu,
    "gelu": gelu,
    "rotate replicate": lambda x: rotate(x, PHI),
    "rotate zero": lambda x: rotate(x, PHI, "zero"),
    "rotate by zero": lambda x: rotate(x, 0.0),
}


@pytest.mark.parametrize("noncontiguous", (False, True), ids=("contiguous", "strided"))
@pytest.mark.parametrize("name", CALLS)
def test_a_float64_input_is_never_written(name, noncontiguous):
    x = edge_input(noncontiguous)
    before = x.tobytes()
    out = CALLS[name](x)
    assert x.tobytes() == before
    assert isinstance(out, bytes) or not np.shares_memory(out, x)


def test_peak_of_write_raster_is_one_float_buffer():
    # one plane's clamped copy plus the byte planes and payload: about 0.46x the
    # image (1.13x with the whole image's clamped copy), where clip, the quantize
    # chain, astype and a contiguous copy took 3.0x
    x = np.random.default_rng(1).uniform(-1.2, 1.2, (3, 128, 128))
    assert traced_peak(write_raster, x) < 1.5 * x.nbytes


def test_peak_of_the_max_pool_is_below_its_input():
    # the quarter-size output and numpy's fixed buffers for row-strided operands:
    # about 0.59x; a half-size pairwise-maximum temporary reads 0.84x to 1.09x
    x = np.random.default_rng(3).uniform(-1.2, 1.2, (3, 128, 128))
    assert traced_peak(downsample2x_naive, x) < 1.0 * x.nbytes


def _raster_file(path, shape, seed=9):
    """Write a P5 (C = 1) or P6 (C = 3) file of random C x H x W samples to path."""
    C, H, W = shape
    pixels = np.random.default_rng(seed).integers(0, 256, (H, W, C), dtype=np.uint8)
    path.write_bytes(f"{'P5' if C == 1 else 'P6'}\n{W} {H}\n255\n".encode("ascii")
                     + pixels.tobytes())
    return path


FILTER_FLAGS = ["--beta", "1", "--normalized"]


@pytest.mark.parametrize("argv", (["resample", "--mode", "naive", "--dir", "up"],
                                  ["activate", "--act", "relu", "--wrapped"],
                                  ["resample", "--mode", "af", "--dir", "up"],
                                  ["resample", "--mode", "af", "--dir", "down"],
                                  ["activate", "--act", "gelu"],
                                  ["rotate", "--phi", "0.3"]),
                         ids=("naive-up", "wrapped-relu", "af-up", "af-down", "gelu", "rotate"))
def test_a_ppm_command_holds_one_channel_plane_of_floats(tmp_path, argv):
    # a 3 x 256 x 256 file read, one input plane decoded at a time and each band of
    # output rows encoded into the payload: about 0.7x-1.6x the input's float bytes,
    # where whole output planes took 1.6x-5.8x and the whole image at once 11.2x
    src = _raster_file(tmp_path / "in.ppm", (3, 256, 256))
    flags = [] if argv[0] == "rotate" else FILTER_FLAGS
    command = [*argv, *flags, "--in", str(src), "--out", str(tmp_path / "out.ppm")]
    assert main(command) == 0  # the parser is built outside the traced call
    assert traced_peak(main, command) < 2.0 * 3 * 256 * 256 * 8


# each raster command, the whole-image call whose raster its bytes must be, given the
# kernel and the padding (the fill for rotate), and its output rows per input row
RASTER_COMMANDS = {
    "af down": (["resample", "--mode", "af", "--dir", "down"],
                lambda img, kernel, padding: downsample2x_af(img, kernel, padding), 0.5),
    "af up": (["resample", "--mode", "af", "--dir", "up"],
              lambda img, kernel, padding: upsample2x_af(img, kernel, padding), 2),
    "naive down": (["resample", "--mode", "naive", "--dir", "down"],
                   lambda img, kernel, padding: downsample2x_naive(img), 0.5),
    "naive up": (["resample", "--mode", "naive", "--dir", "up"],
                 lambda img, kernel, padding: upsample2x_naive(img), 2),
    "relu": (["activate", "--act", "relu"],
             lambda img, kernel, padding: apply_pointwise(img, "relu"), 1),
    "gelu": (["activate", "--act", "gelu"],
             lambda img, kernel, padding: apply_pointwise(img, "gelu"), 1),
    "wrapped relu": (["activate", "--act", "relu", "--wrapped"],
                     lambda img, kernel, padding: wrapped_activation(img, "relu", kernel, padding),
                     1),
    "wrapped gelu": (["activate", "--act", "gelu", "--wrapped"],
                     lambda img, kernel, padding: wrapped_activation(img, "gelu", kernel, padding),
                     1),
    "rotate": (["rotate", "--phi", repr(PHI)], lambda img, kernel, fill: rotate(img, PHI, fill), 1),
}


@pytest.mark.parametrize("name", RASTER_COMMANDS)
def test_a_large_pgm_command_holds_one_input_plane_and_one_band(tmp_path, name):
    # a 1 x 512 x 512 file: its bytes, the decoded input plane, the payload and one
    # band's temporaries, about 1.3x-2.0x the input's float bytes, where a whole
    # output plane took 1.5x (max pooling), 9.5x (af up), 11.1x (naive up) and
    # 15.3x (rotate, whose gather plan was 8 arrays a pixel)
    argv, _, _ = RASTER_COMMANDS[name]
    src = _raster_file(tmp_path / "in.pgm", (1, 512, 512))
    flags = [] if argv[0] == "rotate" else FILTER_FLAGS
    command = [*argv, *flags, "--in", str(src), "--out", str(tmp_path / "out.pgm")]
    assert main(command) == 0
    assert traced_peak(main, command) < 2.5 * 512 * 512 * 8


def _spy_encoded_bands(monkeypatch):
    """Record the rows of each band a raster command encodes into its payload."""
    bands, quantized = [], image_io._quantized
    monkeypatch.setattr(image_io, "_quantized", lambda values, out: (
        bands.append(values.shape[1]) or quantized(values, out)))
    return bands


@pytest.mark.parametrize("channels", (1, 3), ids=("P5", "P6"))
@pytest.mark.parametrize("name", RASTER_COMMANDS)
def test_raster_command_bands_give_the_whole_images_bytes(tmp_path, monkeypatch, name, channels):
    argv, call, scale = RASTER_COMMANDS[name]
    if argv[0] == "rotate":
        variants = [(None, ["--fill", fill], fill) for fill in ("replicate", "zero")]
    elif "af" in argv or "--wrapped" in argv:
        variants = [(design_kernel(FilterSpec(1.0, True, kernel_size=size)),
                     [*FILTER_FLAGS, "--size", str(size), "--padding", padding], padding)
                    for size in (1, 3, 9) for padding in ("reflect", "zero")]
    else:
        variants = [(None, [], None)]
    out = tmp_path / "out.img"
    # 12 x 10 runs in many bands; 2 x 6 is smaller than a 9 x 9 kernel's halo, and
    # reflect padding rejects it for a 9 x 9 downsample
    for shape in ((channels, 12, 10), (channels, 2, 6)):
        src = _raster_file(tmp_path / "in.img", shape)
        img = read_raster(src.read_bytes())
        n, w = int(shape[1] * scale), int(shape[2] * scale)
        for kernel, flags, option in variants:
            try:
                want = write_raster(call(img, kernel, option))
            except ValueError as exc:
                want = exc
            # bands of one row, of 5 rows (which divide no output height here), of
            # all rows but one, and of every row
            for rows in sorted({1, 5, n - 1, n} & set(range(1, n + 1))):
                with monkeypatch.context() as patch:
                    patch.setattr(resample, "_HALO", 0)  # bands of any height
                    patch.setattr(resample, "_BAND", rows * w)
                    bands = _spy_encoded_bands(patch)
                    code = main([*argv, *flags, "--in", str(src), "--out", str(out)])
                if isinstance(want, ValueError):
                    # the whole image's check, before any band: no band, no file
                    assert (code, bands, out.exists()) == (1, [], False)
                    continue
                assert code == 0 and out.read_bytes() == want, (shape, flags, rows)
                assert bands == channels * [min(rows, n - n0) for n0 in range(0, n, rows)]
                out.unlink()


def _tracked_bands(shape, rows, refs):
    """A band form of zeros in bands of `rows` rows that keeps a weak reference to each
    band it yields and, before it makes the next band, asserts every earlier one dead."""
    C, n, w = shape

    def tracked(band):
        refs.append(weakref.ref(band))
        return band

    def bands():
        for n0 in range(0, n, rows):
            assert all(ref() is None for ref in refs), "an earlier band is still held"
            n1 = min(n0 + rows, n)
            yield n0, n1, tracked(np.zeros((C, n1 - n0, w)))
    return shape, bands()


def test_each_band_is_freed_before_the_next_is_made():
    # two bands alive at once raised the traced peak of a P6 rotate from 1.84x to
    # 1.92x the input's float bytes
    refs = []
    out = resample._assembled(*_tracked_bands((3, 12, 10), 5, refs))
    assert out.shape == (3, 12, 10) and not out.any() and len(refs) == 3
    refs.clear()
    planes = (_tracked_bands((1, 12, 10), 5, refs) for _ in range(3))
    assert image_io._encoded(3, planes) == write_raster(np.zeros((3, 12, 10)))
    assert len(refs) == 9


@pytest.mark.parametrize("whole", (True, False), ids=("whole", "banded"))
@pytest.mark.parametrize("act", ("relu", "gelu"))
@pytest.mark.parametrize("padding", ("reflect", "zero"))
def test_the_wrapped_nonlinearity_holds_one_doubled_grid(monkeypatch, act, padding, whole):
    # whole: about 2.56x the upsampled bytes, one doubled grid less than
    # evaluating the nonlinearity into a fresh array (3.56x); in bands of
    # rows, about 1.15x (relu) to 1.43x (gelu)
    x = np.random.default_rng(2).uniform(-1.2, 1.2, (3, 128, 128))
    if whole:
        monkeypatch.setattr(resample, "_BAND", x.size)  # one band: the whole-image path
    assert traced_peak(wrapped_activation, x, act, K1N, padding) < 3.0 * 4 * x.nbytes


@pytest.mark.parametrize("act", ("relu", "gelu"))
@pytest.mark.parametrize("padding", ("reflect", "zero"))
def test_the_wrapped_nonlinearity_of_a_large_plane_holds_one_band(act, padding):
    # the output and one band's doubled rows: about 1.7x-1.9x the input's bytes,
    # where the whole doubled grid and its padded copy took 10x
    x = np.random.default_rng(2).uniform(-1.2, 1.2, (1, 512, 512))
    assert traced_peak(wrapped_activation, x, act, K1N, padding) < 2.5 * x.nbytes


def test_naive_upsample_blends_into_its_gathers():
    # about 2.55x its output's bytes, where out-of-place blends took 3.55x
    x = np.random.default_rng(3).uniform(-1.2, 1.2, (3, 128, 128))
    assert traced_peak(upsample2x_naive, x) < 3.0 * 4 * x.nbytes


def _quantize_out_of_place(x):
    return np.floor((np.clip(x, -1.0, 1.0) + 1.0) * 127.5 + 0.5).astype(np.uint8)


@pytest.mark.parametrize("noncontiguous", (False, True), ids=("contiguous", "strided"))
def test_encoding_equals_the_out_of_place_formula_bitwise(noncontiguous):
    halves = (np.arange(256) + 0.5) / 127.5 - 1.0  # every rounding edge, and a ulp each side
    edges = np.concatenate([halves, np.nextafter(halves, -2.0), np.nextafter(halves, 2.0),
                            edge_input(False).ravel()])
    x = np.resize(edges, (3, 16, 24))
    if noncontiguous:
        big = np.zeros((3, 32, 48))
        big[:, ::2, ::2] = x
        x = big[:, ::2, ::2]
    want = _quantize_out_of_place(x)
    assert float_to_byte(x).tobytes() == want.tobytes()
    C, H, W = x.shape
    payload = np.ascontiguousarray(np.moveaxis(want, 0, 2)).tobytes()
    assert write_raster(x) == f"P6\n{W} {H}\n255\n".encode("ascii") + payload
    assert write_raster(x[:1]) == f"P5\n{W} {H}\n255\n".encode("ascii") + want[0].tobytes()
    assert float_to_byte(-0.0) == np.uint8(128) and np.ndim(float_to_byte(-0.0)) == 0


def test_decoding_equals_the_out_of_place_formula_bitwise():
    pixels = np.random.default_rng(4).integers(0, 256, (5, 7, 3), dtype=np.uint8)
    pixels[0, 0] = (0, 128, 255)
    planes = np.moveaxis(pixels, 2, 0)  # read_raster's strided C x H x W view
    want = planes.astype(float) / 127.5 - 1.0
    got = byte_to_float(planes)
    assert got.tobytes() == want.tobytes() and got.strides == want.strides
    assert byte_to_float(np.uint8(128)) == want[1, 0, 0] and np.ndim(byte_to_float(0)) == 0


@pytest.mark.parametrize("noncontiguous", (False, True), ids=("contiguous", "strided"))
def test_wrapped_nonlinearity_equals_pointwise_on_the_upsample_bitwise(noncontiguous):
    x = edge_input(noncontiguous)
    for act in ("relu", "gelu"):
        for padding in ("reflect", "zero"):
            want = downsample2x_af(apply_pointwise(upsample2x_af(x, K1N, padding), act),
                                   K1N, padding)
            assert wrapped_activation(x, act, K1N, padding).tobytes() == want.tobytes()


def _wrapped_whole(x, act, kernel, padding="reflect"):
    return downsample2x_af(apply_pointwise(upsample2x_af(x, kernel, padding), act),
                           kernel, padding)


def _spy_bands(monkeypatch):
    """Record the rows of each slab the wrapped nonlinearity upsamples, one per band."""
    bands, filtered = [], activation._filtered
    monkeypatch.setattr(activation, "_filtered", lambda x, *args, **kwargs: (
        bands.append(x.shape[1]) or filtered(x, *args, **kwargs)))
    return bands


@pytest.mark.parametrize("noncontiguous", (False, True), ids=("contiguous", "strided"))
@pytest.mark.parametrize("kernel", (K1, K1N, K9), ids=("1x1", "3x3", "9x9"))
def test_banded_wrapped_nonlinearity_equals_the_whole_image_bitwise(
        monkeypatch, kernel, noncontiguous):
    bands = _spy_bands(monkeypatch)
    monkeypatch.setattr(resample, "_HALO", 0)  # bands of any height
    # 3 x 12 x 10, and a 1 x 12 x 2 strip, whose reflect limit for upsampling is size 9
    for x in (edge_input(noncontiguous), edge_input(noncontiguous)[1:2, :, 3:5]):
        C, H, W = x.shape
        # 1 element is still one row a band, one element short of 6 rows is 5;
        # 5 and 11 rows do not divide 12
        for band, rows in ((1, 1), (C * W, 1), (6 * C * W - 1, 5), ((H - 1) * C * W, H - 1)):
            monkeypatch.setattr(resample, "_BAND", band)
            for act in ("relu", "gelu"):
                for padding in ("reflect", "zero"):
                    bands.clear()
                    got = wrapped_activation(x, act, kernel, padding)
                    assert len(bands) == -(-H // rows)
                    assert got.tobytes() == _wrapped_whole(x, act, kernel, padding).tobytes()


@pytest.mark.parametrize("kernel", (K1N, K9), ids=("3x3", "9x9"))
def test_a_band_is_at_least_sixteen_kernel_radii_tall(monkeypatch, kernel):
    bands = _spy_bands(monkeypatch)
    monkeypatch.setattr(resample, "_BAND", 10)  # one row of the 1 x 200 x 10 input
    x = np.random.default_rng(5).uniform(-1.2, 1.2, (1, 200, 10))
    rows = 16 * kernel.radius
    got = wrapped_activation(x, "gelu", kernel)
    # each band's slab is its rows and up to r more on each side
    assert len(bands) == -(-200 // rows) and max(bands) == rows + 2 * kernel.radius
    assert got.tobytes() == _wrapped_whole(x, "gelu", kernel).tobytes()


def test_banding_keeps_the_whole_images_errors_and_their_order(monkeypatch):
    upsampled = _spy_bands(monkeypatch)
    monkeypatch.setattr(resample, "_BAND", 8)
    tall = np.zeros((1, 40, 1))  # the first 8-row band's slab would name a 12 x 1 image
    with pytest.raises(ValueError, match="limit 5 for upsampling a 40 x 1 image$"):
        wrapped_activation(tall, "relu", K9)
    assert upsampled == []  # the whole image's border is checked before any band
    # zero padding has no limit: such an image runs, whole, as 16r = 64 rows exceed 40
    assert wrapped_activation(tall, "gelu", K9, "zero").tobytes() == (
        _wrapped_whole(tall, "gelu", K9, "zero").tobytes())
    assert upsampled == [40]
    upsampled.clear()
    late = np.zeros((1, 40, 4))
    late[0, 35, 2] = np.inf  # in the last band
    for call, message in ((lambda: wrapped_activation(late, "tanh", K1N, "wrap"),
                           "unknown activation 'tanh'"),
                          (lambda: wrapped_activation(late, "relu", K1N, "wrap"),
                           "image values must be finite"),
                          (lambda: wrapped_activation(late[:, :34], "relu", K1N, "wrap"),
                           "unknown padding mode 'wrap'")):
        with pytest.raises(ValueError, match=message):
            call()
    assert upsampled == []  # every error comes before the first band


@pytest.mark.parametrize("shape", ((3, 12, 10), (1, 200, 10), (3, 130, 64)))
def test_a_wrapped_call_scans_finiteness_once_and_once_a_band(monkeypatch, shape):
    # the image once, up front, and each band's doubled slab as its down step
    # checks it, which is what rejects an upsample that overflows; the slabs
    # themselves are slices of the checked image and are not scanned again
    bands, scans, check = _spy_bands(monkeypatch), [], resample._check_finite
    monkeypatch.setattr(resample, "_check_finite", lambda arr: scans.append(arr.shape) or check(arr))
    x = np.random.default_rng(6).uniform(-1.2, 1.2, shape)
    for kernel in (K1N, K9):
        bands.clear()
        scans.clear()
        wrapped_activation(x, "gelu", kernel)
        assert len(scans) == 1 + len(bands) and scans[0] == shape
    checkers = np.where(np.indices(shape).sum(axis=0) % 2, -1.7e308, 1.7e308)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="values must be finite"):
        wrapped_activation(checkers, "relu", K1N)  # finite, but its doubled grid reaches +inf


@pytest.mark.parametrize("noncontiguous", (False, True), ids=("contiguous", "strided"))
def test_blends_equal_the_gather_oracle_bitwise(noncontiguous):
    x = edge_input(noncontiguous)
    C, H, W = x.shape
    u = np.arange(2 * H) * (H - 1) / (2 * H - 1)
    v = np.arange(2 * W) * (W - 1) / (2 * W - 1)
    assert upsample2x_naive(x).tobytes() == bilinear_gather_2d(x, u[:, None], v[None, :]).tobytes()
    # rotate's inverse map at an angle cos and sin leave unsnapped
    c, s = math.cos(PHI), math.sin(PHI)
    dr, dc = np.arange(H)[:, None] - (H - 1) / 2.0, np.arange(W)[None, :] - (W - 1) / 2.0
    src_r, src_c = (H - 1) / 2.0 + c * dr + s * dc, (W - 1) / 2.0 - s * dr + c * dc
    want = bilinear_gather_2d(x, src_r, src_c)
    assert rotate(x, PHI).tobytes() == want.tobytes()
    inside = (src_r >= 0) & (src_r <= H - 1) & (src_c >= 0) & (src_c <= W - 1)
    assert rotate(x, PHI, "zero").tobytes() == np.where(inside, want, 0.0).tobytes()


# SHA-256 (first 16 hex digits) of each output for edge_input's strided form,
# recorded from the out-of-place code; kernel design and rotation angles go
# through libm's cos and sin, so the bits are pinned on glibc only
PINS = {
    "write_raster": "edc687c1faeaddf8",
    "upsample2x_naive": "b6dd409831e7be7e",
    "upsample2x_af": "d82e6b2b95fb657d",
    "downsample2x_af": "06e6a49b09e2b993",
    "wrapped relu": "a25d7ff3d3a1e308",
    "wrapped gelu": "297033ea45f2dc2b",
    "rotate replicate": "27043e79b94e3487",
    "rotate zero": "768f491d92176060",
}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins recorded with glibc's libm")
@pytest.mark.parametrize("name", PINS)
def test_bytes_equal_the_out_of_place_pins(name):
    out = CALLS[name](edge_input(noncontiguous=True))
    data = out if isinstance(out, bytes) else str(out.shape).encode() + out.tobytes()
    assert hashlib.sha256(data).hexdigest()[:16] == PINS[name]
