import numpy as np
import pytest

from aliasfree import (RasterParseError, byte_to_float, float_to_byte,
                       raster_format, read_raster, write_raster)
from aliasfree.rng import Rng


def test_byte_to_float_endpoints():
    assert byte_to_float(np.array([0]))[0] == -1.0
    assert byte_to_float(np.array([255]))[0] == 1.0
    assert byte_to_float(np.array([127]))[0] == pytest.approx(-0.00392157, abs=1e-6)
    assert byte_to_float(np.array([128]))[0] == pytest.approx(+0.00392157, abs=1e-6)


def test_float_to_byte_rounding():
    vals = np.array([-1.0, -2.0, 1.0, 2.0, 0.0])
    out = float_to_byte(vals)
    assert list(out) == [0, 0, 255, 255, 128]  # clamps, and 0.0 rounds half up
    # round-half-up at an exact half: (v + 1) * 127.5 = 100.5 at this v
    v = 100.5 / 127.5 - 1.0
    assert float_to_byte(np.array([v]))[0] in (100, 101)  # half sits on rounding edge
    assert float_to_byte(np.array([(101.0 + 0.25) / 127.5 - 1.0]))[0] == 101


def test_quantization_is_identity_on_byte_lattice():
    bytes_in = np.arange(256, dtype=np.uint8)
    again = float_to_byte(byte_to_float(bytes_in))
    assert np.array_equal(again, bytes_in)


def test_round_trip_error_bound():
    img = np.asarray(Rng(1).normal((1, 8, 8))) * 0.5
    img = np.clip(img, -1.0, 1.0)
    data = write_raster(img)
    back = read_raster(data)
    assert np.max(np.abs(back - img)) <= 1.0 / 127.5


def test_p5_layout():
    img = np.array([[[-1.0, 0.0], [1.0, -1.0]]])
    data = write_raster(img)
    assert data.startswith(b"P5\n2 2\n255\n")
    payload = data[len(b"P5\n2 2\n255\n"):]
    assert list(payload) == [0, 128, 255, 0]


def test_p6_interleaves_rgb_per_pixel():
    img = np.zeros((3, 1, 2))
    img[0, 0, 0] = 1.0   # pixel 0 pure red
    img[2, 0, 1] = 1.0   # pixel 1 pure blue
    data = write_raster(img)
    header = b"P6\n2 1\n255\n"
    assert data.startswith(header)
    assert list(data[len(header):]) == [255, 128, 128, 128, 128, 255]


def test_format_inference_and_mismatch():
    gray = np.zeros((1, 2, 2))
    rgb = np.zeros((3, 2, 2))
    assert write_raster(gray)[:2] == b"P5"
    assert write_raster(rgb)[:2] == b"P6"
    with pytest.raises(ValueError, match="needs 1 or 3 channels, got 2"):
        write_raster(np.zeros((2, 2, 2)))
    # the whole image is checked before the channel count and the planes
    for shape in ((2, 2, 2), (3, 2, 2)):
        bad = np.zeros(shape)
        bad[-1, -1, -1] = np.nan
        with pytest.raises(ValueError, match="image values must be finite"):
            write_raster(bad)


def test_raster_format_gives_magic_and_extension():
    assert raster_format(1) == ("P5", "pgm")
    assert raster_format(3) == ("P6", "ppm")
    for channels in (0, 2, 4):
        with pytest.raises(ValueError, match=f"needs 1 or 3 channels, got {channels}"):
            raster_format(channels)


def test_read_round_trip_both_formats():
    for shape in ((1, 5, 3), (3, 4, 6)):
        img = byte_to_float(
            (np.asarray(Rng(7).uniform(shape)) * 255).astype(np.uint8))
        assert np.array_equal(read_raster(write_raster(img)), img)


def test_header_whitespace_variants():
    data = b"P5 2\t2\r\n255\n" + bytes([1, 2, 3, 4])
    img = read_raster(data)
    assert img.shape == (1, 2, 2)
    assert float_to_byte(img).ravel().tolist() == [1, 2, 3, 4]


def test_payload_starts_after_single_whitespace_byte():
    # the byte right after maxval's whitespace is payload, even if it
    # looks like whitespace itself
    data = b"P5\n2 2\n255\n" + bytes([10, 20, 30, 40])
    img = read_raster(data)
    assert float_to_byte(img).ravel().tolist() == [10, 20, 30, 40]


def test_parse_error_offsets():
    with pytest.raises(RasterParseError) as info:
        read_raster(b"P7\n2 2\n255\n" + bytes(4))
    assert info.value.offset == 0

    with pytest.raises(RasterParseError) as info:
        read_raster(b"P5\n")
    assert info.value.offset == 3

    with pytest.raises(RasterParseError) as info:
        read_raster(b"P5\nx 2\n255\n")
    assert info.value.offset == 3

    with pytest.raises(RasterParseError) as info:
        read_raster(b"P5\n2 2\n65535\n" + bytes(8))
    assert info.value.offset == 7

    with pytest.raises(RasterParseError) as info:
        read_raster(b"P5\n0 2\n255\n")
    assert info.value.offset == 3

    with pytest.raises(RasterParseError) as info:
        read_raster(b"P5\n2 0\n255\n")
    assert info.value.offset == 5

    with pytest.raises(RasterParseError) as info:
        read_raster(b"P5\n2 2\n255")  # no separator byte after maxval
    assert info.value.offset == len(b"P5\n2 2\n255")

    with pytest.raises(RasterParseError) as info:
        read_raster(b"P5\n2 2\n255\n" + bytes(3))  # payload one byte short
    assert info.value.offset == len(b"P5\n2 2\n255\n" + bytes(3))


def test_parse_error_is_value_error():
    assert issubclass(RasterParseError, ValueError)
    with pytest.raises(ValueError):
        read_raster(b"")


def test_type_check():
    with pytest.raises(TypeError):
        read_raster("P5\n1 1\n255\n\x00")


def test_random_bytes_never_raise_unexpectedly():
    rng = Rng(99)
    for i in range(200):
        n = 1 + int(float(np.asarray(rng.uniform())) * 64)
        blob = bytes((np.asarray(rng.uniform((n,))) * 256).astype(np.uint8))
        try:
            read_raster(blob)
        except RasterParseError:
            pass
