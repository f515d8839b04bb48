"""Binary PGM (P5) and PPM (P6) raster codec.

Only maxval 255 is supported. Decoded bytes map to floats by
v / 127.5 - 1, so 0 -> -1.0, 255 -> +1.0, and 128 -> exactly 0 on the
way back in. Encoding clamps to [-1, 1] and rounds half up, so a float
0.0 lands on byte 128. Tensors are C x H x W with C = 1 for P5 and
C = 3 for P6; P6 payloads interleave RGB per pixel. Each direction works
in place in the one float buffer it makes, never in the caller's array.
The one encoder takes the image one channel plane at a time, and each
plane as bands of rows: it quantizes each band in place and casts it
straight into a preallocated payload, one bytearray with the header.
`write_raster` hands it one copied plane at a time; the CLI hands it the
bands of its operators' band forms, the forms every whole-image operator
assembles, so only one band of output floats is held at a time.
"""

import numpy as np

from .resample import _check_finite, check_image

# the one raster-format table: channel count -> (magic, file extension)
_FORMATS = {1: ("P5", "pgm"), 3: ("P6", "ppm")}
_MAGIC_CHANNELS = {magic: c for c, (magic, _) in _FORMATS.items()}
_WHITESPACE = b" \t\r\n"


class RasterParseError(ValueError):
    """Malformed raster input; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def byte_to_float(values) -> np.ndarray:
    """Map uint8 sample values onto [-1, 1]."""
    v = np.asarray(values).astype(float)
    v /= 127.5
    v -= 1.0
    return v[()]  # a 0-d input gets a scalar back


def _quantized(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The one encode rule, floor((clip(v, -1, 1) + 1) * 127.5 + 0.5), as floats
    written into `out`, which may be `values` itself."""
    v = np.clip(values, -1.0, 1.0, out=out)
    v += 1.0
    v *= 127.5
    v += 0.5
    return np.floor(v, out=v)


def float_to_byte(values) -> np.ndarray:
    """Clamp to [-1, 1] and quantize, rounding halves up."""
    v = np.asarray(values, dtype=float)
    return _quantized(v, np.empty(v.shape)).astype(np.uint8)[()]  # 0-d in, scalar out


def _parse_int(data: bytes, pos: int, what: str):
    while pos < len(data) and data[pos] in _WHITESPACE:
        pos += 1
    if pos >= len(data):
        raise RasterParseError(f"header ended before {what}", len(data))
    start = pos
    while pos < len(data) and 48 <= data[pos] <= 57:
        pos += 1
    if pos == start:
        raise RasterParseError(f"expected digits for {what}", start)
    return int(data[start:pos]), pos, start


def _pixels(data) -> np.ndarray:
    """The H x W x C byte samples of P5/P6 bytes, a view of them, once the header
    and the payload's length are checked."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    magic = data[:2].decode("latin-1")
    if magic not in _MAGIC_CHANNELS:
        raise RasterParseError(f"unknown magic {magic!r}", 0)
    channels = _MAGIC_CHANNELS[magic]

    width, pos, at = _parse_int(data, 2, "width")
    if width < 1:
        raise RasterParseError(f"width must be >= 1, got {width}", at)
    height, pos, at = _parse_int(data, pos, "height")
    if height < 1:
        raise RasterParseError(f"height must be >= 1, got {height}", at)
    maxval, pos, at = _parse_int(data, pos, "maxval")
    if maxval != 255:
        raise RasterParseError(f"only maxval 255 is supported, got {maxval}", at)

    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise RasterParseError("expected a whitespace byte after maxval", pos)
    pos += 1  # exactly one separator byte, then the payload

    needed = channels * height * width
    if len(data) - pos < needed:
        raise RasterParseError(
            f"payload holds {len(data) - pos} bytes, needs {needed}", len(data))
    raw = np.frombuffer(data, dtype=np.uint8, count=needed, offset=pos)
    return raw.reshape(height, width, channels)


def read_raster(data: bytes) -> np.ndarray:
    """Decode P5/P6 bytes into a float C x H x W tensor on [-1, 1]."""
    return byte_to_float(np.moveaxis(_pixels(data), 2, 0))


def raster_format(channels) -> tuple:
    """The (magic, file extension) of the format for a channel count from
    the format table: ("P5", "pgm") for 1, ("P6", "ppm") for 3, and a
    ValueError for any other count."""
    if channels not in _FORMATS:
        raise ValueError(f"raster output needs {' or '.join(map(str, _FORMATS))} "
                         f"channels, got {channels}")
    return _FORMATS[channels]


def _encoded(channels: int, planes) -> bytearray:
    """The raster of a `channels`-channel image given one plane at a time: `planes`
    yields each channel's band form in turn, its 1 x H x W shape and its bands
    (n0, n1, rows), rows n0 to n1 of the plane as a float array the encoder may
    overwrite. Each band is checked finite, quantized in place and cast straight
    into the payload, one bytearray with the header: no float or byte plane is
    held whole, and the payload is never copied."""
    magic, _ = raster_format(channels)
    for c, ((_, H, W), bands) in enumerate(planes):
        if not c:  # the first plane's shape sizes the payload
            header = f"{magic}\n{W} {H}\n255\n".encode("ascii")
            raster = bytearray(len(header) + channels * H * W)
            raster[:len(header)] = header
            pixels = np.frombuffer(raster, np.uint8, offset=len(header)).reshape(H, W, channels)
        for n0, n1, rows in bands:
            pixels[n0:n1, :, c] = _quantized(_check_finite(rows), rows)[0]
            del rows  # freed before the next band is made
    return raster


def write_raster(img) -> bytes:
    """Encode a float tensor in the format `raster_format` picks from its
    channel count, one channel plane at a time."""
    arr = check_image(img)
    _, H, W = arr.shape
    # each plane one band, copied so that encoding never writes the caller's array
    planes = (((1, H, W), [(0, H, plane.copy())]) for plane in arr[:, None])
    return bytes(_encoded(len(arr), planes))
