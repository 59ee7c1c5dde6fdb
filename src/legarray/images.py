"""8-bit grayscale images and lossless PGM (P2/P5) round-tripping."""

from __future__ import annotations

import numpy as np


class GrayImage:
    """Grayscale raster, row-major uint8 pixels in [0, 255]."""

    def __init__(self, pixels):
        arr = np.asarray(pixels)
        if arr.ndim != 2:
            raise ValueError(f"image must be 2-D, got shape {arr.shape}")
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("image must have positive width and height")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"pixels must be integers, got dtype {arr.dtype}")
            if arr.min() < 0 or arr.max() > 255:
                raise ValueError("pixel values must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        self.pixels = np.ascontiguousarray(arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, GrayImage) and np.array_equal(self.pixels, other.pixels)

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height})"


def _read_header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Read `count` whitespace-separated header tokens, skipping # comments.

    Returns the tokens and the offset one whitespace byte past the last one.
    """
    tokens = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(data):
            raise ValueError("truncated PGM header")
        c = data[pos : pos + 1]
        if c == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise ValueError("unterminated comment in PGM header")
            pos = nl + 1
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise ValueError("missing whitespace after PGM header")
    return tokens, pos + 1


def read_pgm(data: bytes) -> GrayImage:
    """Parse a binary (P5) or ASCII (P2) PGM with maxval 255.

    A P5 raster is not copied: the pixels are a read-only view of the
    width * height bytes that follow the header in `data`, and any bytes
    after them are ignored.
    """
    if data[:2] not in (b"P5", b"P2"):
        raise ValueError(f"unsupported PGM magic {data[:2]!r}")
    magic = data[:2]
    tokens, offset = _read_header_tokens(data, 4)
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ValueError("non-numeric PGM header field") from None
    if width < 1 or height < 1:
        raise ValueError(f"bad PGM size {width}x{height}")
    if maxval != 255:
        raise ValueError(f"only maxval 255 is supported, got {maxval}")
    n = width * height
    if magic == b"P5":
        if len(data) - offset < n:
            raise ValueError(f"expected {n} raster bytes, got {len(data) - offset}")
        pixels = np.frombuffer(data, dtype=np.uint8, count=n, offset=offset).reshape(height, width)
    else:
        fields = data[offset:].split()
        if len(fields) != n:
            raise ValueError(f"expected {n} raster values, got {len(fields)}")
        values = [int(f) for f in fields]
        if min(values) < 0 or max(values) > 255:
            raise ValueError("P2 sample out of range")
        pixels = np.array(values, dtype=np.uint8).reshape(height, width)
    return GrayImage(pixels)


def write_pgm(img: GrayImage) -> bytes:
    """Encode as binary P5, maxval 255, no comments. Bit-exact round trip."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return b"".join((header, img.pixels.data))
