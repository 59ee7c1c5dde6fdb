"""N-dimensional ternary/integer array containers.

Thin wrappers over contiguous numpy storage (int8 for ternary entries,
int64 for correlation tables) adding cyclic indexing, cyclic shifts, the
NDA text format, and grayscale rendering. Row-major (C) order throughout.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .images import GrayImage

MAX_RANK = 8

_RENDER_GRAY = np.array([255, 128, 0], dtype=np.uint8)  # gray of entry e at e + 1

_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def _check_int64_entries(values: np.ndarray) -> None:
    # a uint64 array holds integers past int64, which a cast would wrap, and
    # numpy makes an object array of Python ints past uint64 or int64's low end
    if values.dtype == np.uint64 and values.size and values.max() > _INT64_MAX:
        raise ValueError(f"entry {values[values > _INT64_MAX].flat[0]} is outside the int64 range")
    if values.dtype == object and all(isinstance(v, numbers.Integral) for v in values.flat):
        for v in values.flat:
            if not _INT64_MIN <= v <= _INT64_MAX:
                raise ValueError(f"entry {v} is outside the int64 range")


def _integer(value, name: str) -> int:
    # numpy integers are numbers.Integral too; floats are refused, not truncated
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class _NdArray:
    """Shared container behavior; subclasses fix dtype and entry domain."""

    kind = ""
    _dtype = None

    def __init__(self, values):
        wide = np.asarray(values)
        _check_int64_entries(wide)
        if not np.issubdtype(wide.dtype, np.integer):
            raise ValueError(f"entries must be integers, got dtype {wide.dtype}")
        if wide.ndim < 1:
            raise ValueError("rank must be >= 1")
        if wide.ndim > MAX_RANK:
            raise ValueError(f"rank {wide.ndim} exceeds limit {MAX_RANK}")
        if any(d == 0 for d in wide.shape):
            raise ValueError("zero-extent dimensions are not allowed")
        self._validate(wide)
        self.values = np.ascontiguousarray(wide, dtype=self._dtype)

    def _validate(self, arr):
        pass

    @classmethod
    def from_flat(cls, dims, flat):
        dims = tuple(int(d) for d in dims)
        flat = np.asarray(flat)
        expected = int(np.prod(dims)) if dims else 0
        if flat.size != expected:
            raise ValueError(f"expected {expected} entries for dims {dims}, got {flat.size}")
        return cls(flat.reshape(dims))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def rank(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def _check_index(self, idx, cyclic):
        idx = tuple(_integer(i, "index") for i in idx)
        if len(idx) != self.rank:
            raise ValueError(f"index rank {len(idx)} != array rank {self.rank}")
        if cyclic:
            return tuple(i % d for i, d in zip(idx, self.dims))
        for i, d in enumerate(self.dims):
            if not 0 <= idx[i] < d:
                raise IndexError(f"index {idx} out of range for dims {self.dims}")
        return idx

    def get(self, idx) -> int:
        return int(self.values[self._check_index(idx, cyclic=False)])

    def set(self, idx, v) -> None:
        """Store v at idx, refused by the constructor's rule for entries."""
        idx = self._check_index(idx, cyclic=False)
        self.values[idx] = type(self)([v]).values[0]

    def cyclic_get(self, idx) -> int:
        return int(self.values[self._check_index(idx, cyclic=True)])

    def cyclic_shift(self, offsets) -> "_NdArray":
        """New array with result[idx] = self[(idx + offsets) mod dims]."""
        offsets = tuple(_integer(o, "offset") for o in offsets)
        if len(offsets) != self.rank:
            raise ValueError(f"offset rank {len(offsets)} != array rank {self.rank}")
        rolled = np.roll(self.values, tuple(-o for o in offsets), axis=tuple(range(self.rank)))
        return type(self)(rolled)

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.dims == other.dims
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((type(self).__name__, self.dims, self.values.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dims={self.dims})"


class TernaryArray(_NdArray):
    """N-dimensional array with entries restricted to {-1, 0, +1}."""

    kind = "ternary"
    _dtype = np.int8

    def _validate(self, arr):
        bad = arr[(arr < -1) | (arr > 1)]
        if bad.size:
            raise ValueError(f"ternary entries must be in {{-1,0,1}}, found {int(bad.flat[0])}")


class IntArray(_NdArray):
    """N-dimensional array of exact (64-bit) integers."""

    kind = "int"
    _dtype = np.int64


def serialize(arr: _NdArray) -> str:
    """NDA text format: magic, rank, extents, entry kind, row-major entries.

    Writes the one canonical layout: one line per trailing-axis run (which
    keeps files diffable), entries separated by single spaces, each written
    as str() of the Python int, and a final newline. Each distinct value is
    formatted once into a NUL-padded cell of a power-of-two size; the cells
    are gathered per entry and the NULs dropped. When the entries span fewer
    values than there are entries (any ternary array of three or more
    entries, and the members' correlation tables), a cell's code is the
    entry minus the least entry; only wider ranges sort through np.unique.
    Deterministic output; deserialize(serialize(a)) == a bit-exactly.
    """
    header = f"NDA1\n{arr.rank}\n{' '.join(str(d) for d in arr.dims)}\n{arr.kind}\n"
    values = arr.values.reshape(-1)
    lo, hi = int(values.min()), int(values.max())
    if hi - lo < values.size:
        tokens = [str(v) for v in range(lo, hi + 1)]
        codes = values - lo
    else:
        distinct, codes = np.unique(values, return_inverse=True)
        tokens = [str(v) for v in distinct.tolist()]
    # tokens run in increasing value, so the longest is the first or the last
    width = max(len(tokens[0]), len(tokens[-1]))
    cell = 1 << width.bit_length()  # > width; take copies such items fastest
    cells = np.zeros((len(tokens), cell), dtype=np.uint8)
    cells[:, :width] = np.array(tokens, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    cells[:, -1] = ord(" ")
    text = cells.view(f"V{cell}").reshape(-1).take(codes).view(np.uint8)
    text.reshape(-1, arr.dims[-1] * cell)[:, -1] = ord("\n")
    return header + text.tobytes().translate(None, b"\0").decode()


_MAX_DIGITS = 18  # every integer of up to 18 digits fits in int64


def _read_canonical(text: str) -> tuple[tuple[int, ...], str, np.ndarray] | None:
    """(dims, kind, flat int64 entries) of text in the layout serialize
    writes, read in one vectorised pass; None for any other text.

    The layout: the header serialize would write for the parsed rank, dims
    and kind, then an ASCII body in which every token is str() of an int of
    at most 18 digits (0 or -?[1-9][0-9]*) followed by exactly one ' ' or
    '\n'. Each token's digits are read from a right-aligned (width x
    tokens) digit matrix, one row per decimal place.
    """
    head = text.split("\n", 4)
    if len(head) < 5 or head[3] not in ("ternary", "int"):
        return None
    extents = head[2].split(" ")
    if not all(e.isascii() and e.isdigit() for e in extents):
        return None
    dims = tuple(int(e) for e in extents)
    kind, body = head[3], head[4]
    header = f"NDA1\n{len(dims)}\n{' '.join(str(d) for d in dims)}\n{kind}\n"
    if min(dims) < 1 or not text.startswith(header) or not body.isascii():
        return None
    b = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    sep = (b == ord(" ")) | (b == ord("\n"))
    ends = np.flatnonzero(sep)
    if ends.size != math.prod(dims) or not sep[-1]:
        return None
    size = np.diff(ends, prepend=-1) - 1  # characters per token
    # 1 where a token starts with '-', as int8: a random bool mask would
    # make np.where or a bool-to-int cast branch per token
    neg = (b[ends - size] == ord("-")).view(np.int8)
    ndig = size - neg
    if ndig.min() < 1 or ndig.max() > _MAX_DIGITS:
        return None
    digit = b - ord("0")  # wraps non-digits past 9
    # every byte that is no separator and no leading '-' must be a digit
    if np.count_nonzero(digit < 10) != b.size - ends.size - np.count_nonzero(neg):
        return None
    if ((digit[ends - ndig] == 0) & (size > 1)).any():
        return None  # a leading zero, or -0
    # row j of the w-row digit matrix: each token's character w - j places
    # left of its end, so the last row holds the units; places left of the
    # token, clipped or not, read 0
    rows = np.arange(-int(ndig.max()), 0)[:, None]
    digits = np.take(digit, ends + rows, mode="clip")
    digits *= rows >= -ndig
    flat = digits[0].astype(np.int64)
    for row in digits[1:]:
        flat *= 10
        flat += row
    flat *= 1 - 2 * neg
    return dims, kind, flat


def _read_tokens(text: str) -> tuple[tuple[int, ...], str, np.ndarray]:
    """(dims, kind, flat int64 entries) of any NDA1 text: whitespace-split
    tokens, each distinct entry token parsed once with int()."""
    magic, _, rest = text.partition("\n")
    if magic.strip() != "NDA1":
        raise ValueError("not an NDA1 file (bad magic)")
    body = rest.split()
    if len(body) < 3:
        raise ValueError("truncated NDA header")
    try:
        rank = int(body[0])
    except ValueError:
        raise ValueError(f"bad rank field {body[0]!r}") from None
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if len(body) < 1 + rank + 1:
        raise ValueError("truncated NDA header")
    try:
        dims = tuple(int(t) for t in body[1 : 1 + rank])
    except ValueError:
        raise ValueError("bad extent field") from None
    if any(d < 1 for d in dims):
        raise ValueError(f"extents must be positive, got {dims}")
    kind = body[1 + rank]
    if kind not in ("ternary", "int"):
        raise ValueError(f"unknown entry kind {kind!r}")
    entries = body[2 + rank :]
    expected = 1
    for d in dims:
        expected *= d
    if len(entries) != expected:
        raise ValueError(f"expected {expected} entries, got {len(entries)}")
    try:
        parsed = {t: int(t) for t in set(entries)}
    except ValueError:
        raise ValueError("non-integer entry in NDA body") from None
    try:
        flat = np.fromiter(map(parsed.__getitem__, entries), dtype=np.int64, count=expected)
    except OverflowError:
        bad = next(t for t in entries if not -(2**63) <= parsed[t] < 2**63)
        raise ValueError(f"entry {bad} is outside the int64 range") from None
    return dims, kind, flat


def deserialize(text: str) -> _NdArray:
    """Parse the NDA text format.

    Text in the layout serialize writes is read in one vectorised pass
    (_read_canonical). Any other text, such as other whitespace, signs,
    leading zeros, or tokens of 19 digits and more, is split on whitespace
    and each distinct token parsed with int() (_read_tokens). Both give the
    same array; entries must fit in int64.
    """
    parsed = _read_canonical(text)
    dims, kind, flat = _read_tokens(text) if parsed is None else parsed
    cls = TernaryArray if kind == "ternary" else IntArray
    return cls.from_flat(dims, flat)


def render(arr: TernaryArray | IntArray, scale: int = 1) -> GrayImage:
    """Map a rank-2 ternary array to 8-bit gray: -1 -> 255, 0 -> 128, +1 -> 0."""
    if arr.rank != 2:
        raise ValueError(f"render requires rank 2, got rank {arr.rank}")
    if scale < 1:
        raise ValueError("scale must be >= 1")
    v = arr.values
    if ((v < -1) | (v > 1)).any():
        raise ValueError("render requires ternary entries")
    pixels = _RENDER_GRAY[v + 1]
    if scale > 1:
        pixels = np.repeat(np.repeat(pixels, scale, axis=0), scale, axis=1)
    return GrayImage(pixels)
