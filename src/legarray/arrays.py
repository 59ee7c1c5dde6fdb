"""N-dimensional ternary/integer array containers.

Thin wrappers over contiguous numpy storage (int8 for ternary entries,
int64 for correlation tables) adding cyclic indexing, cyclic shifts, the
NDA text format, and grayscale rendering. Row-major (C) order throughout.
"""

from __future__ import annotations

import numpy as np

from .images import GrayImage

MAX_RANK = 8

_RENDER_GRAY = np.array([255, 128, 0], dtype=np.uint8)  # gray of entry e at e + 1

_INT64_MAX = np.iinfo(np.int64).max


def _check_int64_entries(values: np.ndarray) -> None:
    # only uint64 holds integers beyond int64, which a cast would wrap
    if values.dtype == np.uint64 and values.size and values.max() > _INT64_MAX:
        raise ValueError(f"entry {values[values > _INT64_MAX].flat[0]} is outside the int64 range")


class _NdArray:
    """Shared container behavior; subclasses fix dtype and entry domain."""

    kind = ""
    _dtype = None

    def __init__(self, values):
        wide = np.asarray(values)
        if not np.issubdtype(wide.dtype, np.integer):
            raise ValueError(f"entries must be integers, got dtype {wide.dtype}")
        _check_int64_entries(wide)
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
        idx = tuple(int(i) for i in idx)
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
        idx = self._check_index(idx, cyclic=False)
        self._check_entry(int(v))
        self.values[idx] = v

    def _check_entry(self, v: int) -> None:
        pass

    def cyclic_get(self, idx) -> int:
        return int(self.values[self._check_index(idx, cyclic=True)])

    def cyclic_shift(self, offsets) -> "_NdArray":
        """New array with result[idx] = self[(idx + offsets) mod dims]."""
        offsets = tuple(int(o) for o in offsets)
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

    def _check_entry(self, v: int) -> None:
        if v not in (-1, 0, 1):
            raise ValueError(f"ternary entries must be in {{-1,0,1}}, found {v}")


class IntArray(_NdArray):
    """N-dimensional array of exact (64-bit) integers."""

    kind = "int"
    _dtype = np.int64


def serialize(arr: _NdArray) -> str:
    """NDA text format: magic, rank, extents, entry kind, row-major entries.

    One line per trailing-axis run (which keeps files diffable), entries
    separated by single spaces, each written as str() of the Python int.
    Each distinct value is formatted once into a NUL-padded cell and the
    cells are gathered per entry, so a ternary array costs at most three
    str() calls. Deterministic output; deserialize(serialize(a)) == a
    bit-exactly.
    """
    header = f"NDA1\n{arr.rank}\n{' '.join(str(d) for d in arr.dims)}\n{arr.kind}\n"
    rows = arr.values.reshape(-1, arr.dims[-1])
    distinct, codes = np.unique(rows, return_inverse=True)
    tokens = [str(v) for v in distinct.tolist()]
    # distinct is sorted, so the longest token is its most negative or its
    # largest value
    width = max(len(tokens[0]), len(tokens[-1]))
    cells = np.full((distinct.size, width + 1), ord(" "), dtype=np.uint8)
    cells[:, :width] = np.array(tokens, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    text = cells[codes.reshape(rows.shape)]
    text[:, -1, -1] = ord("\n")
    return header + text.tobytes().replace(b"\0", b"").decode()


def deserialize(text: str) -> _NdArray:
    """Parse the NDA text format produced by serialize.

    Entries are parsed with int(), each distinct token once, and must fit
    in int64.
    """
    tokens = text.split("\n")
    if not tokens or tokens[0].strip() != "NDA1":
        raise ValueError("not an NDA1 file (bad magic)")
    body = "\n".join(tokens[1:]).split()
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
