"""Spread-spectrum image watermarking with partially flattened arrays.

A rank-2n member array is cyclically shifted by the payload, folded down
to two dimensions by pairing axis k with axis n+k (i_k = q_k * d_{n+k} + r_k)
until rank 2 remains, tiled over the carrier, and added at a small integer
strength; the whole fold is one permutation of the axes followed by one
reshape. Extraction reverses the pipeline: fold the tiles back into one
period, partition it into the 2n-dimensional representation, and search
the exact correlation tables of every family member for the global peak,
which encodes both the member index and all 2n shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import IntArray, TernaryArray, _integer
from .correlation import member_peak
from .family import ArrayFamily, FamilyMember
from .images import GrayImage

DEFAULT_SNR_THRESHOLD = 4.0


@dataclass(frozen=True)
class Payload:
    """Message carried by one embedded array: member index and 2n shifts."""

    m: int
    shifts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "member index"))
        object.__setattr__(self, "shifts", tuple(_integer(s, "shift") for s in self.shifts))
        if self.m < 0:
            raise ValueError(f"member index must be >= 0, got {self.m}")
        if any(s < 0 for s in self.shifts):
            raise ValueError(f"shifts must be >= 0, got {self.shifts}")


@dataclass(frozen=True)
class EmbedConfig:
    """Additive embedding amplitude; output pixels clamp to [0, 255]."""

    strength: int = 3

    def __post_init__(self):
        object.__setattr__(self, "strength", _integer(self.strength, "strength"))
        if self.strength < 0:
            raise ValueError(f"strength must be >= 0, got {self.strength}")


@dataclass(frozen=True)
class ExtractionResult:
    """Decoded payload and the evidence for it.

    `score` is the peak correlation, an exact integer; `snr` is the peak
    against the RMS of every other table entry, from their exact integer
    sum of squares.
    """

    payload: Payload
    score: int
    snr: float
    confident: bool

    def to_json_dict(self) -> dict:
        return {
            "m": self.payload.m,
            "shifts": list(self.payload.shifts),
            "score": self.score,
            "snr": self.snr,
            "confident": self.confident,
        }


def _fold_plan(dims: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis order and 2-D shape of the fold of `dims` down to rank 2.

    Each round pairs the first floor(r/2) axes with the last floor(r/2); an
    odd middle axis is carried unpaired (appended last) into the next round.
    A round only merges axes that sit next to each other after a transpose,
    so the whole fold is one transpose of the original axes followed by one
    reshape: a pure relabeling, hence a bijection on cells.
    """
    groups = [(ax,) for ax in range(len(dims))]
    while len(groups) > 2:
        r = len(groups)
        h = r // 2
        groups = [groups[k] + groups[r - h + k] for k in range(h)] + groups[h : r - h]
    order = tuple(ax for group in groups for ax in group)
    shape = tuple(math.prod(dims[ax] for ax in group) for group in groups)
    return order, shape


def _flatten_values(values: np.ndarray) -> np.ndarray:
    order, shape = _fold_plan(values.shape)
    return values.transpose(order).reshape(shape)


def _unflatten_values(values: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    order, shape = _fold_plan(dims)
    if values.shape != shape:
        raise ValueError(f"flattened dims {values.shape} inconsistent with target {shape}")
    return values.reshape(tuple(dims[ax] for ax in order)).transpose(np.argsort(order))


def flatten(arr: TernaryArray | IntArray) -> TernaryArray | IntArray:
    """Fold an even-rank array to rank 2, of the same entry kind; rank 2
    passes through unchanged."""
    if arr.rank % 2 != 0:
        raise ValueError(f"flatten requires even rank, got {arr.rank}")
    return type(arr)(_flatten_values(arr.values))


def unflatten(arr: TernaryArray | IntArray, dims) -> TernaryArray | IntArray:
    """Exact inverse of flatten, of the same entry kind:
    unflatten(flatten(s), s.dims) == s."""
    dims = tuple(int(d) for d in dims)
    if len(dims) % 2 != 0:
        raise ValueError(f"unflatten requires even target rank, got {len(dims)}")
    if arr.size != math.prod(dims):
        raise ValueError(f"entry count {arr.size} inconsistent with dims {dims}")
    return type(arr)(_unflatten_values(arr.values, dims))


def tile_dims(member_dims: tuple[int, ...]) -> tuple[int, int]:
    """Pixel size of one flattened watermark period."""
    return _fold_plan(member_dims)[1]


# Largest number of tile rows whose uint8 column sums fit in uint16.
_BLOCK_ROWS = (2**16 - 1) // 255


def _fold_tiles(pixels: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Sum of the whole (th, tw) tiles of `pixels` as one int64 period.

    Partial tiles at the right and bottom edges are dropped. Two passes:
    the tile rows are summed, which reads every pixel once, then the tile
    columns of that one (th, width) band in int64. Each tile row adds at
    most 255 to a column sum, so blocks of up to (2^16 - 1) // 255 = 257
    tile rows are summed in uint16 and the blocks added in int64, which no
    carrier that fits in memory can overflow.
    """
    rows, cols = pixels.shape[0] // th, pixels.shape[1] // tw
    band = pixels[: rows * th, : cols * tw].reshape(rows, th, cols * tw)
    whole = rows - rows % _BLOCK_ROWS
    by_row = band[whole:].sum(axis=0, dtype=np.uint16)
    if whole:
        blocks = band[:whole].reshape(-1, _BLOCK_ROWS, th, cols * tw)
        by_row = blocks.sum(axis=1, dtype=np.uint16).sum(axis=0, dtype=np.int64) + by_row
    return by_row.reshape(th, cols, tw).sum(axis=1, dtype=np.int64)


def embed(
    img: GrayImage, member: FamilyMember, payload: Payload, cfg: EmbedConfig = EmbedConfig()
) -> GrayImage:
    """Add the shifted, flattened member over the whole image, tiled.

    Output pixel (r, c) = clamp(img(r, c) + strength * W[r mod th, c mod tw])
    where W = flatten(cyclic_shift(member, payload.shifts)) and clamp is to
    [0, 255]. Any strength >= 255 already drives every +1 cell to 255 and
    every -1 cell to 0, so it is saturated at 255 and the mark fits in
    uint8: hi = strength where W is +1 and lo = strength where W is -1, as
    (th, width) bands, each 0 elsewhere. Written straight into the output
    by saturating uint8 arithmetic, each band broadcast to every band of th
    carrier rows: min(img, 255 - hi), then max with lo, then + hi - lo,
    which is clamp(img + hi - lo) with no wider buffer and no cast.
    """
    p = member.params.p
    if payload.m != member.m:
        raise ValueError(f"payload member {payload.m} does not match member {member.m}")
    if len(payload.shifts) != member.arr.rank:
        raise ValueError(
            f"expected {member.arr.rank} shift components, got {len(payload.shifts)}"
        )
    if any(not 0 <= s < p for s in payload.shifts):
        raise ValueError(f"shift components must be in [0, {p}), got {payload.shifts}")
    w = flatten(member.arr.cyclic_shift(payload.shifts)).values
    th, tw = w.shape
    if img.height < th or img.width < tw:
        raise ValueError(
            f"image {img.width}x{img.height} smaller than one {tw}x{th} watermark tile"
        )
    height, width = img.height, img.width
    strength = np.uint8(min(cfg.strength, 255))
    reps = (1, -(-width // tw))
    hi, lo = (np.tile(strength * mask, reps)[:, :width] for mask in (w > 0, w < 0))
    top = 255 - hi
    marked = np.empty((height, width), dtype=np.uint8)
    whole = height - height % th
    for rows, out, k in (
        (img.pixels[:whole].reshape(-1, th, width), marked[:whole].reshape(-1, th, width), th),
        (img.pixels[whole:], marked[whole:], height - whole),
    ):
        np.minimum(rows, top[:k], out=out)
        np.maximum(out, lo[:k], out=out)
        out += hi[:k]
        out -= lo[:k]
    return GrayImage(marked)


def extract(
    img: GrayImage, family: ArrayFamily, snr_threshold: float = DEFAULT_SNR_THRESHOLD
) -> ExtractionResult:
    """Recover (member, shifts) from a marked image by correlation peak search.

    The image is cropped to whole tiles, the tiles are summed into one
    integer period (coherent gain), and the period is partitioned back into
    rank 2n. Each row x of the period, read as a p^n x p^n matrix, has its
    floor mean c(x) subtracted: that adds sum_x c(x) A(x + s) sum_y A(.) = 0
    to every table entry, as the base A sums to zero, and takes the
    carrier's mean level out of the kernel's bound, so that the products of
    an 8-bit carrier mostly run in float32. `member_peak` then gives
    the first global peak over every member's table in (m, C order), and
    the exact sum of squares of all their entries.
    The returned score is the integer peak and the snr is the peak against
    the RMS of all other correlation entries across every member, from
    their exact integer sum of squares; results with snr below
    `snr_threshold` keep their payload but are flagged not confident; a NaN
    threshold, which no snr reaches, is refused. So are families with
    origin value a != 0: their members do not sum to zero.
    """
    if family.params.a != 0:
        raise ValueError("extraction requires origin value a = 0")
    if math.isnan(snr_threshold):
        raise ValueError("snr threshold must be a number, got nan")
    member_dims = family.base.dims * 2
    th, tw = tile_dims(member_dims)
    if img.height < th or img.width < tw:
        raise ValueError(
            f"image {img.width}x{img.height} smaller than one {tw}x{th} watermark tile"
        )
    base = family.base.values
    p, q = family.params.p, base.size
    rows = _unflatten_values(_fold_tiles(img.pixels, th, tw), member_dims).reshape(q, q)
    # centring each row leaves every table as it is, since A sums to zero
    period = rows - rows.sum(axis=1, keepdims=True) // q

    best, best_m, best_shift, energy = member_peak(period.reshape(member_dims), base)
    rms = math.sqrt((energy - best**2) / (p * q * q - 1))
    if rms > 0:
        snr = best / rms
    else:
        snr = math.inf if best > 0 else 0.0
    return ExtractionResult(
        payload=Payload(m=best_m, shifts=best_shift),
        score=best,
        snr=snr,
        confident=snr >= snr_threshold,
    )
