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

from .arrays import TernaryArray
from .correlation import member_tables
from .family import ArrayFamily, FamilyMember
from .images import GrayImage

DEFAULT_SNR_THRESHOLD = 4.0


@dataclass(frozen=True)
class Payload:
    """Message carried by one embedded array: member index and 2n shifts."""

    m: int
    shifts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(int(s) for s in self.shifts))
        if self.m < 0:
            raise ValueError(f"member index must be >= 0, got {self.m}")
        if any(s < 0 for s in self.shifts):
            raise ValueError(f"shifts must be >= 0, got {self.shifts}")


@dataclass(frozen=True)
class EmbedConfig:
    """Additive embedding amplitude; output pixels clamp to [0, 255]."""

    strength: int = 3

    def __post_init__(self):
        if self.strength < 0:
            raise ValueError(f"strength must be >= 0, got {self.strength}")


@dataclass(frozen=True)
class ExtractionResult:
    """Decoded payload and the evidence for it.

    `score` is the peak correlation, an exact integer; `snr` is the peak
    against the RMS of every other table entry, in float64.
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


def flatten(arr: TernaryArray) -> TernaryArray:
    """Fold an even-rank array to rank 2; rank 2 passes through unchanged."""
    if arr.rank % 2 != 0:
        raise ValueError(f"flatten requires even rank, got {arr.rank}")
    return TernaryArray(_flatten_values(arr.values))


def unflatten(arr: TernaryArray, dims) -> TernaryArray:
    """Exact inverse of flatten: unflatten(flatten(s), s.dims) == s."""
    dims = tuple(int(d) for d in dims)
    if len(dims) % 2 != 0:
        raise ValueError(f"unflatten requires even target rank, got {len(dims)}")
    if arr.size != math.prod(dims):
        raise ValueError(f"entry count {arr.size} inconsistent with dims {dims}")
    return TernaryArray(_unflatten_values(arr.values, dims))


def tile_dims(member_dims: tuple[int, ...]) -> tuple[int, int]:
    """Pixel size of one flattened watermark period."""
    return _fold_plan(member_dims)[1]


def _fold_tiles(pixels: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Sum of the whole (th, tw) tiles of `pixels` as one int64 period.

    Partial tiles at the right and bottom edges are dropped. The sums are
    taken tile rows first.
    """
    rows, cols = pixels.shape[0] // th, pixels.shape[1] // tw
    crop = pixels[: rows * th, : cols * tw]
    by_row = crop.reshape(rows, th, cols * tw).sum(axis=0, dtype=np.int64)
    return by_row.reshape(th, cols, tw).sum(axis=1)


def embed(
    img: GrayImage, member: FamilyMember, payload: Payload, cfg: EmbedConfig = EmbedConfig()
) -> GrayImage:
    """Add the shifted, flattened member over the whole image, tiled.

    Output pixel (r, c) = clamp(img(r, c) + strength * W[r mod th, c mod tw])
    where W = flatten(cyclic_shift(member, payload.shifts)).
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
    reps = (-(-img.height // th), -(-img.width // tw))
    tiled = np.tile(w, reps)[: img.height, : img.width]
    marked = np.clip(
        img.pixels.astype(np.int16) + cfg.strength * tiled.astype(np.int16), 0, 255
    )
    return GrayImage(marked.astype(np.uint8))


def extract(
    img: GrayImage, family: ArrayFamily, snr_threshold: float = DEFAULT_SNR_THRESHOLD
) -> ExtractionResult:
    """Recover (member, shifts) from a marked image by correlation peak search.

    The image is cropped to whole tiles, the tiles are summed into one
    integer period (coherent gain), and the period is partitioned back into
    rank 2n. Every member is a shear of the family's base array, so all p
    exact integer tables come from p + 1 products of p^n x p^n matrices, in
    float64 while sum|period| < 2^53 (`member_tables`). The carrier's DC
    needs no removal: the base array sums to zero, so every member does
    too. The returned score is the integer peak and the snr is the
    peak against the RMS of all other correlation entries across every
    member; results with snr below `snr_threshold` keep their payload but
    are flagged not confident; a NaN threshold, which no snr reaches, is
    refused. So are families with origin value a != 0: their members do
    not sum to zero.
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
    period = _unflatten_values(_fold_tiles(img.pixels, th, tw), member_dims)

    best_value = -np.inf
    best_m = 0
    best_shift = (0,) * len(member_dims)
    total_sq = 0.0
    total_count = 0
    for m, table in enumerate(member_tables(period, family.base.values)):
        total_sq += float(np.sum(np.square(table, dtype=np.float64)))
        total_count += table.size
        peak_idx = np.unravel_index(np.argmax(table), table.shape)
        value = int(table[peak_idx])
        if value > best_value:
            best_value = value
            best_m = m
            best_shift = tuple(int(x) for x in peak_idx)

    rest_sq = max(total_sq - best_value**2, 0.0)
    rest_count = total_count - 1
    rms = math.sqrt(rest_sq / rest_count) if rest_count > 0 else 0.0
    if rms > 0:
        snr = best_value / rms
    else:
        snr = math.inf if best_value > 0 else 0.0
    return ExtractionResult(
        payload=Payload(m=best_m, shifts=best_shift),
        score=best_value,
        snr=snr,
        confident=snr >= snr_threshold,
    )
