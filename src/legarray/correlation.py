"""Exact N-dimensional periodic correlation and bound verification.

The periodic cross-correlation of equal-sized arrays A, B at shift s is

    theta(s) = sum over all cells i of A[i] * B[(i + s) mod dims]

(entries are real integers, so the conjugate in the general definition is
the identity). Three kernels compute such tables exactly:

* `full_correlation`, the oracle, evaluates this sum in integer arithmetic;
  `corr` and the reference `verify_autocorrelation`/`verify_cross_correlation`
  use it.
* The member kernel correlates a rank-2n integer array X with every shear
  S_m(x, y) = A(x) * A(y - m*x) of a rank-n base A: with X as a p^n x p^n
  matrix, H[s, y] = A(y + s) and C = X @ H, theta_{X,S_m}(s, t) =
  (H @ C_m)[s, t - m*s] where C_m[y, u] = C[y, u - m*y] = C_{m-1}[y, u - y].
  One product H @ [C_m | ... | C_{m+k-1}] gives the tables of a run of k
  members side by side, each in sheared order, with k * q**2 entries,
  q = p^n, under a fixed budget: two products give all p tables up to
  (13, 2), and memory stays O(q**2) entries however large p is.
  One addition table of Z_p^n per (p, n) gives H and every shear index,
  (s, t) -> (s, t - m*s) on flat indices. Every entry and partial sum is
  an integer bounded by sum|X| * max|A|**2, so the BLAS products are exact
  in any summation order, however they are split, in float32 below 2**24,
  in float64 below 2**53, and in int64 up to 2**63 - 1. Every read is
  forward, table entry (s, t) from product entry (s, t - m*s):
  `member_tables` reads whole tables as int64; `member_peak` reads the
  global peak and each member's exact sum of squares straight from the
  products, for `extract`; and `verify_family` makes its bound reports
  from the products of S_0: theta_{S_m,S_m'}(s, t) is product m' - m at
  (s, t - m'*s), a bijection that fixes the zero shift.
* `full_correlation_fast`, the FFT kernel of `corr --fast`, rounds its
  table to int64 behind a 2**53 refusal and a residual check.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arrays import IntArray, _integer
from .fields import _check_odd_prime

if TYPE_CHECKING:
    from .family import ArrayFamily, FamilyMember
    from .legendre import LegendreParams

FAST_SIZE_LIMIT = 1 << 24
# Entries are integers, so any transform residual beyond this signals real
# precision loss rather than float noise (desk-size error is << 1e-6).
RESIDUAL_TOLERANCE = 1e-3


class PrecisionError(RuntimeError):
    """The float transform path lost integer exactness."""


def _check_same_dims(a, b):
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")


def _magnitudes(values: np.ndarray) -> np.ndarray:
    # |INT64_MIN| wraps to INT64_MIN, whose bits read as uint64 are 2**63
    return np.abs(values, dtype=np.int64).view(np.uint64)


def _theta_bound(a: np.ndarray, b: np.ndarray) -> int:
    """sum|a| * max|b| as a Python int: no |theta_{a,b}(s)|, nor any partial
    sum of its products, exceeds it."""
    mag = _magnitudes(a)
    # summed as 32-bit halves so that neither uint64 sum can wrap
    sum_abs = (int((mag >> 32).sum()) << 32) + int((mag & 0xFFFFFFFF).sum())
    return sum_abs * int(_magnitudes(b).max())


def cross_correlation_at(a, b, shift) -> int:
    """theta_{a,b}(shift), exact. Shift components are reduced mod dims."""
    _check_same_dims(a, b)
    shift = tuple(_integer(s, "shift") for s in shift)
    if len(shift) != a.rank:
        raise ValueError(f"shift rank {len(shift)} != array rank {a.rank}")
    _check_int64(_theta_bound(a.values, b.values))
    rolled = np.roll(b.values, tuple(-s for s in shift), axis=tuple(range(a.rank)))
    return int(np.sum(a.values.astype(np.int64) * rolled))


def _check_int64(bound: int) -> None:
    if bound > np.iinfo(np.int64).max:
        raise ValueError(f"correlation values may reach {bound}, beyond the int64 range")


def _correlate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # B is tiled once per axis so that every cyclic shift is a contiguous
    # window, and einsum contracts the window view against A in int64.
    rank = a.ndim
    tiled = np.tile(b, (2,) * rank)
    windows = sliding_window_view(tiled, a.shape)[tuple(slice(0, d) for d in a.shape)]
    # windows[s][i] == b[(s + i) mod dims]
    return np.einsum(
        windows,
        list(range(2 * rank)),
        a.astype(np.int64),
        list(range(rank, 2 * rank)),
        list(range(rank)),
    )


def full_correlation(a, b) -> IntArray:
    """Exact correlation table for every cyclic shift (the oracle path).

    Implemented as a direct sum of integer products, with no transforms.
    Refuses inputs whose table could leave the int64 range.
    """
    _check_same_dims(a, b)
    _check_int64(_theta_bound(a.values, b.values))
    return IntArray(_correlate(a.values, b.values))


@lru_cache(maxsize=None)
def _addition_table(p: int, n: int) -> np.ndarray:
    """The addition table of Z_p^n on flat C-order indices, q = p^n: entry
    [y, s] of the q x q table is the index of y + s. One broadcast sum per
    digit, with only the p x p digit table reduced mod p; built once per
    (p, n) and read-only, so every shear, product and report shares it."""
    digit = np.add.outer(np.arange(p), np.arange(p)) % p
    add = digit
    for _ in range(n - 1):
        k = len(add)
        add = (add[:, None, :, None] * p + digit[:, None, :]).reshape(k * p, k * p)
    add.flags.writeable = False
    return add


def _multiples(p: int, q: int, m) -> np.ndarray:
    """Entry [..., s] is the flat index of m*s in Z_p^n, q = p^n, digitwise
    mod p, for an int m or for each entry of an array of them: one p-entry
    digit table per m, widened per digit like `_addition_table`."""
    digit = np.multiply.outer(m, np.arange(p)) % p
    index = digit
    while index.shape[-1] < q:
        index = (index[..., :, None] * p + digit[..., None, :]).reshape(*digit.shape[:-1], -1)
    return index


def _shear_index(add: np.ndarray, p: int, m) -> np.ndarray:
    """Entry [..., s*q + t] is the flat index of (s, t - m*s) in a q x q
    grid, digitwise mod p, for an int m or for each entry of an array of
    them: row s of the addition table `add` at the index of -m*s, offset by
    s*q. An array of m costs one gather."""
    q = len(add)
    index = add[_multiples(p, q, np.negative(m))]
    index += np.arange(0, q * q, q)[:, None]  # in place: no second q*q array
    return index.reshape(*index.shape[:-2], -1)


def shear(base: np.ndarray, m: int) -> np.ndarray:
    """S_m(x, y) = A(x) * A(y - m*x) for the rank-n base A of extent p per
    axis: the flat outer product A (x) A read through the shear index of m."""
    p = base.shape[0]
    index = _shear_index(_addition_table(p, base.ndim), p, m)
    return np.outer(base, base).reshape(-1)[index].reshape(base.shape * 2)


# Members are multiplied in runs of k, at most this many product entries
# per run (k >= 1): all p in one product up to (13, 2), and a working set of
# O(_BLOCK_ENTRIES + q*q) entries however large p is.
_BLOCK_ENTRIES = 1 << 19


def _products(x, base, bound, add) -> Iterator[np.ndarray]:
    # H[s, y] = A(y + s), C = X @ H and C_m[y, u] = C_{m-1}[y, u - y]; each
    # run of members m .. m + k - 1 is laid out as [C_m | ... | C_{m+k-1}]
    # and yields block[s, j, u] = (H @ C_{m+j})[s, u] from one product;
    # every partial sum is an integer of magnitude <= bound, exact in the
    # dtype however BLAS splits it. One buffer holds a run and its product
    # and each run overwrites the last, so a block must be read before the
    # next is drawn, and a call allocates one large array, not two per run.
    p, q = base.shape[0], base.size
    dtype = np.float32 if bound < 2**24 else np.float64 if bound < 2**53 else np.int64
    h = base.reshape(-1)[add].astype(dtype)
    c = np.matmul(x.reshape(q, q).astype(dtype), h).reshape(-1)
    step = _shear_index(add, p, 1)
    k = min(p, max(1, _BLOCK_ENTRIES // c.size))
    buffer = np.empty(2 * k * c.size, dtype)
    for m in range(0, p, k):
        width = min(k, p - m)
        run, block = buffer[: 2 * width * c.size].reshape(2, q, width, q)
        for j in range(width):
            run[:, j] = c.reshape(q, q)
            if m + j < p - 1:
                c = c[step]
        np.matmul(h, run.reshape(q, -1), out=block.reshape(q, -1))
        yield block


def _checked(x, base) -> tuple[np.ndarray, np.ndarray, int]:
    # x and A as IntArray takes them, and their bound sum|x| * max|A|**2
    x, base = np.asarray(x), np.asarray(base)
    if x.shape != base.shape * 2:
        raise ValueError(f"dimension mismatch: {x.shape} vs the members' {base.shape * 2}")
    x, base = IntArray(x).values, IntArray(base).values
    bound = _theta_bound(x, base) * int(_magnitudes(base).max())
    _check_int64(bound)
    return x, base, bound


def member_peak(x, base) -> tuple[int, int, tuple[int, ...], int]:
    """(value, m, shift, energy) over the tables theta_{x, S_m}, m = 0 ..
    p - 1, of the rank-2n integer array x against the shears S_m of the
    rank-n base A: the largest entry, the first position (m, shift) holding
    it in (m, C order), and the exact integer sum of squares of all p * q**2
    entries, q = p^n. Read from the blocks of raw products, which hold each
    table in sheared order, (s, u) for (s, u + m*s): that changes neither a
    table's maximum nor its sum of squares, and keeps each row s. When a
    block's peak beats the best so far, the first of its members holding it
    gives m, the first row s of that product holding it gives s, and that
    row is read forward in table order, t -> (s, t - m*s): its first maximum
    is the table's first peak.
    Refuses when called, before any product, as member_tables does.
    """
    x, base, bound = _checked(x, base)
    p, q = base.shape[0], base.size
    add = _addition_table(p, base.ndim)
    best, best_m, best_flat, energy, m = -math.inf, 0, 0, 0, 0
    for block in _products(x, base, bound, add):
        # each member's sum of squares, exact below 2**53: no partial sum exceeds it
        for j, total in enumerate(np.einsum("sju,sju->j", block, block, dtype=np.float64).tolist()):
            if total >= 2**53:
                total = sum(k * k for k in block[:, j].astype(np.int64).ravel().tolist())
            energy += int(total)
        peaks = block.max(axis=0).max(axis=1)
        j = int(np.argmax(peaks))
        if int(peaks[j]) > best:
            s = int(np.argmax(block[:, j])) // q
            # entry t of the table's row s is product m + j's entry (s, t -
            # (m + j)*s), with t - (m + j)*s read from the addition table
            row = block[s, j, add[_multiples(p, q, -(m + j))[s]]]
            best, best_m, best_flat = int(peaks[j]), m + j, s * q + int(np.argmax(row))
        m += block.shape[1]
    shift = tuple(int(k) for k in np.unravel_index(best_flat, x.shape))
    return best, best_m, shift, energy


def member_tables(x, base) -> Iterator[np.ndarray]:
    """Exact int64 tables theta_{x, S_m}, for m = 0 .. p - 1 in order, of the
    rank-2n integer array x against the shears S_m of the rank-n base A:
    the raw products, each read back into table order through the shear
    index of its m. Refuses when called, before any work, non-integer or
    mismatched x and A, and bounds past int64, exactly when full_correlation
    would refuse x against the members.
    """
    x, base, bound = _checked(x, base)
    p = base.shape[0]
    add = _addition_table(p, base.ndim)
    blocks = _products(x, base, bound, add)
    products = (block[:, j] for block in blocks for j in range(block.shape[1]))
    return (
        np.take(product, _shear_index(add, p, m)).astype(np.int64).reshape(x.shape)
        for m, product in enumerate(products)
    )


def full_correlation_fast(a, b) -> IntArray:
    """FFT-accelerated correlation table; must equal full_correlation.

    One transform of each array and one inverse, rounded to int64. Raises
    PrecisionError, before any transform, when the values may reach 2**53,
    where float64 would round without a residual to show it; and when a
    rounding residual reaches RESIDUAL_TOLERANCE. The array is then too
    large for the float path, and the oracle applies.
    """
    _check_same_dims(a, b)
    if a.size > FAST_SIZE_LIMIT:
        raise ValueError(f"array size {a.size} exceeds fast-path limit {FAST_SIZE_LIMIT}")
    bound = _theta_bound(a.values, b.values)
    if bound >= 2**53:
        raise PrecisionError(
            f"correlation values may reach {bound} >= 2**53; too large for the float path"
        )
    axes = tuple(range(a.rank))
    spectrum = np.conj(np.fft.rfftn(a.values, axes=axes)) * np.fft.rfftn(b.values, axes=axes)
    table = np.fft.irfftn(spectrum, s=a.dims, axes=axes)
    rounded = np.rint(table)
    residual = float(np.abs(table - rounded).max())
    if residual >= RESIDUAL_TOLERANCE:
        raise PrecisionError(
            f"rounding residual {residual:.3e} >= {RESIDUAL_TOLERANCE:.0e}; "
            "array too large for the float path"
        )
    return IntArray(rounded.astype(np.int64))


# The pair kernels of `corr`, without and with --fast.
_METHODS = {"naive": full_correlation, "fast": full_correlation_fast}


class PeakShifts:
    """Shifts of a correlation table, in C order, listed as lists of ints.

    Made from the q x q bool mask of the table's attaining entries, read
    through an optional index: the shift at flat (C-order) index i is listed
    when the mask holds at index[i], or at i with no index. The index must
    map each row s of q entries onto row s, one to one, so that row s lists
    as many shifts as the mask holds in it. Nothing is listed until read:
    the length is the mask's count, and `tolist(k)`, the one listing, lists
    the first k shifts from the first rows that hold k. Compares equal to a
    PeakShifts of the same shape and shifts.
    """

    __slots__ = ("shape", "_mask", "_index", "_ends")

    def __init__(self, mask: np.ndarray, shape: tuple[int, ...], index: np.ndarray | None = None,
                 ends: list[int] | None = None):
        self.shape = tuple(shape)
        self._mask, self._index = mask, index
        # ends[s]: shifts in rows 0 .. s, the same through any row-keeping index
        self._ends = np.cumsum(mask.sum(axis=1)).tolist() if ends is None else ends

    def through(self, index: np.ndarray) -> "PeakShifts":
        """The shifts of this one's mask read through the row-keeping
        `index` in place of its own, with its count and row counts."""
        return PeakShifts(self._mask, self.shape, index, self._ends)

    def __len__(self) -> int:
        return self._ends[-1]

    def __eq__(self, other):
        if not isinstance(other, PeakShifts):
            return NotImplemented
        return self.shape == other.shape and self.tolist() == other.tolist()

    def __repr__(self) -> str:
        return f"PeakShifts({len(self)} shifts of {self.shape})"

    def tolist(self, k: int | None = None) -> list[list[int]]:
        """The first k shifts, or every shift when k is None, each as a list
        of ints, in order: the digits of each flat index in the mixed radix
        of the table's shape."""
        radix, dims = _radix(self.shape)
        k = len(self) if k is None else k
        # the first k shifts lie in rows 0 .. r, r the first row with k in rows 0 .. r
        end = (bisect.bisect_left(self._ends, k) + 1) * self._mask.shape[1]
        mask = self._mask.reshape(-1)
        flat = (mask[:end] if self._index is None else mask[self._index[:end]]).nonzero()[0][:k]
        return (flat[:, None] // radix % dims).tolist()


@lru_cache(maxsize=None)
def _radix(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    # the C-order stride of each axis, in entries, and its extent: digit k
    # of flat index i is i // radix[k] % dims[k]
    radix = np.array([math.prod(shape[k + 1 :]) for k in range(len(shape))], dtype=np.int64)
    dims = np.array(shape, dtype=np.int64)
    radix.flags.writeable = dims.flags.writeable = False
    return radix, dims


@dataclass(frozen=True)
class CorrelationReport:
    """Outcome of checking a correlation table against its proven bound.

    For autocorrelation the bound applies off-peak (every shift except
    all-zeros); for cross-correlation it applies to every shift, and
    `off_peak_max_abs`/`peak_shifts`/`value_histogram` cover all shifts.
    `peak_value` is always the correlation at the all-zero shift.
    `peak_shifts` holds every bounded shift where |theta| equals
    `off_peak_max_abs`, in C order, as a `PeakShifts`: the table's attaining
    mask, whose `len` is the shift count and whose `tolist(k)` reads only
    the rows that hold the first k. The printed body is `body_key` under
    the names `_BODY_NAMES`, with `members` and `peak_shifts` added.
    """

    mode: str  # "auto" | "cross"
    members: tuple[int, ...]
    bound: int
    peak_value: int
    off_peak_max_abs: int
    peak_shifts: PeakShifts
    value_histogram: dict[int, int]
    passed: bool
    values_match_derivation: bool

    _BODY_NAMES = ("mode", "bound", "peak_value", "off_peak_max_abs", "peak_shift_count",
                   "value_histogram", "passed", "values_match_derivation")

    def to_json_dict(self, max_shifts: int | None = None) -> dict:
        """The report as JSON-ready values: `body_key` by name, its histogram
        keyed by strings, `members`, and as `peak_shifts` the first
        `max_shifts` attaining shifts in C order (all when it is None)."""
        body = dict(zip(self._BODY_NAMES, self.body_key(), strict=True))
        body["value_histogram"] = {str(k): v for k, v in body["value_histogram"]}
        body["members"] = list(self.members)
        body["peak_shifts"] = self.peak_shifts.tolist(max_shifts)
        return body

    def body_key(self) -> tuple:
        """The printed body but `members` and `peak_shifts`, hashable, as
        values named by `_BODY_NAMES`: equal keys print alike but for those."""
        return (self.mode, self.bound, self.peak_value, self.off_peak_max_abs,
                len(self.peak_shifts), tuple(sorted(self.value_histogram.items())),
                self.passed, self.values_match_derivation)


def _bound_report(table: np.ndarray, q: int, *ms: int) -> CorrelationReport:
    # One member index (auto) bounds every shift but the zero shift, flat
    # index 0 in C order and in sheared order, by q - 1; two (cross) bound
    # every shift by q + 1, where q = p^n is the field size.
    auto = len(ms) == 1
    bound = q - 1 if auto else q + 1
    flat = table.reshape(-1)
    start = 1 if auto else 0
    magnitude = np.abs(flat)
    max_abs = int(magnitude[start:].max())
    attaining = magnitude == max_abs
    attaining[:start] = False
    # each bounded entry v lies in [-max_abs, max_abs]: counted at v + max_abs
    offset = flat[start:].astype(np.intp)
    offset += max_abs
    counts = np.bincount(offset)
    seen = np.flatnonzero(counts)
    histogram = dict(zip((seen - max_abs).tolist(), counts[seen].tolist()))
    observed = set(histogram)
    return CorrelationReport(
        mode="auto" if auto else "cross",
        members=ms,
        bound=bound,
        peak_value=int(flat[0]),
        off_peak_max_abs=max_abs,
        peak_shifts=PeakShifts(attaining.reshape(q, q), table.shape),
        value_histogram=histogram,
        passed=max_abs <= bound,
        values_match_derivation=observed == {1, 1 - q} if auto else observed <= {1 - q, 1, q + 1},
    )


def _check_auto(params: "LegendreParams") -> None:
    if params.a != 0:
        raise ValueError("autocorrelation bound requires origin value a = 0")


def _check_cross(m1: "FamilyMember", m2: "FamilyMember") -> None:
    if m1.params != m2.params:
        raise ValueError("members must come from the same family")
    if m1.m == m2.m:
        raise ValueError("cross-correlation bound requires distinct members")
    if m1.params.a != 0:
        raise ValueError("cross-correlation bound requires origin value a = 0")


def verify_autocorrelation(member: "FamilyMember") -> CorrelationReport:
    """Check a family member's off-peak |theta| against the bound p^n - 1,
    on the oracle's table.

    Also records whether the observed off-peak value set is exactly
    {1, 1 - p^n}, the value set the bound's derivation produces.
    """
    _check_auto(member.params)
    q = member.params.p ** member.params.n
    return _bound_report(full_correlation(member.arr, member.arr).values, q, member.m)


def verify_cross_correlation(m1: "FamilyMember", m2: "FamilyMember") -> CorrelationReport:
    """Check |theta| of two distinct members against the bound p^n + 1, on
    the oracle's table.

    Records whether the observed values stay within {1 - p^n, 1, p^n + 1}.
    """
    _check_cross(m1, m2)
    q = m1.params.p ** m1.params.n
    return _bound_report(full_correlation(m1.arr, m2.arr).values, q, m1.m, m2.m)


def verify_family(
    family: "ArrayFamily",
) -> tuple[list[CorrelationReport], list[CorrelationReport]]:
    """The auto report of every member and the cross report of every pair
    i < j, in family order, equal to verify_autocorrelation's and
    verify_cross_correlation's on the members, but from the family's base:
    no member is built. theta_{S_m,S_m'}(s, t) is entry (s, t - m'*s) of
    the d-th raw product of S_0, d = m' - m, a bijection fixing
    the zero shift: one bound report per d, made on the product itself,
    serves every pair with that d. A pair's attaining shifts are its
    d-report's attaining mask read forward through the shear index of m',
    which keeps each row s: they come in C order with no sort, their count
    is the d-report's, and none is listed until read, so the first k of a
    pair cost its first rows that hold k. Each report is made with its own
    copy of the histogram; reports of one d differ only in `members` and
    `peak_shifts`, so their other fields print alike (the `verify` writer
    dumps each distinct body once). Refuses origin value a != 0, as those
    do, before any table is made.
    """
    _check_auto(family.params)
    a = family.base.values
    p, q = family.params.p, a.size
    x, base, bound = _checked(np.multiply.outer(a, a), a)  # S_0(x, y) = A(x) * A(y)
    add = _addition_table(p, a.ndim)
    blocks = _products(x, base, bound, add)
    products = (block[:, d] for block in blocks for d in range(block.shape[1]))
    by_d = [
        _bound_report(product.reshape(x.shape), q, *((0, d) if d else (0,)))
        for d, product in enumerate(products)
    ]
    # entry s*q + t of forward[m'] is the flat index of (s, t - m'*s)
    forward = _shear_index(add, p, np.arange(p))

    def moved(*ms: int) -> CorrelationReport:
        r = by_d[(ms[-1] - ms[0]) % p]
        return CorrelationReport(
            mode=r.mode, members=ms, bound=r.bound, peak_value=r.peak_value,
            off_peak_max_abs=r.off_peak_max_abs, peak_shifts=r.peak_shifts.through(forward[ms[-1]]),
            value_histogram=dict(r.value_histogram), passed=r.passed,
            values_match_derivation=r.values_match_derivation,
        )

    auto = [moved(m) for m in range(p)]
    cross = [moved(m1, m2) for m1, m2 in itertools.combinations(range(p), 2)]
    return auto, cross


@dataclass(frozen=True)
class WelchMetrics:
    """Exact rational comparison of the family's bound-to-peak ratio
    against the p^n / p^{2n} benchmark ratio."""

    p: int
    n: int
    nonzero_count: int
    bound_to_peak_ratio: Fraction
    welch_ratio: Fraction
    relative_difference: Fraction

    def to_json_dict(self) -> dict:
        def frac(f: Fraction) -> dict:
            return {"fraction": f"{f.numerator}/{f.denominator}", "approx": float(f)}

        return {
            "p": self.p,
            "n": self.n,
            "nonzero_count": self.nonzero_count,
            "bound_to_peak_ratio": frac(self.bound_to_peak_ratio),
            "welch_ratio": frac(self.welch_ratio),
            "relative_difference": frac(self.relative_difference),
        }


def welch_metrics(p: int, n: int) -> WelchMetrics:
    """Exact rationals: each member has p^{2n} - 2 p^n + 1 nonzero entries,
    the cross-correlation bound is p^n + 1, and the benchmark ratio is
    p^n / p^{2n}."""
    _check_odd_prime(p)
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    q = p**n
    nonzero = q * q - 2 * q + 1
    bound_to_peak = Fraction(q + 1, nonzero)
    welch = Fraction(q, q * q)
    rel = bound_to_peak / welch - 1
    return WelchMetrics(
        p=p,
        n=n,
        nonzero_count=nonzero,
        bound_to_peak_ratio=bound_to_peak,
        welch_ratio=welch,
        relative_difference=rel,
    )
