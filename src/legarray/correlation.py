"""Exact N-dimensional periodic correlation and bound verification.

The periodic cross-correlation of equal-sized arrays A, B at shift s is

    theta(s) = sum over all cells i of A[i] * B[(i + s) mod dims]

(entries are real integers, so the conjugate in the general definition is
the identity). Three kernels compute such tables exactly:

* `full_correlation`, the oracle, evaluates this sum in integer arithmetic;
  `corr` and the reference `verify_autocorrelation`/`verify_cross_correlation`
  use it.
* `member_tables` correlates a rank-2n integer array X with every shear
  S_m(x, y) = A(x) * A(y - m*x) of a rank-n base A: with X as a p^n x p^n
  matrix, H[s, y] = A(y + s) and C = X @ H, theta_{X,S_m}(s, t) =
  (H @ C_m)[s, t - m*s] where C_m[y, u] = C[y, u - m*y], so p + 1 products
  give all p tables. Their entries and partial sums are integers bounded
  by sum|X| * max|A|**2: float64 BLAS products are exact below 2**53 in
  any summation order, int64 ones up to 2**63 - 1. `extract` runs it on
  the folded period; `sheared_tables` (`verify_family`) on S_0, since
  theta_{S_m,S_m'}(s, t) = theta_{S_0,S_{m'-m}}(s, t - m*s).
* `exact_tables`, the FFT kernel, rounds a table to int64 behind a 2**53
  refusal and a residual check; only `full_correlation_fast` (`corr --fast`)
  runs it.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arrays import IntArray
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
    shift = tuple(int(s) for s in shift)
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


def _sheared_index(p: int, n: int, k: int) -> tuple[tuple, tuple]:
    """Index arrays r and (c + k*r) mod p over the 2n axes (r, c) of
    Z_p^n x Z_p^n. They broadcast, so no p^(2n)-cell index grid is built."""
    idx = np.ogrid[(slice(0, p),) * (2 * n)]
    return tuple(idx[:n]), tuple((idx[n + j] + k * idx[j]) % p for j in range(n))


def shear(base: np.ndarray, m: int) -> np.ndarray:
    """S_m(x, y) = A(x) * A(y - m*x) for the rank-n base A of extent p per axis."""
    _, y_minus_mx = _sheared_index(base.shape[0], base.ndim, -m)
    return base.reshape(base.shape + (1,) * base.ndim) * base[y_minus_mx]


def _shear_indices(p: int, n: int) -> list[np.ndarray]:
    """Entry s*q + t of the k-th of these p arrays is the flat index of
    (s, t - k*s) in a q x q grid, q = p^n."""
    flat = np.arange(p ** (2 * n)).reshape((p,) * (2 * n))
    s, t_minus_s = _sheared_index(p, n, -1)
    step = flat[s + t_minus_s].reshape(-1)
    indices = [flat.reshape(-1)]
    while len(indices) < p:
        indices.append(step[indices[-1]])
    return indices


def _tables(x, base, ms, indices, bound) -> Iterator[np.ndarray]:
    # H[s, y] = A(y + s); every partial sum is an integer of magnitude <= bound
    q, dtype = base.size, np.float64 if bound < 2**53 else np.int64
    h = base[_sheared_index(base.shape[0], base.ndim, 1)[1]].reshape(q, q).astype(dtype)
    c = np.matmul(x.reshape(q, q).astype(dtype), h).reshape(-1)
    for idx in (indices[m] for m in ms):
        product = np.matmul(h, c[idx].reshape(q, q)).reshape(-1)
        yield product[idx].astype(np.int64).reshape(x.shape)


def member_tables(x, base, ms: Iterable[int]) -> Iterator[np.ndarray]:
    """Exact int64 tables theta_{x, S_m}, one per m in `ms`, in order, of the
    rank-2n integer array x against the shears S_m of the rank-n base A.
    The p + 1 products run in float64 while sum|x| * max|A|**2 < 2**53 and
    in int64 up to 2**63 - 1; beyond that the call refuses, before any
    work, exactly when full_correlation would refuse x against the members.
    """
    x, base = np.asarray(x, dtype=np.int64), np.asarray(base, dtype=np.int64)
    if x.shape != base.shape * 2:
        raise ValueError(f"dimension mismatch: {x.shape} vs the members' {base.shape * 2}")
    bound = _theta_bound(x, base) * int(_magnitudes(base).max())
    _check_int64(bound)
    return _tables(x, base, ms, _shear_indices(base.shape[0], base.ndim), bound)


def sheared_tables(base, pairs: Iterable[tuple[int, int]]) -> Iterator[np.ndarray]:
    """Exact int64 tables theta_{S_m, S_m'}, one per (m, m') in `pairs`, in
    order, of the shears of the rank-n base A: the `member_tables` of S_0,
    re-indexed per pair by the same index arrays. Each S_m has
    sum|S_m| * max|S_m| = (sum|A| * max|A|)**2, so this refuses, when
    called, exactly when full_correlation would refuse the members.
    """
    base = np.asarray(base, dtype=np.int64)
    bound = _theta_bound(base, base) ** 2
    _check_int64(bound)
    p, pairs = base.shape[0], list(pairs)
    indices = _shear_indices(p, base.ndim)
    ds = sorted({(m2 - m) % p for m, m2 in pairs})
    by_d = dict(zip(ds, _tables(shear(base, 0), base, ds, indices, bound)))
    shape = base.shape * 2
    return (np.take(by_d[(m2 - m) % p], indices[m % p]).reshape(shape) for m, m2 in pairs)


def _round_exact(table: np.ndarray) -> np.ndarray:
    rounded = np.rint(table)
    residual = float(np.abs(table - rounded).max())
    if residual >= RESIDUAL_TOLERANCE:
        raise PrecisionError(
            f"rounding residual {residual:.3e} >= {RESIDUAL_TOLERANCE:.0e}; "
            "array too large for the float path"
        )
    return rounded.astype(np.int64)


def exact_tables(
    x: np.ndarray, spectra: Iterable[np.ndarray], bound: int
) -> Iterator[np.ndarray]:
    """Exact int64 tables theta_{x,y}(s) of x against each y in turn, given
    as its half spectrum `np.fft.rfftn(y)` over x's axes; `bound` caps every
    |theta|. One transform of x, then one inverse per table read. Raises
    PrecisionError, before any transform, when `bound` reaches 2**53, where
    float64 would round without a residual to show it; and, as a table is
    read, when a rounding residual reaches RESIDUAL_TOLERANCE.
    """
    if bound >= 2**53:
        raise PrecisionError(
            f"correlation values may reach {bound} >= 2**53; too large for the float path"
        )
    axes = tuple(range(x.ndim))
    fx_conj = np.conj(np.fft.rfftn(x, axes=axes))
    return (_round_exact(np.fft.irfftn(fx_conj * fy, s=x.shape, axes=axes)) for fy in spectra)


def full_correlation_fast(a, b) -> IntArray:
    """FFT-accelerated correlation table; must equal full_correlation.

    Raises PrecisionError, as `exact_tables` does, when the values may reach
    2**53 or a rounding residual reaches RESIDUAL_TOLERANCE: the array is
    then too large for the float path, and the oracle applies.
    """
    _check_same_dims(a, b)
    if a.size > FAST_SIZE_LIMIT:
        raise ValueError(f"array size {a.size} exceeds fast-path limit {FAST_SIZE_LIMIT}")
    bound = _theta_bound(a.values, b.values)
    (table,) = exact_tables(a.values, [np.fft.rfftn(b.values)], bound)
    return IntArray(table)


# The pair kernels of `corr`, without and with --fast.
_METHODS = {"naive": full_correlation, "fast": full_correlation_fast}


class PeakShifts(Sequence):
    """Shifts of a correlation table, in C order, each read as a tuple of ints.

    Held as one int64 array of flat (C-order) indices into a table of the
    given shape; a shift's tuple is made only when it is read. Compares
    equal to another PeakShifts of the same shifts, or to the tuple of
    their tuples.
    """

    __slots__ = ("flat", "shape")

    def __init__(self, flat: np.ndarray, shape: tuple[int, ...]):
        self.flat = flat
        self.shape = tuple(shape)

    def __len__(self) -> int:
        return len(self.flat)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PeakShifts(self.flat[i], self.shape)
        return tuple(int(c) for c in np.unravel_index(self.flat[i], self.shape))

    def __iter__(self):
        return map(tuple, self.tolist())

    def __eq__(self, other):
        if isinstance(other, PeakShifts):
            return self.shape == other.shape and np.array_equal(self.flat, other.flat)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"PeakShifts({len(self)} shifts of {self.shape})"

    def tolist(self) -> list[list[int]]:
        """Every shift as a list of ints, in order."""
        return np.stack(np.unravel_index(self.flat, self.shape), axis=-1).tolist()


@dataclass(frozen=True)
class CorrelationReport:
    """Outcome of checking a correlation table against its proven bound.

    For autocorrelation the bound applies off-peak (every shift except
    all-zeros); for cross-correlation it applies to every shift, and
    `off_peak_max_abs`/`peak_shifts`/`value_histogram` cover all shifts.
    `peak_value` is always the correlation at the all-zero shift.
    `peak_shifts` holds every bounded shift where |theta| equals
    `off_peak_max_abs`, in C order, as a `PeakShifts`: one int64 array of
    flat table indices, read as a sequence of shift tuples.
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

    def to_json_dict(self, max_shifts: int | None = None) -> dict:
        """The report as JSON-ready values. `peak_shift_count` counts every
        attaining shift; `peak_shifts` lists the first `max_shifts` of them
        in C order, or all of them when `max_shifts` is None."""
        return {
            "mode": self.mode,
            "members": list(self.members),
            "bound": self.bound,
            "peak_value": self.peak_value,
            "off_peak_max_abs": self.off_peak_max_abs,
            "peak_shift_count": len(self.peak_shifts),
            "peak_shifts": self.peak_shifts[:max_shifts].tolist(),
            "value_histogram": {str(k): v for k, v in sorted(self.value_histogram.items())},
            "passed": self.passed,
            "values_match_derivation": self.values_match_derivation,
        }


def _bound_report(table: np.ndarray, q: int, *ms: int) -> CorrelationReport:
    # One member index (auto) bounds every shift but the zero shift, flat
    # index 0 in C order, by q - 1; two (cross) bound every shift by q + 1,
    # where q = p^n is the field size.
    auto = len(ms) == 1
    bound = q - 1 if auto else q + 1
    flat = table.reshape(-1)
    start = 1 if auto else 0
    region = flat[start:]
    abs_region = np.abs(region)
    max_abs = int(abs_region.max())
    attaining = np.flatnonzero(abs_region == max_abs) + start
    values, counts = np.unique(region, return_counts=True)
    histogram = {int(v): int(c) for v, c in zip(values, counts)}
    observed = set(histogram)
    return CorrelationReport(
        mode="auto" if auto else "cross",
        members=ms,
        bound=bound,
        peak_value=int(flat[0]),
        off_peak_max_abs=max_abs,
        peak_shifts=PeakShifts(attaining, table.shape),
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
    verify_cross_correlation's on the members, but from `sheared_tables` on
    the family's base: no member is built. Refuses origin value a != 0, as
    those do, before any table is made.
    """
    _check_auto(family.params)
    ms = range(len(family))
    pairs = list(itertools.combinations(ms, 2))
    q = family.params.p ** family.params.n
    tables = sheared_tables(family.base.values, [(m, m) for m in ms] + pairs)
    auto = [_bound_report(next(tables), q, m) for m in ms]
    cross = [_bound_report(next(tables), q, m1, m2) for m1, m2 in pairs]
    return auto, cross


@dataclass(frozen=True)
class WelchMetrics:
    """Exact rational comparison of the family's bound-to-peak ratio
    against the p^n / p^{2n} lower-bound benchmark."""

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
