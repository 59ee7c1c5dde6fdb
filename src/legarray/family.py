"""Families of 2n-dimensional ternary arrays with proven correlation bounds.

Each of the p members multiplies a rank-n base array cellwise against a
linearly sheared copy of itself:

    S_m[i_0, ..., i_{2n-1}] =
        A[i_0, ..., i_{n-1}] * A[(i_n - m*i_0) % p, ..., (i_{2n-1} - m*i_{n-1}) % p]

for 0 <= m < p. The sign of the shear fixes the member labeling; the
golden fixtures in the test suite pin this choice (flipping it relabels
member m as p - m and leaves the family, as a set, unchanged).

A family is therefore its base array: `ArrayFamily` holds only A and the
parameters, and builds a member of p^(2n) cells each time one is read.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .arrays import MAX_RANK, IntArray, TernaryArray
from .correlation import full_correlation, shear
from .legendre import LegendreParams


class ImperfectSequenceError(ValueError):
    """Input to the circulant construction has nonzero off-peak autocorrelation."""

    def __init__(self, name, shift, value):
        self.shift = shift
        self.value = value
        super().__init__(
            f"{name} is not perfect: off-peak autocorrelation at shift {shift} is {value}"
        )


@dataclass(frozen=True)
class FamilyMember:
    m: int
    arr: TernaryArray
    params: LegendreParams


@dataclass(frozen=True)
class ArrayFamily:
    """The p members of the rank-n base array A, in index order. Member m is
    built from A when it is read; indexing follows tuple rules."""

    base: TernaryArray
    params: LegendreParams

    def __post_init__(self):
        _check_base(self.base, self.params)

    def __len__(self) -> int:
        return self.params.p

    def __iter__(self) -> Iterator[FamilyMember]:
        return (self[m] for m in range(len(self)))

    def __getitem__(self, m: int) -> FamilyMember:
        return build_member(self.base, range(len(self))[m], self.params)


def _check_base(arr: TernaryArray, params: LegendreParams):
    if arr.dims != (params.p,) * params.n:
        raise ValueError(
            f"base array dims {arr.dims} do not match (p,)*n = {(params.p,) * params.n}"
        )
    # refuse before any p^(2n)-cell member is built
    if 2 * params.n > MAX_RANK:
        raise ValueError(f"rank {2 * params.n} exceeds limit {MAX_RANK}")


def build_member(arr: TernaryArray, m: int, params: LegendreParams) -> FamilyMember:
    """Construct member m from the rank-n base array."""
    params = params.resolve()
    _check_base(arr, params)
    p = params.p
    if not 0 <= m < p:
        raise ValueError(f"member index must be in [0, {p}), got {m}")
    return FamilyMember(m=m, arr=TernaryArray(shear(arr.values, m)), params=params)


def build_family(arr: TernaryArray, params: LegendreParams) -> ArrayFamily:
    """The family of members m = 0, ..., p-1 of `arr`; none is built here."""
    return ArrayFamily(base=arr, params=params.resolve())


def is_perfect(arr) -> bool:
    """True iff every off-peak periodic autocorrelation is exactly zero."""
    return _first_imperfect_shift(arr) is None


def _first_imperfect_shift(arr):
    table = full_correlation(arr, arr).values
    bad = np.flatnonzero(table.reshape(-1)[1:])  # the zero shift is flat index 0
    if bad.size == 0:
        return None
    shift = tuple(int(x) for x in np.unravel_index(bad[0] + 1, table.shape))
    return shift, int(table[shift])


def _as_sequence(seq, name) -> IntArray:
    arr = seq if isinstance(seq, (IntArray, TernaryArray)) else IntArray(np.asarray(seq))
    if arr.rank != 1:
        raise ValueError(f"{name} must be one-dimensional, got rank {arr.rank}")
    return IntArray(arr.values)


def circulant_from_perfect(a_seq, c_seq):
    """Rank-2 array S[i][j] = a[j] * c[(i+j) mod n] from two perfect sequences.

    Both inputs must have the same length and identically-zero off-peak
    autocorrelation (small integer entries are accepted, not just ternary).
    The output is again perfect; it comes back as a TernaryArray when its
    entries allow, otherwise as an IntArray.
    """
    a = _as_sequence(a_seq, "multiplication sequence")
    c = _as_sequence(c_seq, "circulant sequence")
    if a.dims != c.dims:
        raise ValueError(f"length mismatch: {a.dims[0]} vs {c.dims[0]}")
    for name, seq in (("multiplication sequence", a), ("circulant sequence", c)):
        offending = _first_imperfect_shift(seq)
        if offending is not None:
            shift, value = offending
            raise ImperfectSequenceError(name, shift[0], value)
    n = a.dims[0]
    i, j = np.indices((n, n))
    values = a.values[j] * c.values[(i + j) % n]
    if np.abs(values).max() <= 1:
        return TernaryArray(values)
    return IntArray(values)
