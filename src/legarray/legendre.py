"""Ternary sequences and n-dimensional arrays with flat autocorrelation.

The 1-D construction marks quadratic residues mod an odd prime p with +1
and non-residues with -1 (the origin value `a` is free). The n-D
generalization places +1/-1 at the coordinates of even/odd powers of a
primitive element of GF(p^n); with a = 0 every off-peak periodic
autocorrelation equals exactly -1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .arrays import MAX_RANK, TernaryArray
from .correlation import full_correlation
from .fields import _POWER_TABLE_LIMIT, Poly, _check_odd_prime, antilog_table, find_primitive_poly, is_primitive, quadratic_residues


@dataclass(frozen=True)
class LegendreParams:
    """Construction parameters: size p, dimension n, origin value, polynomial.

    `poly` must be monic primitive of degree n; it is ignored for n = 1,
    where quadratic residues are used directly. When omitted it defaults to
    the deterministic find_primitive_poly(p, n). `searched` is True only on
    the params `resolve()` returns with a polynomial it searched for, which
    that search has proved primitive.
    """

    p: int
    n: int
    a: int = 0
    poly: Poly | None = None
    searched: bool = dataclasses.field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_odd_prime(self.p)
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        # Refuse before any primitive-polynomial search: legendre_array
        # needs the full antilog table of GF(p^n).
        if self.n >= 2 and self.p**self.n - 1 > _POWER_TABLE_LIMIT:
            raise ValueError(f"field order {self.p**self.n} too large to tabulate")
        if self.a not in (-1, 0, 1):
            raise ValueError(f"origin value must be in {{-1,0,1}}, got {self.a}")
        if self.poly is not None and self.poly.p != self.p:
            raise ValueError("polynomial characteristic does not match p")

    def resolve(self) -> "LegendreParams":
        """Fill in the default polynomial so downstream outputs are reproducible."""
        if self.n == 1 or self.poly is not None:
            return self
        resolved = LegendreParams(self.p, self.n, self.a, find_primitive_poly(self.p, self.n))
        object.__setattr__(resolved, "searched", True)
        return resolved


def legendre_sequence(p: int, a: int = 0) -> TernaryArray:
    """Length-p ternary sequence: s[0] = a, s[k] = +1 iff k is a QR mod p."""
    _check_odd_prime(p)
    if a not in (-1, 0, 1):
        raise ValueError(f"origin value must be in {{-1,0,1}}, got {a}")
    residues = quadratic_residues(p)
    seq = np.full(p, -1, dtype=np.int8)
    seq[0] = a
    seq[sorted(residues)] = 1
    return TernaryArray(seq)


def legendre_array(params: LegendreParams) -> TernaryArray:
    """Rank-n array of extent p per axis built from GF(p^n).

    Cell coordinates are the coefficient vectors of the powers of the
    generator, highest-power coefficient first, expanded modulo the monic
    reciprocal of params.poly. The reciprocal-basis convention is pinned by
    the golden fixtures in the test suite; supplying the reciprocal
    polynomial yourself yields the same cells relabeled. The sign of a cell
    is +1 for even exponents, -1 for odd; the origin holds params.a.
    """
    # refuse before the primitive-polynomial search and the antilog table
    if params.n > MAX_RANK:
        raise ValueError(f"rank {params.n} exceeds limit {MAX_RANK}")
    params = params.resolve()
    p, n = params.p, params.n
    if n == 1:
        return legendre_sequence(p, params.a)
    if not params.searched and not is_primitive(params.poly, n):
        raise ValueError(f"{params.poly} is not primitive of degree {n} over GF({p})")
    # the reciprocal of a primitive polynomial is primitive: no second proof
    coeffs = antilog_table(params.poly.monic_reciprocal())  # (p^n - 1, n), little-endian
    signs = np.where(np.arange(len(coeffs)) % 2 == 0, 1, -1).astype(np.int8)
    arr = np.zeros((p,) * n, dtype=np.int8)
    arr[(0,) * n] = params.a
    arr[tuple(coeffs[:, n - 1 - k] for k in range(n))] = signs
    return TernaryArray(arr)


@dataclass(frozen=True)
class FlatAutocorrelationReport:
    peak: int
    off_peak_min: int
    off_peak_max: int
    passed: bool  # every off-peak autocorrelation == -1


def verify_flat_autocorrelation(arr: TernaryArray) -> FlatAutocorrelationReport:
    """Exhaustively check that all off-peak periodic autocorrelations are -1."""
    flat = full_correlation(arr, arr).values.reshape(-1)
    off_peak = flat[1:]  # the zero shift is flat index 0
    return FlatAutocorrelationReport(
        peak=int(flat[0]),
        off_peak_min=int(off_peak.min()),
        off_peak_max=int(off_peak.max()),
        passed=bool((off_peak == -1).all()),
    )
