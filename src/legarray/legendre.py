"""Ternary sequences and n-dimensional arrays with flat autocorrelation.

The 1-D construction marks quadratic residues mod an odd prime p with +1
and non-residues with -1 (the origin value `a` is free). The n-D
generalization places +1/-1 at the coordinates of even/odd powers of a
primitive element of GF(p^n); with a = 0 every off-peak periodic
autocorrelation equals exactly -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import MAX_RANK, TernaryArray
from .correlation import full_correlation
from .fields import _POWER_TABLE_LIMIT, Poly, _check_monic, _check_odd_prime, antilog_table, find_primitive_poly, is_primitive, quadratic_residues


@dataclass(frozen=True)
class LegendreParams:
    """Construction parameters: size p, dimension n, origin value, polynomial.

    Complete when made. For n >= 2 an omitted `poly` is filled in here with
    the deterministic find_primitive_poly(p, n). For n = 1 the array is the
    quadratic-residue sequence, the same for every primitive root, so none
    is searched for and `poly` stays None unless supplied.

    Every check but primitivity runs here, before any search: an odd prime
    p, n >= 1, a field small enough to tabulate, a in {-1, 0, 1}, n at most
    MAX_RANK, and a supplied `poly` monic of degree n over GF(p).
    legendre_array proves primitivity.
    """

    p: int
    n: int
    a: int = 0
    poly: Poly | None = None

    def __post_init__(self):
        _check_odd_prime(self.p)
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        # legendre_array needs the full antilog table of GF(p^n)
        if self.n >= 2 and self.p**self.n - 1 > _POWER_TABLE_LIMIT:
            raise ValueError(f"field order {self.p**self.n} too large to tabulate")
        if self.a not in (-1, 0, 1):
            raise ValueError(f"origin value must be in {{-1,0,1}}, got {self.a}")
        if self.poly is not None and self.poly.p != self.p:
            raise ValueError("polynomial characteristic does not match p")
        if self.n > MAX_RANK:
            raise ValueError(f"rank {self.n} exceeds limit {MAX_RANK}")
        if self.poly is not None:
            _check_monic(self.poly, self.n)
        elif self.n >= 2:
            object.__setattr__(self, "poly", find_primitive_poly(self.p, self.n))


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

    The cell at the little-endian coefficients of x**j mod params.poly
    holds (-1)**(j + n - 1), the origin params.a; the antilog table refuses
    a polynomial that is not primitive. This is the classical layout of the
    generator's powers modulo the monic reciprocal of params.poly, highest
    power first: its i-th power has the coefficients of x**(n - 1 - i), and
    p**n - 1 is even. The golden fixtures in the test suite pin it;
    supplying the reciprocal polynomial yourself relabels the cells.

    `params` fixed the polynomial and made every other check; only
    primitivity is proved here: for n >= 2 by the antilog table, and at
    n = 1, where a supplied polynomial plays no part, by the order test.
    """
    p, n = params.p, params.n
    if n == 1:
        # no table to prove it: the order test, on a 1 x 1 companion matrix
        if params.poly is not None and not is_primitive(params.poly, 1):
            raise ValueError(f"{params.poly} is not primitive of degree 1 over GF({p})")
        return legendre_sequence(p, params.a)
    coeffs = antilog_table(params.poly)  # (p^n - 1, n), little-endian
    signs = np.where((np.arange(len(coeffs)) + n - 1) % 2 == 0, 1, -1).astype(np.int8)
    arr = np.zeros((p,) * n, dtype=np.int8)
    arr[(0,) * n] = params.a
    arr[tuple(coeffs.T)] = signs
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
