"""Arithmetic over GF(p) and GF(p^n) for array construction.

Everything here is exact integer arithmetic: deterministic trial division
for primality and factoring, and one representation of GF(p)[x]/(f), the
companion matrix X of multiplication by x modulo the monic f. A row vector
of coefficients times X is the element times x, so powers of X give the
multiplicative-order test for primitivity and the powers of the generator
by doubling. antilog_table is the one GF(p^n) table and the one proof of
its modulus: it proves the modulus primitive from its own rows. An array's
field is its modulus alone, which LegendreParams fixes when it is made.
The primitive-polynomial search skips every constant term c_0 whose norm
(-1)^n * c_0 is not a primitive root mod p; the order test stays the only
authority on the candidates that remain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# antilog_table() builds and caches tables up to this field order, one per
# modulus, and refuses larger fields.
_POWER_TABLE_LIMIT = 1 << 22


def is_prime(u: int) -> bool:
    """Deterministic trial-division primality test (fine for u < 2**32)."""
    return u >= 2 and factorize(u) == [u]


def factorize(u: int) -> list[int]:
    """Prime factors of u with multiplicity, ascending. Requires u >= 2."""
    if u < 2:
        raise ValueError(f"factorize requires u >= 2, got {u}")
    out = []
    d = 2
    while d * d <= u:
        while u % d == 0:
            out.append(d)
            u //= d
        d += 1 if d == 2 else 2
    if u > 1:
        out.append(u)
    return out


@lru_cache(maxsize=None)
def _prime_divisors(u: int) -> tuple[int, ...]:
    """Distinct prime factors of u, ascending; cached for the search's reuse."""
    return tuple(sorted(set(factorize(u))))


def _is_primitive_root(g: int, p: int) -> bool:
    """True iff g generates the multiplicative group mod the prime p."""
    return g % p != 0 and all(pow(g, (p - 1) // q, p) != 1 for q in _prime_divisors(p - 1))


def _check_odd_prime(p: int) -> int:
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    return p


@lru_cache(maxsize=None)
def quadratic_residues(p: int) -> frozenset[int]:
    """The (p-1)/2 nonzero quadratic residues mod an odd prime p."""
    _check_odd_prime(p)
    return frozenset(pow(k, 2, p) for k in range(1, p))


@dataclass(frozen=True)
class Poly:
    """Polynomial over GF(p), little-endian: coeffs[j] multiplies x**j.

    Normalized so the leading coefficient is nonzero (the zero polynomial
    is stored as (0,)).
    """

    coeffs: tuple[int, ...]
    p: int

    def __post_init__(self):
        _check_odd_prime(self.p)
        if not self.coeffs:
            raise ValueError("empty coefficient list")
        reduced = tuple(c % self.p for c in self.coeffs)
        while len(reduced) > 1 and reduced[-1] == 0:
            reduced = reduced[:-1]
        object.__setattr__(self, "coeffs", reduced)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @classmethod
    def parse(cls, text: str, p: int) -> "Poly":
        """Parse a comma-separated coefficient list, constant term first."""
        try:
            coeffs = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError(f"bad polynomial string {text!r}") from None
        return cls(coeffs, p)

    def format(self) -> str:
        """Inverse of parse: 'c0,c1,...' constant term first."""
        return ",".join(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        terms = []
        for j in range(self.degree, -1, -1):
            c = self.coeffs[j]
            if c == 0 and self.degree > 0:
                continue
            if j == 0:
                terms.append(str(c))
            elif j == 1:
                terms.append("x" if c == 1 else f"{c}x")
            else:
                terms.append(f"x^{j}" if c == 1 else f"{c}x^{j}")
        return " + ".join(terms) if terms else "0"


def _check_monic(poly: Poly, n: int) -> None:
    if poly.degree != n or not poly.is_monic:
        raise ValueError(f"expected a monic polynomial of degree {n}, got {poly}")


def _companion(modulus: Poly, n: int) -> np.ndarray:
    """The (n, n) matrix X of multiplication by x modulo the monic `modulus`.

    Row i is x**(i+1) mod `modulus`, so a row vector of little-endian
    coefficients times X, mod p, is that element times x. Entries are below
    p, and a product of two such matrices sums n terms below (p - 1)**2:
    X is int64 while that stays below 2**63, and holds exact Python ints
    (object dtype) beyond.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    _check_monic(modulus, n)
    p = modulus.p
    x = np.zeros((n, n), dtype=np.int64 if n * (p - 1) ** 2 < 2**63 else object)
    x[np.arange(n - 1), np.arange(1, n)] = 1  # x * x**i = x**(i+1)
    x[n - 1] = [-c % p for c in modulus.coeffs[:n]]  # x**n mod the monic modulus
    return x


def is_primitive(poly: Poly, n: int | None = None) -> bool:
    """True iff x generates the multiplicative group of GF(p)[x]/(poly).

    Tests that the order of x is exactly p**n - 1: x**(p**n - 1) == 1 and
    x**((p**n - 1)/q) != 1 for every prime q dividing p**n - 1, from the
    squares X**(2**k) of the companion matrix, made once for all exponents.
    When the order is maximal the quotient ring is necessarily a field, so
    no separate irreducibility check is needed.
    """
    if n is None:
        n = poly.degree
    x = _companion(poly, n)
    p = poly.p
    order = p**n - 1
    squares = [x]
    for _ in range(order.bit_length() - 1):
        squares.append(squares[-1] @ squares[-1] % p)
    one = [1] + [0] * (n - 1)

    def x_power_is_one(e: int) -> bool:
        row = np.array(one, dtype=x.dtype)
        for k, square in enumerate(squares):
            if e >> k & 1:
                row = row @ square % p
        return row.tolist() == one

    return x_power_is_one(order) and not any(
        x_power_is_one(order // q) for q in _prime_divisors(order)
    )


def find_primitive_poly(p: int, n: int) -> Poly:
    """Smallest monic primitive polynomial of degree n over GF(p).

    Candidates x**n + c_{n-1} x**(n-1) + ... + c_0 are scanned in
    lexicographic order of (c_0, ..., c_{n-1}), so the result is
    deterministic across runs. A c_0 whose norm (-1)**n * c_0 is not a
    primitive root mod p cannot start a primitive polynomial, so its whole
    block of p**(n-1) candidates is skipped untested.
    """
    _check_odd_prime(p)
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    for c0 in range(p):
        if not _is_primitive_root((-1) ** n * c0, p):
            continue
        for rest in itertools.product(range(p), repeat=n - 1):
            cand = Poly((c0, *rest, 1), p)
            if is_primitive(cand, n):
                return cand
    raise RuntimeError(f"no primitive polynomial of degree {n} over GF({p})")


@lru_cache(maxsize=None)
def antilog_table(modulus: Poly) -> np.ndarray:
    """Read-only (p**n - 1, n) int64 array whose row i is x**i mod `modulus`.

    `modulus` must be monic of degree n >= 1. A row vector times the
    companion matrix X is the next power, so rows [L, 2L) are rows [0, L)
    times X**L: the table is enumerated by doubling, in about log2(p**n)
    matrix products mod p. The rows then prove the modulus primitive, by
    is_primitive's order test read off the table: the last row times X is
    1, and row (p**n - 1)/q is not, for each prime q dividing p**n - 1. So
    x has order exactly p**n - 1, and the rows are the p**n - 1 distinct
    nonzero field elements. Any other modulus is refused, as are fields of
    order above _POWER_TABLE_LIMIT, on every call. The table is built and
    proved once per modulus and cached, so later callers share it.
    """
    p, n = modulus.p, modulus.degree
    order = p**n - 1
    if order > _POWER_TABLE_LIMIT:
        raise ValueError(f"field order {order + 1} too large to tabulate")
    x = _companion(modulus, n)
    table = np.zeros((order, n), dtype=np.int64)
    table[0, 0] = 1
    step, filled = x, 1
    while filled < order:
        count = min(filled, order - filled)
        table[filled : filled + count] = table[:count] @ step % p
        step = step @ step % p
        filled += count
    one = table[0].tolist()
    if (table[-1] @ x % p).tolist() != one or any(
        table[order // q].tolist() == one for q in _prime_divisors(order)
    ):
        raise ValueError(f"{modulus} is not primitive of degree {n} over GF({p})")
    table.flags.writeable = False
    return table


class ExtField:
    """GF(p^n) as GF(p)[x]/(modulus), kept only while perfbench's
    `fields.powers` span names it. antilog_table is the one GF(p^n) table
    and proof of its modulus, so this class checks nothing of its own."""

    def __init__(self, modulus: Poly):
        self.modulus = modulus

    def powers(self) -> list[tuple[int, ...]]:
        """The rows of antilog_table(modulus), x**0 to x**(p**n - 2), as tuples."""
        return [tuple(row) for row in antilog_table(self.modulus).tolist()]
