import itertools

import numpy as np
import pytest

from legarray import fields
from legarray.fields import (
    ExtField,
    Poly,
    antilog_table,
    factorize,
    find_primitive_poly,
    is_prime,
    is_primitive,
    quadratic_residues,
)


def naive_is_prime(u):
    return u >= 2 and all(u % d for d in range(2, u))


class TestPrimality:
    def test_known_values(self):
        assert is_prime(17)
        assert not is_prime(1)
        assert not is_prime(0)
        assert is_prime(67)
        assert is_prime(2)
        assert not is_prime(2**16)

    def test_matches_naive_oracle(self):
        for u in range(500):
            assert is_prime(u) == naive_is_prime(u), u


class TestFactorize:
    @pytest.mark.parametrize(
        "u,expected",
        [(24, [2, 2, 2, 3]), (3**4 - 1, [2, 2, 2, 2, 5]), (5**2 - 1, [2, 2, 2, 3])],
    )
    def test_known_values(self, u, expected):
        assert factorize(u) == expected

    def test_product_with_multiplicity(self):
        for u in range(2, 2000):
            factors = factorize(u)
            prod = 1
            for f in factors:
                prod *= f
                assert is_prime(f)
            assert prod == u

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            factorize(1)


class TestQuadraticResidues:
    def test_known_sets(self):
        assert quadratic_residues(17) == {1, 2, 4, 8, 9, 13, 15, 16}
        assert quadratic_residues(3) == {1}
        assert quadratic_residues(7) == {1, 2, 4}

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
    def test_cardinality_and_closure(self, p):
        qr = quadratic_residues(p)
        assert len(qr) == (p - 1) // 2
        assert 0 not in qr
        for a, b in itertools.product(qr, repeat=2):
            assert (a * b) % p in qr

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            quadratic_residues(15)
        with pytest.raises(ValueError):
            quadratic_residues(2)


class TestPoly:
    def test_parse_format_round_trip(self):
        poly = Poly.parse("2,4,1", 5)
        assert poly.coeffs == (2, 4, 1)
        assert poly.degree == 2
        assert poly.is_monic
        assert poly.format() == "2,4,1"
        assert str(poly) == "x^2 + 4x + 2"

    def test_normalization(self):
        assert Poly((7, 1, 0, 0), 5).coeffs == (2, 1)
        assert Poly((0,), 5).is_zero
        assert Poly((-1, 1), 3).coeffs == (2, 1)

    def test_rejects_bad_characteristic(self):
        with pytest.raises(ValueError):
            Poly((1, 1), 4)
        with pytest.raises(ValueError):
            Poly((1, 1), 2)


class TestIsPrimitive:
    @pytest.mark.parametrize(
        "coeffs,p",
        [((2, 4, 1), 5), ((2, 0, 0, 2, 1), 3), ((2, 2, 1), 3)],
    )
    def test_known_primitive(self, coeffs, p):
        assert is_primitive(Poly(coeffs, p))

    def test_known_non_primitive(self):
        # x^2+1 over GF(3): x has order 4, not 8
        assert not is_primitive(Poly((1, 0, 1), 3))
        # x^2+x+1 over GF(5): x has order 3
        assert not is_primitive(Poly((1, 1, 1), 5))
        # reducible with x factor
        assert not is_primitive(Poly((0, 1, 1), 3))

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_degree_one_matches_x_order(self, p):
        # x + c0 is primitive iff -c0 mod p has multiplicative order p - 1
        for c0 in range(p):
            poly = Poly((c0, 1), p)
            assert is_primitive(poly) == (x_order_by_repeated_mul(poly, 1) == p - 1), c0

    def test_degree_one_exact_where_int64_products_overflow(self):
        # x - g is primitive iff g is a primitive root mod p
        p = 4294967291
        for g in range(2, 9):
            assert is_primitive(Poly((-g, 1), p)) == fields._is_primitive_root(g, p), g

    def test_rejects_non_monic_or_wrong_degree(self):
        with pytest.raises(ValueError):
            is_primitive(Poly((1, 1, 2), 5))
        with pytest.raises(ValueError):
            is_primitive(Poly((1, 1), 5), n=2)


def times_x(cur: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    """x * cur modulo the monic `mod`, little-endian: shift up, then reduce x**n."""
    n = len(mod) - 1
    carry = cur[-1]
    return [(-carry * mod[0]) % p] + [(cur[j - 1] - carry * mod[j]) % p for j in range(1, n)]


def x_order_by_repeated_mul(poly: Poly, n: int) -> int:
    """Independent order check: multiply by x one step at a time."""
    p = poly.p
    one = [1] + [0] * (n - 1)
    cur = times_x(one, poly.coeffs, p)
    for k in range(1, p**n):
        if cur == one:
            return k
        cur = times_x(cur, poly.coeffs, p)
    return 0


class TestFindPrimitivePoly:
    def test_lexicographic_first_for_3_2(self):
        # independent scan: first monic degree-2 polynomial whose x-order is 8
        found = None
        for tail in itertools.product(range(3), repeat=2):
            poly = Poly(tail + (1,), 3)
            if x_order_by_repeated_mul(poly, 2) == 8:
                found = poly
                break
        assert found is not None
        assert find_primitive_poly(3, 2) == found == Poly((2, 1, 1), 3)

    def test_degree_one_smallest_primitive_root(self):
        # x + c with -c the smallest value that is a primitive root mod 5
        poly = find_primitive_poly(5, 1)
        assert poly == Poly((2, 1), 5)
        g = (-2) % 5
        orders = {pow(g, k, 5) for k in range(1, 5)}
        assert orders == {1, 2, 3, 4}

    @pytest.mark.parametrize(
        "p,n,coeffs",
        [
            (7, 4, "3,0,1,1,1"),
            (3, 7, "1,0,0,0,0,1,2,1"),
            (23, 3, "2,0,2,1"),
            (5, 5, "2,0,0,0,3,1"),
            (17, 4, "3,0,0,6,1"),
            (43, 3, "9,0,1,1"),
            (7, 5, "2,0,0,0,2,1"),
            (13, 4, "2,0,2,6,1"),
        ],
    )
    def test_golden_polynomials(self, p, n, coeffs):
        # first primitive polynomial of the unfiltered lexicographic scan
        assert find_primitive_poly(p, n).format() == coeffs

    def test_matches_unfiltered_scan(self):
        # the norm test skips only candidates that cannot be primitive
        checked = 0
        for p in (u for u in range(3, 2001) if is_prime(u)):
            n = 1
            while p**n <= 2000:
                candidates = (
                    Poly(tail + (1,), p) for tail in itertools.product(range(p), repeat=n)
                )
                expected = next(c for c in candidates if is_primitive(c, n))
                assert find_primitive_poly(p, n) == expected, (p, n)
                checked += 1
                n += 1
        assert checked > 300

    def test_norm_test_skips_constant_terms(self, monkeypatch):
        # at (23,3) c0 = 0 and c0 = 1 (norm -1, of order 2) are skipped whole:
        # the unfiltered scan tests 1,061 candidates
        tested = []

        def counting(poly, n=None):
            tested.append(poly)
            return is_primitive(poly, n)

        monkeypatch.setattr(fields, "is_primitive", counting)
        assert fields.find_primitive_poly(23, 3).format() == "2,0,2,1"
        assert 0 < len(tested) < 10

    @pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
    def test_output_is_primitive(self, p, n):
        assert is_primitive(find_primitive_poly(p, n), n)

    def test_x_order_exact_over_desk_grid(self):
        # every prime p <= 50, n <= 4, p^n <= 1e5: output has x-order p^n - 1
        primes = [u for u in range(3, 51) if is_prime(u)]
        checked = 0
        for p in primes:
            for n in range(1, 5):
                if p**n > 100_000:
                    break
                poly = find_primitive_poly(p, n)
                assert x_order_by_repeated_mul(poly, n) == p**n - 1, (p, n)
                checked += 1
        assert checked >= 40


def powers_by_recurrence(modulus):
    """Reference antilog table: multiply by x and reduce, one power at a time."""
    p, n = modulus.p, modulus.degree
    cur = [1] + [0] * (n - 1)
    table = [tuple(cur)]
    for _ in range(p**n - 2):
        cur = times_x(cur, modulus.coeffs, p)
        table.append(tuple(cur))
    return table


def table_rows(modulus):
    return [tuple(row) for row in antilog_table(modulus).tolist()]


class TestAntilogTable:
    def test_refuses_a_modulus_whose_powers_repeat(self):
        # x^2 + 1 over GF(3): x has order 4, so the rows would repeat every 4
        with pytest.raises(ValueError, match=r"x\^2 \+ 1 is not primitive of degree 2 over GF\(3\)"):
            antilog_table(Poly((1, 0, 1), 3))

    @pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3), (3, 4)])
    def test_accepts_exactly_the_primitive_moduli(self, p, n):
        for tail in itertools.product(range(p), repeat=n):
            poly = Poly(tail + (1,), p)
            if x_order_by_repeated_mul(poly, n) == p**n - 1:
                assert table_rows(poly) == powers_by_recurrence(poly)
            else:
                with pytest.raises(ValueError, match="is not primitive"):
                    antilog_table(poly)

    def test_one_read_only_table_per_modulus(self):
        table = antilog_table(Poly((2, 2, 1), 3))
        assert antilog_table(Poly((2, 2, 1, 0), 3)) is table  # the same modulus
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 2
        fresh = antilog_table.__wrapped__(Poly((2, 2, 1), 3))
        assert fresh is not table and np.array_equal(fresh, table)

    def test_refuses_a_non_primitive_modulus_on_every_call(self):
        # a refusal is not cached: each call builds and tests the table again
        before = antilog_table.cache_info()
        for _ in range(3):
            with pytest.raises(ValueError, match="is not primitive"):
                antilog_table(Poly((1, 0, 1), 3))
        after = antilog_table.cache_info()
        assert (after.misses - before.misses, after.currsize) == (3, before.currsize)

    def test_refuses_a_non_monic_modulus(self):
        with pytest.raises(ValueError, match="expected a monic polynomial of degree 2"):
            antilog_table(Poly((1, 1, 2), 5))


class TestPowers:
    def test_doubling_matches_recurrence(self):
        small = [(p, n) for p in range(3, 2000) if is_prime(p)
                 for n in range(1, 7) if p**n <= 2000]
        for p, n in small + [(7, 4), (3, 7), (23, 3), (5, 5), (3, 8)]:
            modulus = find_primitive_poly(p, n)
            assert table_rows(modulus) == powers_by_recurrence(modulus), (p, n)

    def test_first_powers(self):
        # x^2 = -4x - 2 = x + 3
        assert table_rows(Poly((2, 4, 1), 5))[:3] == [(1, 0), (0, 1), (3, 1)]

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3), (7, 1)])
    def test_powers_enumerate_all_nonzero_elements(self, p, n):
        table = table_rows(find_primitive_poly(p, n))
        assert len(table) == p**n - 1
        assert len(set(table)) == p**n - 1
        assert (0,) * n not in table

    def test_power_refuses_untabulated_field(self):
        # 4194319 > 2**22: the field is too large for an antilog table
        with pytest.raises(ValueError, match="too large to tabulate"):
            antilog_table(Poly((1, 1), 4194319))

    def test_ext_field_reads_the_antilog_table(self):
        modulus = find_primitive_poly(5, 2)
        assert ExtField(modulus).powers() == table_rows(modulus)
        with pytest.raises(ValueError, match="is not primitive"):
            ExtField(Poly((1, 0, 1), 3)).powers()
