import itertools

import pytest

from legarray import fields
from legarray.fields import (
    ExtField,
    Poly,
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

    def test_monic_reciprocal_matches_reversal(self):
        # reciprocal of x^2+4x+2 is 2x^2+4x+1, scaled monic by 2^-1 = 3
        assert Poly((2, 4, 1), 5).monic_reciprocal().coeffs == (3, 2, 1)
        assert Poly((2, 0, 0, 2, 1), 3).monic_reciprocal().coeffs == (2, 1, 0, 0, 1)

    def test_monic_reciprocal_is_involution(self):
        for coeffs in itertools.product(range(5), repeat=2):
            poly = Poly(coeffs + (1,), 5)
            if poly.coeffs[0] == 0:
                continue
            assert poly.monic_reciprocal().monic_reciprocal() == poly

    def test_rejects_bad_characteristic(self):
        with pytest.raises(ValueError):
            Poly((1, 1), 4)
        with pytest.raises(ValueError):
            Poly((1, 1), 2)


class TestFieldMul:
    def test_alpha_squared_reduction(self):
        field = ExtField(5, 2, Poly((2, 4, 1), 5))
        # x * x = x^2 = -4x - 2 = x + 3
        assert field.mul((0, 1), (0, 1)) == (3, 1)

    def test_identity_and_zero(self):
        field = ExtField(5, 2, Poly((2, 4, 1), 5))
        for beta in [(0, 1), (3, 4), (2, 0)]:
            assert field.mul((1, 0), beta) == beta
            assert field.mul((0, 0), beta) == (0, 0)

    @pytest.mark.parametrize("p,n,poly", [(3, 2, (2, 1, 1)), (5, 2, (2, 1, 1))])
    def test_commutative_associative_exhaustive(self, p, n, poly):
        field = ExtField(p, n, Poly(poly, p))
        elements = list(itertools.product(range(p), repeat=n))
        for a, b in itertools.combinations(elements, 2):
            assert field.mul(a, b) == field.mul(b, a)
        for a, b, c in itertools.product(elements[1::3], repeat=3):
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))

    def test_rejects_large_degree(self):
        field = ExtField(5, 2, Poly((2, 4, 1), 5))
        with pytest.raises(ValueError):
            field.mul((0, 0, 1), (0, 1))


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

    def test_rejects_non_monic_or_wrong_degree(self):
        with pytest.raises(ValueError):
            is_primitive(Poly((1, 1, 2), 5))
        with pytest.raises(ValueError):
            is_primitive(Poly((1, 1), 5), n=2)


def x_order_by_repeated_mul(poly: Poly, n: int) -> int:
    """Independent order check: multiply by x one step at a time."""
    p = poly.p
    field = ExtField.__new__(ExtField)  # bypass primitivity validation
    field.p, field.n, field.modulus, field.order = p, n, poly, p**n - 1
    field._table = None
    one = (1,) + (0,) * (n - 1)
    x = (0, 1) + (0,) * (n - 2) if n >= 2 else ((-poly.coeffs[0]) % p,)
    cur = x
    for k in range(1, p**n):
        if cur == one:
            return k
        cur = field.mul(cur, x)
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


def powers_by_recurrence(field):
    """Reference antilog table: multiply by x and reduce, one power at a time."""
    p, n, mod = field.p, field.n, field.modulus.coeffs
    cur = [1] + [0] * (n - 1)
    table = [tuple(cur)]
    for _ in range(field.order - 1):
        carry = cur[-1]
        for j in range(n - 1, 0, -1):
            cur[j] = (cur[j - 1] - carry * mod[j]) % p
        cur[0] = (-carry * mod[0]) % p
        table.append(tuple(cur))
    return table


class TestPowers:
    def test_doubling_matches_recurrence(self):
        small = [(p, n) for p in range(3, 2000) if is_prime(p)
                 for n in range(1, 7) if p**n <= 2000]
        for p, n in small + [(7, 4), (3, 7), (23, 3), (5, 5), (3, 8)]:
            field = ExtField(p, n)
            assert field.powers() == powers_by_recurrence(field), (p, n)

    def test_cached_table_is_read_only(self):
        table = ExtField(5, 2).power_table()
        with pytest.raises(ValueError):
            table[0, 0] = 2

    def test_first_powers(self):
        field = ExtField(5, 2, Poly((2, 4, 1), 5))
        assert field.power(0) == (1, 0)
        assert field.power(1) == (0, 1)

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3), (7, 1)])
    def test_powers_enumerate_all_nonzero_elements(self, p, n):
        field = ExtField(p, n)
        table = field.powers()
        assert len(table) == p**n - 1
        assert len(set(table)) == p**n - 1
        assert (0,) * n not in table

    def test_power_matches_table(self):
        field = ExtField(5, 2, Poly((2, 4, 1), 5))
        table = field.powers()
        for i in [0, 1, 7, 23]:
            assert field.power(i) == table[i]

    def test_power_range_check(self):
        field = ExtField(3, 2, Poly((2, 1, 1), 3))
        with pytest.raises(ValueError):
            field.power(8)
        with pytest.raises(ValueError):
            field.power(-1)

    def test_power_refuses_untabulated_field(self):
        # 4194319 > 2**22: power() reads the antilog table, which is not built
        field = ExtField(4194319, 1)
        with pytest.raises(ValueError, match="too large to tabulate"):
            field.power(1)

    def test_rejects_non_primitive_modulus(self):
        with pytest.raises(ValueError):
            ExtField(3, 2, Poly((1, 0, 1), 3))
