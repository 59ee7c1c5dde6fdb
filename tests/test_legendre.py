import itertools
import re

import numpy as np
import pytest

from legarray.correlation import full_correlation
from legarray.fields import Poly, is_primitive
from legarray.legendre import (
    LegendreParams,
    legendre_array,
    legendre_sequence,
    verify_flat_autocorrelation,
)

from reference_data import ARRAY_P3_N4, ARRAY_P5_N2, SEQ_P17, SEQ_P17_AUTOCORR
from test_fields import times_x, x_order_by_repeated_mul


def off_peak_values(arr):
    table = full_correlation(arr, arr).values
    mask = np.ones(arr.dims, dtype=bool)
    mask[(0,) * arr.rank] = False
    return set(int(v) for v in table[mask])


def reciprocal_basis_array(poly, n):
    """The classical layout: cell i is x**i modulo the monic reciprocal of
    poly, highest-power coefficient first, with sign (-1)**i."""
    p = poly.p
    reversed_coeffs = poly.coeffs[::-1]
    inv_lead = pow(reversed_coeffs[-1], p - 2, p)
    reciprocal = tuple(c * inv_lead % p for c in reversed_coeffs)
    arr = np.zeros((p,) * n, dtype=np.int8)
    cur = [1] + [0] * (n - 1)
    for i in range(p**n - 1):
        arr[tuple(reversed(cur))] = (-1) ** i
        cur = times_x(cur, reciprocal, p)
    return arr


class TestSequence:
    def test_reference_length_17(self):
        seq = legendre_sequence(17, a=0)
        assert np.array_equal(seq.values, SEQ_P17)

    def test_reference_autocorrelation(self):
        seq = legendre_sequence(17)
        assert np.array_equal(full_correlation(seq, seq).values, SEQ_P17_AUTOCORR)

    def test_p3(self):
        assert legendre_sequence(3, 0).values.tolist() == [0, 1, -1]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            legendre_sequence(15)
        with pytest.raises(ValueError):
            legendre_sequence(7, a=2)


class TestArrayGolden:
    def test_5x5(self):
        params = LegendreParams(p=5, n=2, a=0, poly=Poly.parse("2,4,1", 5))
        assert np.array_equal(legendre_array(params).values, ARRAY_P5_N2)

    def test_3x3x3x3(self):
        params = LegendreParams(p=3, n=4, a=0, poly=Poly.parse("2,0,0,2,1", 3))
        assert np.array_equal(legendre_array(params).values, ARRAY_P3_N4)

    def test_golden_arrays_have_flat_autocorrelation(self):
        params5 = LegendreParams(p=5, n=2, a=0, poly=Poly.parse("2,4,1", 5))
        rep = verify_flat_autocorrelation(legendre_array(params5))
        assert rep.passed and rep.peak == 24
        params3 = LegendreParams(p=3, n=4, a=0, poly=Poly.parse("2,0,0,2,1", 3))
        rep = verify_flat_autocorrelation(legendre_array(params3))
        assert rep.passed and rep.peak == 80

    def test_sequence_report(self):
        rep = verify_flat_autocorrelation(legendre_sequence(17))
        assert rep.passed and rep.peak == 16
        assert rep.off_peak_min == rep.off_peak_max == -1

    def test_n1_array_equals_sequence(self):
        for p in (3, 5, 17):
            arr = legendre_array(LegendreParams(p=p, n=1))
            assert arr == legendre_sequence(p)


PARAM_GRID = [
    (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (47, 1),
    (3, 2), (5, 2), (7, 2), (13, 2), (3, 3), (3, 4),
    (7, 4),  # field size 2401, the largest exhaustively checked
]


class TestInvariants:
    @pytest.mark.parametrize("p,n", PARAM_GRID)
    def test_entry_counts_for_zero_origin(self, p, n):
        arr = legendre_array(LegendreParams(p=p, n=n))
        values = arr.values
        q = p**n
        assert int((values == 0).sum()) == 1
        assert values[(0,) * n] == 0
        assert int((values == 1).sum()) == (q - 1) // 2
        assert int((values == -1).sum()) == (q - 1) // 2
        assert int(values.sum()) == 0

    @pytest.mark.parametrize("p,n", PARAM_GRID)
    def test_off_peak_autocorrelation_is_flat(self, p, n):
        arr = legendre_array(LegendreParams(p=p, n=n))
        assert off_peak_values(arr) == {-1}

    @pytest.mark.parametrize("p", [7, 11, 19])
    def test_nonzero_origin_three_mod_four(self, p):
        # p = 4k-1: off-peak stays -1 even with a = +/-1
        assert p % 4 == 3
        for a in (1, -1):
            seq = legendre_sequence(p, a=a)
            assert off_peak_values(seq) == {-1}

    @pytest.mark.parametrize("p", [5, 13, 17])
    def test_nonzero_origin_one_mod_four(self, p):
        assert p % 4 == 1
        for a in (1, -1):
            seq = legendre_sequence(p, a=a)
            assert off_peak_values(seq) <= {1, -3}

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
    def test_nonzero_origin_higher_dimensions(self, p, n):
        for a in (1, -1):
            arr = legendre_array(LegendreParams(p=p, n=n, a=a))
            assert off_peak_values(arr) <= {1, -1, 3, -3}

    def test_every_primitive_poly_gives_flat_array(self):
        arrays = []
        for tail in itertools.product(range(3), repeat=2):
            poly = Poly(tail + (1,), 3)
            try:
                primitive = is_primitive(poly, 2)
            except ValueError:
                continue
            if not primitive:
                continue
            arr = legendre_array(LegendreParams(p=3, n=2, poly=poly))
            assert off_peak_values(arr) == {-1}
            arrays.append(arr)
        assert len(arrays) == 2  # phi(8)/2 primitive polynomials
        assert arrays[0] != arrays[1]  # cells permuted, property preserved

    def test_default_poly_is_deterministic(self):
        a = legendre_array(LegendreParams(p=3, n=2))
        b = legendre_array(LegendreParams(p=3, n=2))
        assert a == b


class TestValidation:
    def test_rejects_non_primitive_poly(self):
        with pytest.raises(ValueError):
            legendre_array(LegendreParams(p=3, n=2, poly=Poly((1, 0, 1), 3)))

    def test_makes_no_order_test(self, monkeypatch):
        # for n >= 2 the antilog table proves a searched or a supplied
        # polynomial; only find_primitive_poly runs the order test. At n = 1
        # no table is built, so a supplied polynomial gets one order test.
        import legarray.fields as fields_mod
        import legarray.legendre as legendre_mod

        tested = []

        def counting_is_primitive(poly, n=None):
            tested.append((poly, n))
            return is_primitive(poly, n)

        monkeypatch.setattr(fields_mod, "is_primitive", counting_is_primitive)
        monkeypatch.setattr(legendre_mod, "is_primitive", counting_is_primitive)
        searched = LegendreParams(p=5, n=2).resolve()
        assert tested[-1][0] == searched.poly
        tested.clear()
        legendre_array(searched)
        legendre_array(LegendreParams(p=5, n=2, poly=Poly((2, 4, 1), 5)))
        legendre_array(LegendreParams(p=5, n=1))
        assert tested == []
        legendre_array(LegendreParams(p=5, n=1, poly=Poly((2, 1), 5)))
        assert tested == [(Poly((2, 1), 5), 1)]

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2), (3, 3), (3, 4)])
    def test_accepts_exactly_the_primitive_polys(self, p, n):
        # n = 1 ignores the polynomial; test_fields checks the table there
        for tail in itertools.product(range(p), repeat=n):
            poly = Poly(tail + (1,), p)
            params = LegendreParams(p=p, n=n, poly=poly)
            if x_order_by_repeated_mul(poly, n) == p**n - 1:
                assert np.array_equal(legendre_array(params).values, reciprocal_basis_array(poly, n))
            else:
                with pytest.raises(ValueError, match=f"{re.escape(str(poly))} is not primitive"):
                    legendre_array(params)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LegendreParams(p=9, n=2)
        with pytest.raises(ValueError):
            LegendreParams(p=3, n=0)
        with pytest.raises(ValueError):
            LegendreParams(p=3, n=2, a=2)
        with pytest.raises(ValueError):
            LegendreParams(p=3, n=2, poly=Poly((2, 4, 1), 5))

    def test_rejects_untabulated_field_before_search(self):
        # 3^14 - 1 > 2**22: refused at construction, before any polynomial search
        with pytest.raises(ValueError, match="too large to tabulate"):
            LegendreParams(p=3, n=14)
        LegendreParams(p=3, n=13)
        LegendreParams(p=4194319, n=1)
