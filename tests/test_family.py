import itertools

import numpy as np
import pytest

from legarray.arrays import IntArray, TernaryArray
from legarray.family import (
    ArrayFamily,
    ImperfectSequenceError,
    build_family,
    build_member,
    circulant_from_perfect,
    is_perfect,
)
from legarray.fields import Poly
from legarray.legendre import LegendreParams, legendre_array, legendre_sequence

from reference_data import FAMILY_P3_N2_S1, FAMILY_P3_N2_S2


def brute_autocorrelation(seq):
    """Hand oracle: list of sums over explicit index arithmetic."""
    n = len(seq)
    return [sum(seq[i] * seq[(i + s) % n] for i in range(n)) for s in range(n)]


class TestGoldenMembers:
    def test_printed_members(self, params_3_2, family_3_2):
        assert np.array_equal(family_3_2[1].arr.values, FAMILY_P3_N2_S1)
        assert np.array_equal(family_3_2[2].arr.values, FAMILY_P3_N2_S2)

    def test_origin_cell_is_zero(self, family_3_2):
        for member in family_3_2:
            assert member.arr.get((0, 0, 0, 0)) == 0


MEMBER_GRID = [(3, 2), (5, 2), (7, 2), (3, 3)]


def make_family(p, n):
    params = LegendreParams(p=p, n=n)
    return build_family(legendre_array(params), params)


class TestConstruction:
    def test_defining_product_identity_by_loop(self, family_3_2):
        # independent cellwise evaluation of the construction formula
        a = legendre_array(family_3_2.params).values
        p, n = 3, 2
        for member in family_3_2:
            m = member.m
            for idx in np.ndindex(member.arr.dims):
                head = idx[:n]
                sheared = tuple((idx[n + k] - m * idx[k]) % p for k in range(n))
                assert member.arr.get(idx) == a[head] * a[sheared], (m, idx)

    @pytest.mark.parametrize(
        "p,n",
        [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 2), (11, 2), (13, 2)],
    )
    def test_defining_product_identity_exhaustive(self, p, n):
        # reference: the formula on full np.indices grids; up to 28561 cells
        # per member, and (3,4) members sit at the rank limit 8
        params = LegendreParams(p=p, n=n)
        a = legendre_array(params).values
        idx = np.indices((p,) * (2 * n))
        first = a[tuple(idx[k] for k in range(n))]
        for member in build_family(legendre_array(params), params):
            sheared = tuple((idx[n + k] - member.m * idx[k]) % p for k in range(n))
            expected = first * a[sheared]
            assert member.arr.values.dtype == expected.dtype
            assert np.array_equal(member.arr.values, expected)

    @pytest.mark.parametrize("p,n", MEMBER_GRID)
    def test_entry_counts(self, p, n):
        q = p**n
        for member in make_family(p, n):
            values = member.arr.values
            assert int((values == 0).sum()) == 2 * q - 1
            assert int((values != 0).sum()) == q * q - 2 * q + 1
            assert int(values.sum()) == 0

    def test_members_share_value_multiset(self, family_5_2):
        histograms = set()
        for member in family_5_2:
            values, counts = np.unique(member.arr.values, return_counts=True)
            histograms.add(tuple(zip(values.tolist(), counts.tolist())))
        assert len(histograms) == 1

    def test_member_zero_is_separable(self):
        params = LegendreParams(p=5, n=2)
        a = legendre_array(params)
        member = build_member(a, 0, params)
        av = a.values
        expected = av[:, :, None, None] * av[None, None, :, :]
        assert np.array_equal(member.arr.values, expected)

    def test_first_half_zero_slice_vanishes(self, family_3_2):
        for member in family_3_2:
            assert (member.arr.values[0, 0] == 0).all()

    def test_family_size_and_indexing(self, family_3_2):
        assert len(family_3_2) == 3
        assert [member.m for member in family_3_2] == [0, 1, 2]
        assert family_3_2[2].m == 2
        base, params = family_3_2.base, family_3_2.params
        for m in range(-3, 3):
            assert family_3_2[m] == build_member(base, m % 3, params)
        with pytest.raises(IndexError):
            family_3_2[3]
        assert build_family(legendre_array(params), params) == family_3_2
        other = LegendreParams(p=3, n=2, poly=Poly.parse("2,1,1", 3))
        assert build_family(legendre_array(other), other) != family_3_2

    def test_validation(self, params_3_2):
        base = legendre_array(params_3_2)
        with pytest.raises(ValueError):
            build_member(base, 3, params_3_2)
        with pytest.raises(ValueError):
            build_member(base, -1, params_3_2)
        wrong = TernaryArray(np.zeros((3, 4), dtype=np.int8))
        with pytest.raises(ValueError):
            build_member(wrong, 1, params_3_2)
        with pytest.raises(ValueError, match="base array dims"):
            ArrayFamily(base=wrong, params=params_3_2)


class TestIsPerfect:
    def test_known_perfect_sequence(self):
        seq = [1, 1, 1, -1]
        assert brute_autocorrelation(seq) == [4, 0, 0, 0]
        assert is_perfect(TernaryArray(seq))

    def test_legendre_sequence_is_not_perfect(self):
        assert not is_perfect(legendre_sequence(17))

    def test_single_element(self):
        assert is_perfect(TernaryArray([1]))

    def test_rank_two(self):
        arr = circulant_from_perfect([1, 1, 1, -1], [1, 1, 1, -1])
        assert is_perfect(arr)


def all_perfect_binary_length4():
    out = []
    for signs in itertools.product((-1, 1), repeat=4):
        if brute_autocorrelation(list(signs))[1:] == [0, 0, 0]:
            out.append(list(signs))
    return out


class TestCirculant:
    def test_reference_construction(self):
        a = [1, 1, 1, -1]
        arr = circulant_from_perfect(a, a)
        assert isinstance(arr, TernaryArray)
        assert arr.dims == (4, 4)
        # formula: S[i][j] = a[j] * c[(i+j) mod n]
        for i in range(4):
            for j in range(4):
                assert arr.get((i, j)) == a[j] * a[(i + j) % 4]
        table = brute_autocorrelation_2d(arr.values)
        assert table[0][0] == 16
        off_peak = [v for s0 in range(4) for s1 in range(4) if (s0, s1) != (0, 0) for v in [table[s0][s1]]]
        assert off_peak == [0] * 15

    def test_output_perfect_for_all_perfect_inputs(self):
        seqs = all_perfect_binary_length4()
        assert len(seqs) == 8  # rotations and negations of (1,1,1,-1)
        for a, c in itertools.product(seqs, repeat=2):
            assert is_perfect(circulant_from_perfect(a, c))

    def test_rejects_constant_sequence_with_diagnostic(self):
        with pytest.raises(ImperfectSequenceError) as exc_info:
            circulant_from_perfect([1, 1, 1, 1], [1, 1, 1, -1])
        assert exc_info.value.shift == 1
        assert exc_info.value.value == 4
        assert "shift 1" in str(exc_info.value)

    def test_rejects_imperfect_circulant_sequence(self):
        # autocorrelation of [1,1,-1,-1] at shift 2 is -4
        with pytest.raises(ImperfectSequenceError) as exc_info:
            circulant_from_perfect([1, 1, 1, -1], [1, 1, -1, -1])
        assert exc_info.value.shift == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            circulant_from_perfect([1, 1, 1, -1], [1])

    def test_non_ternary_entries_produce_int_array(self):
        # scaled perfect sequence: autocorrelation scales by 4, stays perfect
        arr = circulant_from_perfect([2, 2, 2, -2], [1, 1, 1, -1])
        assert isinstance(arr, IntArray)
        assert is_perfect(arr)


def brute_autocorrelation_2d(values):
    h, w = values.shape
    table = [[0] * w for _ in range(h)]
    for s0 in range(h):
        for s1 in range(w):
            acc = 0
            for i in range(h):
                for j in range(w):
                    acc += int(values[i][j]) * int(values[(i + s0) % h][(j + s1) % w])
            table[s0][s1] = acc
    return table
