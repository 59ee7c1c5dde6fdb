import collections
import collections.abc
import contextlib
import dataclasses
import functools
import itertools
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legarray import correlation
from legarray.arrays import IntArray, TernaryArray
from legarray.correlation import (
    FAST_SIZE_LIMIT,
    CorrelationReport,
    PeakShifts,
    PrecisionError,
    cross_correlation_at,
    full_correlation,
    full_correlation_fast,
    member_peak,
    member_tables,
    shear,
    verify_autocorrelation,
    verify_cross_correlation,
    verify_family,
    welch_metrics,
)
from legarray.legendre import LegendreParams, legendre_array
from legarray.family import build_family, build_member

from reference_data import THETA_S1, THETA_S1_S2, THETA_S2


def loop_correlation(a, b):
    """Pure-Python triple-checked oracle for small arrays."""
    dims = a.shape
    out = np.zeros(dims, dtype=np.int64)
    for shift in np.ndindex(dims):
        acc = 0
        for idx in np.ndindex(dims):
            target = tuple((i + s) % d for i, s, d in zip(idx, shift, dims))
            acc += int(a[idx]) * int(b[target])
        out[shift] = acc
    return out


def random_pair(rng, max_rank=4, max_extent=9):
    rank = int(rng.integers(1, max_rank + 1))
    dims = tuple(int(d) for d in rng.integers(1, max_extent + 1, size=rank))
    a = TernaryArray(rng.integers(-1, 2, size=dims))
    b = TernaryArray(rng.integers(-1, 2, size=dims))
    return a, b


class TestFullCorrelation:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            a, b = random_pair(rng, max_rank=3, max_extent=4)
            expected = loop_correlation(a.values, b.values)
            assert np.array_equal(full_correlation(a, b).values, expected)

    def test_single_shift_matches_table(self):
        rng = np.random.default_rng(37)
        a, b = random_pair(rng)
        table = full_correlation(a, b).values
        for _ in range(10):
            shift = tuple(int(rng.integers(0, d)) for d in a.dims)
            assert cross_correlation_at(a, b, shift) == table[shift]

    def test_shift_reduced_cyclically(self):
        rng = np.random.default_rng(41)
        a, b = random_pair(rng)
        zero = (0,) * a.rank
        full = tuple(a.dims)
        assert cross_correlation_at(a, b, full) == cross_correlation_at(a, b, zero)

    def test_zero_shift_counts_nonzero_entries(self):
        rng = np.random.default_rng(43)
        a, _ = random_pair(rng)
        zero = (0,) * a.rank
        assert cross_correlation_at(a, a, zero) == int((a.values != 0).sum())

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            a, b = random_pair(rng, max_rank=3, max_extent=5)
            tab_ab = full_correlation(a, b).values
            tab_ba = full_correlation(b, a).values
            for shift in np.ndindex(a.dims):
                neg = tuple((-s) % d for s, d in zip(shift, a.dims))
                assert tab_ab[shift] == tab_ba[neg]

    def test_dims_mismatch_rejected(self):
        a = TernaryArray([1, 0])
        b = TernaryArray([1, 0, 1])
        with pytest.raises(ValueError):
            full_correlation(a, b)
        with pytest.raises(ValueError):
            cross_correlation_at(a, b, (0,))

    def test_int_arrays_supported(self):
        a = IntArray([[3, -2], [0, 5]])
        assert np.array_equal(full_correlation(a, a).values, loop_correlation(a.values, a.values))

    def test_refuses_tables_beyond_int64(self):
        top = 2**62
        b = IntArray([1, 0])
        # sum|a| * max|b| == 2**63 - 1 still fits
        assert full_correlation(IntArray([top, top - 1]), b).values.tolist() == [top, top - 1]
        # |INT64_MIN| is 2**63, although np.abs wraps it to INT64_MIN;
        # [2**62, 3] against itself wraps to 9 and INT64_MIN in int64
        pairs = [([top, top], [1, 0]), ([np.iinfo(np.int64).min, 0], [1, 0]), ([top, 3], [top, 3])]
        for a, b in pairs:
            with pytest.raises(ValueError, match="beyond the int64 range"):
                full_correlation(IntArray(a), IntArray(b))
            with pytest.raises(ValueError, match="beyond the int64 range"):
                cross_correlation_at(IntArray(a), IntArray(b), (0,))
        # 2**62 * 4 + 1 wraps to 1 in int64
        with pytest.raises(ValueError, match="beyond the int64 range"):
            cross_correlation_at(IntArray([top, 1]), IntArray([4, 1]), (0,))
        assert cross_correlation_at(IntArray([top, top - 1]), IntArray([1, 0]), (1,)) == top - 1


class TestReferenceTables:
    def test_autocorrelation_tables(self, family_3_2):
        s1, s2 = family_3_2[1], family_3_2[2]
        assert np.array_equal(full_correlation(s1.arr, s1.arr).values, THETA_S1)
        assert np.array_equal(full_correlation(s2.arr, s2.arr).values, THETA_S2)

    def test_cross_table(self, family_3_2):
        s1, s2 = family_3_2[1], family_3_2[2]
        assert np.array_equal(full_correlation(s1.arr, s2.arr).values, THETA_S1_S2)

    def test_known_single_values(self, family_3_2):
        s1, s2 = family_3_2[1], family_3_2[2]
        assert cross_correlation_at(s1.arr, s1.arr, (0, 0, 0, 0)) == 64
        assert cross_correlation_at(s1.arr, s2.arr, (1, 0, 0, 0)) == 10

    def test_fast_path_matches_on_reference_tables(self, family_3_2):
        s1, s2 = family_3_2[1], family_3_2[2]
        for x, y in [(s1, s1), (s2, s2), (s1, s2)]:
            assert np.array_equal(
                full_correlation_fast(x.arr, y.arr).values,
                full_correlation(x.arr, y.arr).values,
            )


class TestFastPath:
    def test_equals_naive_on_random_pairs(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            a, b = random_pair(rng)
            assert full_correlation_fast(a, b) == full_correlation(a, b)

    def test_zero_array(self):
        z = TernaryArray(np.zeros((3, 4), dtype=np.int8))
        assert (full_correlation_fast(z, z).values == 0).all()

    def test_size_limit(self):
        a = TernaryArray(np.zeros((2,), dtype=np.int8))
        big = TernaryArray.__new__(TernaryArray)
        big.values = np.zeros((FAST_SIZE_LIMIT + 1,), dtype=np.int8)
        with pytest.raises(ValueError):
            full_correlation_fast(big, big)

    def test_residual_guard(self, monkeypatch):
        a = TernaryArray([1, 0, -1, 1])
        real_irfftn = np.fft.irfftn

        def noisy_irfftn(*args, **kwargs):
            return real_irfftn(*args, **kwargs) + 0.25

        monkeypatch.setattr(np.fft, "irfftn", noisy_irfftn)
        with pytest.raises(PrecisionError):
            full_correlation_fast(a, a)

    def test_refuses_tables_reaching_2_53(self):
        # float64 rounds integers from 2**53 on, and the residual cannot see it
        top = 2**52
        b = IntArray([1, 0])
        a = IntArray([top, top - 1])
        assert full_correlation_fast(a, b) == full_correlation(a, b)
        for a in ([top, top], [2**62, 3]):
            with pytest.raises(PrecisionError, match=r"2\*\*53"):
                full_correlation_fast(IntArray(a), b)

    def test_refuses_bound_2_53_before_transforming(self, monkeypatch):
        b = IntArray([1, -1, 0])
        x = IntArray([3, 0, 1])
        assert full_correlation_fast(x, b) == full_correlation(x, b)

        def no_transform(*args, **kwargs):
            raise AssertionError("transformed before refusing")

        monkeypatch.setattr(np.fft, "rfftn", no_transform)
        for top in (2**53, 2**53 + 1, 2**62):
            with pytest.raises(PrecisionError, match=r"2\*\*53"):
                full_correlation_fast(IntArray([top, 0, 0]), b)


def test_numpy_fft_used_only_in_correlation_module():
    src = Path(__file__).resolve().parent.parent / "src" / "legarray"
    fft_use = re.compile(r"\b(np|numpy)\.fft\b|\bimport\s+fft\b")
    users = sorted(f.name for f in src.glob("*.py") if fft_use.search(f.read_text()))
    assert users == ["correlation.py"]


def test_kernel_internals_used_only_in_correlation_module():
    # the kernel's dtype tiers, shear index and addition table stay behind
    # member_peak, member_tables and verify_family
    src = Path(__file__).resolve().parent.parent / "src" / "legarray"
    internal = re.compile(r"\b(_products|_checked|_shear_index|_addition_table)\b")
    users = sorted(f.name for f in src.glob("*.py") if internal.search(f.read_text()))
    assert users == ["correlation.py"]
    text = (src / "watermark.py").read_text()
    imports = re.findall(r"^(?:from|import) .*\bcorrelation\b.*$", text, re.MULTILINE)
    assert imports == ["from .correlation import member_peak"]
    assert not re.search(r"\b(unravel_index|ravel_multi_index)\b", text)


BOUND_GRID = [(3, 1), (5, 1), (11, 1), (3, 2), (3, 3)]


CLOSED_FORM_GRID = [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3), (3, 4), (11, 2), (13, 2), (5, 3)]


def closed_form_histogram(mode, q):
    """The paper's value distribution of one member's auto report, or of one
    pair's cross report, over GF(q), with zero counts dropped."""
    if mode == "auto":
        counts = {1: (q - 1) ** 2, 1 - q: 2 * (q - 1)}
    else:
        counts = {q + 1: (q - 1) * (q - 3) // 2, 1: 3 * (q - 1), 1 - q: 1 + (q - 1) ** 2 // 2}
    return {v: count for v, count in counts.items() if count}


def family_for(p, n):
    params = LegendreParams(p=p, n=n)
    return build_family(legendre_array(params), params)


class TestBoundReports:
    def test_reference_member_reports(self, family_3_2):
        r1 = verify_autocorrelation(family_3_2[1])
        assert r1.passed
        assert r1.bound == 8
        assert r1.peak_value == 64
        assert set(r1.value_histogram) == {1, -8}
        assert r1.values_match_derivation
        r2 = verify_autocorrelation(family_3_2[2])
        assert r2.passed

    def test_reference_cross_report(self, family_3_2):
        r = verify_cross_correlation(family_3_2[1], family_3_2[2])
        assert r.passed
        assert r.bound == 10
        assert r.off_peak_max_abs == 10
        assert set(r.value_histogram) == {-8, 1, 10}
        assert r.values_match_derivation
        assert all(abs(THETA_S1_S2[tuple(s)]) == 10 for s in r.peak_shifts.tolist())

    @pytest.mark.parametrize("kernel", ["naive", "fast", "sheared"])
    def test_reference_peak_shifts_exact(self, family_3_2, kernel):
        # every shift attaining max |theta|, in C order; auto excludes the origin
        auto_abs = np.abs(THETA_S1.astype(np.int64))
        auto_abs[0, 0, 0, 0] = -1
        expected_auto = np.argwhere(auto_abs == auto_abs.max()).tolist()
        cross_abs = np.abs(THETA_S1_S2.astype(np.int64))
        expected_cross = np.argwhere(cross_abs == cross_abs.max()).tolist()
        if kernel == "naive":
            auto = verify_autocorrelation(family_3_2[1])
            cross = verify_cross_correlation(family_3_2[1], family_3_2[2])
        elif kernel == "fast":
            # the FFT pair kernel of `corr --fast`, read by the reports' builder
            m1, m2 = family_3_2[1], family_3_2[2]
            auto = correlation._bound_report(full_correlation_fast(m1.arr, m1.arr).values, 9, 1)
            cross = correlation._bound_report(
                full_correlation_fast(m1.arr, m2.arr).values, 9, 1, 2
            )
        else:
            autos, crosses = verify_family(family_3_2)
            auto, cross = autos[1], crosses[2]  # pairs (0, 1), (0, 2), (1, 2)
        assert auto.peak_shifts.tolist() == expected_auto
        assert cross.peak_shifts.tolist() == expected_cross
        assert (len(expected_auto), len(expected_cross)) == (16, 24)

    @pytest.mark.parametrize("p,n", CLOSED_FORM_GRID)
    def test_family_reports_match_the_closed_form(self, p, n):
        q = p**n
        auto, cross = verify_family(family_for(p, n))
        assert (len(auto), len(cross)) == (p, p * (p - 1) // 2)
        for r in auto + cross:
            expected = closed_form_histogram(r.mode, q)
            assert r.value_histogram == expected, (r.mode, r.members)
            assert r.off_peak_max_abs == max(abs(v) for v in expected)
            assert len(r.peak_shifts) == sum(
                count for v, count in expected.items() if abs(v) == r.off_peak_max_abs
            )
        if (p, n) == (13, 2):
            assert len(cross[0].peak_shifts) == 13944

    @pytest.mark.parametrize("p,n", BOUND_GRID)
    def test_autocorrelation_bound_holds(self, p, n):
        q = p**n
        for member in family_for(p, n):
            report = verify_autocorrelation(member)
            assert report.passed, (p, n, member.m)
            assert report.peak_value == (q - 1) ** 2
            assert report.off_peak_max_abs <= q - 1
            assert report.values_match_derivation

    @pytest.mark.parametrize("p,n", BOUND_GRID)
    def test_cross_bound_holds_for_all_pairs(self, p, n):
        family = family_for(p, n)
        for i, j in itertools.combinations(range(p), 2):
            report = verify_cross_correlation(family[i], family[j])
            assert report.passed, (p, n, i, j)
            assert report.values_match_derivation

    def test_shift_sum_identity(self, family_3_2):
        # sum of the whole table = (sum A)(sum B) = 0 for zero-sum members
        s1, s2 = family_3_2[1], family_3_2[2]
        assert int(full_correlation(s1.arr, s2.arr).values.sum()) == 0
        assert int(full_correlation(s1.arr, s1.arr).values.sum()) == 0

    def test_peak_shifts_read_as_tuples(self, family_3_2):
        # each shift lists as a list of Python ints; only another PeakShifts
        # compares equal
        cross = verify_cross_correlation(family_3_2[1], family_3_2[2])
        shifts = cross.peak_shifts
        expected = np.argwhere(np.abs(THETA_S1_S2) == 10).tolist()
        assert isinstance(shifts, PeakShifts) and shifts.tolist() == expected
        assert all(type(c) is int for row in shifts.tolist() for c in row)
        assert len(shifts) == 24
        assert shifts.tolist(8) == expected[:8] and shifts.tolist(1) == expected[:1]
        assert shifts != tuple(map(tuple, expected)) and shifts != expected
        assert CorrelationReport(**cross.__dict__) == cross

    def test_peak_shifts_are_not_a_sequence(self, family_3_2):
        # with no item access, no mixin can list every shift once per item
        shifts = verify_cross_correlation(family_3_2[1], family_3_2[2]).peak_shifts
        assert not isinstance(shifts, collections.abc.Sequence)
        for read in (reversed, iter, lambda s: s[0]):
            with pytest.raises(TypeError):
                read(shifts)

    @pytest.mark.parametrize("seed", range(4))
    def test_peak_shifts_read_through_a_row_keeping_index(self, seed):
        # a random mask, and an index that permutes each row of q within it
        rng = np.random.default_rng(seed)
        shape, q = (3,) * 4, 9
        mask = rng.random((q, q)) < 0.3
        columns = rng.permuted(np.tile(np.arange(q), (q, 1)), axis=1)
        index = (np.arange(q)[:, None] * q + columns).reshape(-1)
        plain = PeakShifts(mask, shape)
        cases = [(plain, np.flatnonzero(mask)),
                 (plain.through(index), np.flatnonzero(mask.reshape(-1)[index]))]
        for shifts, flat in cases:
            expected = [[int(c) for c in np.unravel_index(i, shape)] for i in flat]
            assert len(shifts) == len(expected)
            for k in (0, 1, 5, len(expected), len(expected) + 3):
                assert shifts.tolist(k) == expected[:k]
            assert shifts.tolist() == expected

    def test_zero_shift_never_attains_in_an_auto_report(self):
        # |theta(0)| equals the off-peak maximum here; only the bounded shifts list
        report = correlation._bound_report(np.array([[3, -3], [1, 3]]), 2, 0)
        assert report.off_peak_max_abs == 3 and report.peak_shifts.tolist() == [[0, 1], [1, 1]]
        cross = correlation._bound_report(np.array([[3, -3], [1, 3]]), 2, 0, 1)
        assert cross.peak_shifts.tolist() == [[0, 0], [0, 1], [1, 1]]

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    @pytest.mark.parametrize("low,high", [(-40, 41), (-5, -4), (0, 1)])
    def test_value_histogram_counts_each_bounded_entry(self, dtype, low, high):
        # any values, of the oracle's int64 or the products' float32; the
        # zero shift is left out of an auto report's histogram, and the table
        # is left as it was
        table = np.random.default_rng(3).integers(low, high, (3,) * 4).astype(dtype)
        table.reshape(-1)[0] = 99
        values = table.reshape(-1).astype(int).tolist()
        auto = correlation._bound_report(table, 9, 0)
        cross = correlation._bound_report(table, 9, 0, 1)
        assert auto.value_histogram == collections.Counter(values[1:])
        assert cross.value_histogram == collections.Counter(values)
        assert {type(x) for item in cross.value_histogram.items() for x in item} == {int}
        assert table.reshape(-1).astype(int).tolist() == values

    def test_json_dict_lists_first_shifts(self, family_3_2):
        cross = verify_cross_correlation(family_3_2[1], family_3_2[2])
        full = cross.to_json_dict()
        assert full["peak_shift_count"] == 24
        assert full["peak_shifts"] == np.argwhere(np.abs(THETA_S1_S2) == 10).tolist()
        cut = cross.to_json_dict(max_shifts=8)
        assert cut == {**full, "peak_shifts": full["peak_shifts"][:8]}
        assert cross.to_json_dict(max_shifts=100) == full

    def test_fast_method_gives_same_report(self, family_3_2):
        auto, cross = verify_family(family_3_2)
        assert auto[1] == verify_autocorrelation(family_3_2[1])
        assert cross[2] == verify_cross_correlation(family_3_2[1], family_3_2[2])

    def test_validation(self, family_3_2):
        with pytest.raises(ValueError):
            verify_cross_correlation(family_3_2[1], family_3_2[1])
        bad_params = LegendreParams(p=3, n=2, a=1, poly=family_3_2.params.poly)
        bad_member = build_family(legendre_array(bad_params), bad_params)[1]
        with pytest.raises(ValueError):
            verify_autocorrelation(bad_member)
        with pytest.raises(ValueError):
            verify_cross_correlation(family_3_2[1], bad_member)
        bad_family = build_family(legendre_array(bad_params), bad_params)
        with pytest.raises(ValueError, match="autocorrelation bound requires origin value a = 0"):
            verify_family(bad_family)


@contextlib.contextmanager
def oracle_refused():
    """Fail any call of the oracle made from inside correlation.py, so that
    a table under test cannot be the oracle's."""

    def refuse(a, b):
        raise AssertionError("the sheared kernel called the oracle")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(correlation, "full_correlation", refuse)
        yield


@functools.cache
def params_for(p, n):
    return LegendreParams(p=p, n=n)


@st.composite
def ternary_bases(draw):
    """A random ternary base (not a Legendre array) and its params."""
    p, n = draw(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]))
    cells = draw(st.lists(st.integers(-1, 1), min_size=p**n, max_size=p**n))
    return TernaryArray(np.array(cells).reshape((p,) * n)), params_for(p, n)


@st.composite
def sheared_pairs(draw):
    """A random ternary base, its params and two member indices."""
    base, params = draw(ternary_bases())
    m1, m2 = draw(st.integers(0, params.p - 1)), draw(st.integers(0, params.p - 1))
    return base, params, m1, m2


def pair_tables(base, pairs):
    """theta_{S_m,S_m'} for each (m, m') in `pairs`, read from the d-table
    theta_{S_0,S_d}, d = m' - m, of `member_tables` on S_0: entry (s, t) is
    the d-table's at (s, t - m*s), which the shear index of m lists."""
    p = base.shape[0]
    add = correlation._addition_table(p, base.ndim)
    with oracle_refused():
        by_d = list(member_tables(shear(base, 0), base))
    return [
        np.take(by_d[(m2 - m) % p], correlation._shear_index(add, p, m)).reshape(by_d[0].shape)
        for m, m2 in pairs
    ]


SHEARED_GRID = [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3)]


class TestShearIndex:
    """The one shear index, (s, t) -> (s, t - m*s) on Z_p^n x Z_p^n, read
    from the addition table."""

    GRID = [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)]

    @pytest.mark.parametrize("p,n", GRID)
    def test_entries_are_the_digitwise_shear(self, p, n):
        add = correlation._addition_table(p, n)
        idx = np.ogrid[(slice(0, p),) * (2 * n)]
        s, t = idx[:n], idx[n:]
        for m in range(p):
            digits = np.broadcast_arrays(*s, *((tk - m * sk) % p for sk, tk in zip(s, t)))
            expected = np.ravel_multi_index(digits, (p,) * (2 * n)).reshape(-1)
            assert np.array_equal(correlation._shear_index(add, p, m), expected), m

    @pytest.mark.parametrize("p,n", GRID)
    def test_minus_m_undoes_m(self, p, n):
        add = correlation._addition_table(p, n)
        identity = np.arange(p ** (2 * n))
        for m in range(p):
            forward, back = (correlation._shear_index(add, p, k) for k in (m, -m))
            assert np.array_equal(forward[back], identity), m
            assert np.array_equal(back[forward], identity), m

    def test_one_read_only_addition_table_per_p_n(self):
        add = correlation._addition_table(5, 2)
        assert correlation._addition_table(5, 2) is add
        with pytest.raises(ValueError, match="read-only"):
            add[0, 0] = 1
        assert add[0, 0] == 0

    def test_members_share_one_addition_table(self):
        family = family_for(13, 2)
        correlation._addition_table.cache_clear()
        list(family)  # builds every member through shear
        info = correlation._addition_table.cache_info()
        assert (info.misses, info.hits) == (1, 12)

    @pytest.mark.parametrize("p,n", GRID)
    def test_array_of_m_gives_each_index(self, p, n):
        add = correlation._addition_table(p, n)
        ms = np.array([0, 1, -1, p - 1, 2 * p + 1])
        stacked = correlation._shear_index(add, p, ms)
        assert stacked.shape == (ms.size, p ** (2 * n))
        for m, index in zip(ms.tolist(), stacked):
            assert np.array_equal(index, correlation._shear_index(add, p, m)), m


class TestShearedKernel:
    @pytest.mark.parametrize("p,n", SHEARED_GRID)
    def test_equals_oracle_on_every_ordered_pair(self, p, n):
        family = family_for(p, n)
        pairs = list(itertools.product(range(p), repeat=2))
        for (m, m2), table in zip(pairs, pair_tables(family.base.values, pairs), strict=True):
            assert table.dtype == np.int64
            expected = full_correlation(family[m].arr, family[m2].arr).values
            assert np.array_equal(table, expected), (m, m2)

    @given(sheared_pairs())
    @settings(max_examples=60, deadline=None)
    def test_shear_identity_holds_for_any_base(self, case):
        # the re-index uses only S_m(x, y) = A(x) A(y - m x), not the Legendre
        # property: random bases, origin included, give the oracle's table
        base, params, m1, m2 = case
        x, y = build_member(base, m1, params), build_member(base, m2, params)
        (table,) = pair_tables(base.values, [(m1, m2)])
        assert np.array_equal(table, full_correlation(x.arr, y.arr).values)

    @pytest.mark.parametrize("p,n", SHEARED_GRID + [(11, 2), (13, 2), (3, 4)])
    def test_tables_equal_the_closed_forms(self, p, n):
        # With a = 0, theta_A = lambda: q - 1 at shift 0 and -1 elsewhere.
        # Auto: lambda(s) lambda(t - m s). Cross, m != m':
        # q A(x*) A(x* + s) - lambda(s) with x* = (m' s - t) / (m - m') mod p.
        q = p**n
        a = legendre_array(params_for(p, n)).values.astype(np.int64)
        lam = np.full((p,) * n, -1)
        lam[(0,) * n] = q - 1
        idx = np.ogrid[(slice(0, p),) * (2 * n)]
        s, t = idx[:n], idx[n:]
        pairs = list(itertools.product(range(p), repeat=2))
        for (m, m2), table in zip(pairs, pair_tables(a, pairs), strict=True):
            if m == m2:
                expected = lam[tuple(s)] * lam[tuple((tk - m * sk) % p for sk, tk in zip(s, t))]
            else:
                inv = pow(m - m2, -1, p)
                x = tuple((m2 * sk - tk) * inv % p for sk, tk in zip(s, t))
                shifted = tuple((xk + sk) % p for xk, sk in zip(x, s))
                expected = q * a[x] * a[shifted] - lam[tuple(s)]
            assert np.array_equal(table, expected), (m, m2)

    def test_refuses_tables_beyond_int64_like_the_oracle(self):
        # base [0, 1, c]: sum|S_m| * max|S_m| = ((1 + c) * c)**2 for every m,
        # and so is member_tables' bound on S_0, sum|S_0| * max|A|**2
        top = math.isqrt(np.iinfo(np.int64).max)
        c = (math.isqrt(4 * top + 1) - 1) // 2  # the largest c with c * (c + 1) <= top
        pairs = list(itertools.product(range(3), repeat=2))

        def base_and_members(c):
            base = np.array([0, 1, c], dtype=np.int64)
            return base, [IntArray(shear(base, m)) for m in range(3)]

        base, members = base_and_members(c)
        with product_dtypes() as dtypes:
            tables = pair_tables(base, pairs)
        assert dtypes == two_products(np.int64, base)
        for (m, m2), table in zip(pairs, tables, strict=True):
            assert np.array_equal(table, full_correlation(members[m], members[m2]).values)
        base, members = base_and_members(c + 1)
        for m, m2 in pairs:
            with pytest.raises(ValueError, match="beyond the int64 range"):
                full_correlation(members[m], members[m2])
        # refused when called, before any table is read
        with pytest.raises(ValueError, match="beyond the int64 range"):
            member_tables(shear(base, 0), base)

    @pytest.mark.parametrize("p,n", BOUND_GRID + [(5, 2), (7, 2)])
    def test_verify_family_equals_the_oracle_reports(self, p, n):
        family = family_for(p, n)
        with oracle_refused():
            auto, cross = verify_family(family)
        assert auto == [verify_autocorrelation(member) for member in family]
        pairs = itertools.combinations(family, 2)
        assert cross == [verify_cross_correlation(x, y) for x, y in pairs]

    @given(ternary_bases())
    @settings(max_examples=60, deadline=None)
    def test_verify_family_equals_the_oracle_reports_for_any_base(self, case):
        # a report per d = m' - m, mapped to each pair, whatever the values:
        # random bases break the bounds and the derived value sets
        family = build_family(*case)
        with oracle_refused():
            auto, cross = verify_family(family)
        pairs = itertools.combinations(family, 2)
        expected = [verify_autocorrelation(member) for member in family]
        expected += [verify_cross_correlation(x, y) for x, y in pairs]
        assert auto + cross == expected
        assert [r.to_json_dict() for r in auto + cross] == [r.to_json_dict() for r in expected]

    @pytest.mark.parametrize("p,n", [(3, 1), (5, 2), (3, 3)])
    def test_verify_family_reads_shifts_forward(self, p, n, monkeypatch):
        # a pair's shifts are its d-report's attaining mask read through the
        # shear index of m' >= 0, already in C order: no sort, no index of -m'
        family = family_for(p, n)
        pairs = itertools.combinations(family, 2)
        expected = [verify_autocorrelation(member) for member in family]
        expected += [verify_cross_correlation(x, y) for x, y in pairs]
        ms = []
        real = correlation._shear_index

        def recorded(add, p, m):
            ms.append(np.asarray(m))
            return real(add, p, m)

        def refused(*args, **kwargs):
            raise AssertionError("verify_family sorted")

        monkeypatch.setattr(correlation, "_shear_index", recorded)
        monkeypatch.setattr(np, "sort", refused)
        monkeypatch.setattr(np, "argsort", refused)
        auto, cross = verify_family(family)
        assert auto + cross == expected
        assert ms and all((m >= 0).all() for m in ms)

    @pytest.mark.parametrize("p,n", SHEARED_GRID + [(11, 2), (13, 2), (3, 4)])
    def test_verify_family_products_run_in_float32(self, p, n):
        # S_0 of a ternary base bounds every partial sum by (q - 1)**2 < 2**24
        family = family_for(p, n)
        with product_dtypes() as dtypes:
            verify_family(family)
        assert dtypes == two_products(np.float32, family.base.values)

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
    def test_verify_family_reports_from_the_float32_products(self, p, n, monkeypatch):
        # the raw products go to the bound reports: no re-index, no int64 cast
        dtypes = []
        real = correlation._bound_report

        def recorded(table, q, *ms):
            dtypes.append(table.dtype)
            return real(table, q, *ms)

        monkeypatch.setattr(correlation, "_bound_report", recorded)
        verify_family(family_for(p, n))
        assert dtypes == [np.float32] * p

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2), (7, 2), (3, 3)])
    def test_one_bound_report_per_difference(self, p, n, monkeypatch):
        # p reports, one per d = m' - m, rather than p(p + 1)/2
        calls = []
        real = correlation._bound_report

        def counted(table, q, *ms):
            calls.append(ms)
            return real(table, q, *ms)

        monkeypatch.setattr(correlation, "_bound_report", counted)
        auto, cross = verify_family(family_for(p, n))
        assert calls == [(0,)] + [(0, d) for d in range(1, p)]
        assert len(auto) + len(cross) == p * (p + 1) // 2

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2), (3, 3), (3, 4)])
    def test_reports_of_one_difference_print_one_body(self, p, n, monkeypatch):
        # what lets `verify` dump each distinct body once: every report is
        # its d-report, d = m' - m, moved to its members, its shifts read
        # through the shear index of m', with a histogram of its own
        by_d = []
        real = correlation._bound_report

        def kept(table, q, *ms):
            by_d.append(real(table, q, *ms))
            return by_d[-1]

        monkeypatch.setattr(correlation, "_bound_report", kept)
        auto, cross = verify_family(family_for(p, n))
        forward = correlation._shear_index(correlation._addition_table(p, n), p, np.arange(p))
        pairs = [(m,) for m in range(p)] + list(itertools.combinations(range(p), 2))
        bodies = {}
        for ms, report in zip(pairs, auto + cross, strict=True):
            d_report = by_d[(ms[-1] - ms[0]) % p]
            shifts = d_report.peak_shifts.through(forward[ms[-1]])
            assert report == dataclasses.replace(d_report, members=ms, peak_shifts=shifts)
            assert report.value_histogram is not d_report.value_histogram
            body = report.to_json_dict(max_shifts=0)
            del body["members"], body["peak_shifts"]
            assert bodies.setdefault((ms[-1] - ms[0]) % p, body) == body
        # and on a Legendre family every d != 0 prints the same body
        assert all(body == bodies[1] for d, body in bodies.items() if d)
        assert bodies[0] != bodies[1]


INT64_MAX = int(np.iinfo(np.int64).max)


def oracle_tables(x, base):
    """full_correlation of x against every shear of base, in order."""
    return [
        full_correlation(IntArray(x), IntArray(shear(base, m))).values
        for m in range(base.shape[0])
    ]


def with_bound(rng, base, rank, bound, top=2**30):
    """A random integer array of `rank` axes of extent p, entries below `top`
    in magnitude but the first, whose kernel bound sum|x| * max|base|**2 is
    exactly `bound`; its first entry takes the slack."""
    p, peak = base.shape[0], int(np.abs(base).max())
    assert bound % peak**2 == 0
    x = rng.integers(-top, top, size=(p,) * rank)
    x.flat[0] = 0
    x.flat[0] = bound // peak**2 - abs_sum(x)
    assert x.flat[0] > 0 and abs_sum(x) * peak**2 == bound
    return x


def abs_sum(x) -> int:
    return sum(abs(int(v)) for v in x.flat)


@contextlib.contextmanager
def product_dtypes():
    """Record every np.matmul product made inside the block as (dtype, shape)."""
    dtypes = []
    real = np.matmul

    def recorded(a, b, **kwargs):
        out = real(a, b, **kwargs)
        dtypes.append((out.dtype, out.shape))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "matmul", recorded)
        yield dtypes


def two_products(dtype, base):
    """The products of one kernel call on the base A, q = A.size: C = X @ H,
    (q, q), then H @ [C_0 | ... | C_{p-1}], (q, p*q), both in `dtype`."""
    p, q = base.shape[0], base.size
    return [(dtype, (q, q)), (dtype, (q, p * q))]


@st.composite
def kernel_cases(draw):
    """A random non-Legendre integer base and a random integer period of any
    magnitude up to int64."""
    p, n = draw(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]))
    peak = draw(st.integers(1, 2**20))
    base = draw(st.lists(st.integers(-peak, peak), min_size=p**n, max_size=p**n))
    top = draw(st.sampled_from([1, 2**20, 2**40, 2**52, 2**62]))
    cells = draw(st.lists(st.integers(-top, top), min_size=p ** (2 * n), max_size=p ** (2 * n)))
    x = np.array(cells, dtype=np.int64).reshape((p,) * (2 * n))
    return x, np.array(base, dtype=np.int64).reshape((p,) * n)


class TestMemberTablesKernel:
    """The matmul kernel at its precision boundaries, entry by entry against
    the oracle: float32 products below 2**24, float64 below 2**53, int64 up
    to 2**63 - 1."""

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2), (3, 3)])
    @pytest.mark.parametrize("bound,dtype", [(2**24 - 1, np.float32), (2**24, np.float64)])
    def test_float32_path_below_2_24(self, p, n, bound, dtype):
        rng = np.random.default_rng(10 * p + n + bound % 2)
        base = rng.integers(-1, 2, size=(p,) * n)
        base.flat[0] = 1
        x = with_bound(rng, base, 2 * n, bound, top=2**12)
        with product_dtypes() as dtypes:
            tables = list(member_tables(x, base))
        assert dtypes == two_products(dtype, base)
        for table, expected in zip(tables, oracle_tables(x, base), strict=True):
            assert table.dtype == np.int64 and np.array_equal(table, expected)

    @pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
    def test_float_path_just_below_2_53(self, p, n):
        rng = np.random.default_rng(10 * p + n)
        base = rng.integers(-3, 4, size=(p,) * n)
        base.flat[0] = 3
        x = with_bound(rng, base, 2 * n, (2**53 - 1) // 9 * 9)
        with product_dtypes() as dtypes:
            tables = list(member_tables(x, base))
        assert dtypes == two_products(np.float64, base)
        for table, expected in zip(tables, oracle_tables(x, base), strict=True):
            assert table.dtype == np.int64 and np.array_equal(table, expected)

    @pytest.mark.parametrize("bound", [2**53, 2**53 + 1, 2**62 + 1, INT64_MAX])
    def test_int64_path_from_2_53(self, bound):
        rng = np.random.default_rng(bound % 1000)
        base = rng.integers(-1, 2, size=(3, 3))
        base.flat[0] = 1
        x = with_bound(rng, base, 4, bound)
        with product_dtypes() as dtypes:
            tables = list(member_tables(x, base))
        assert dtypes == two_products(np.int64, base)
        for table, expected in zip(tables, oracle_tables(x, base), strict=True):
            assert np.array_equal(table, expected)

    def test_refused_one_past_int64(self):
        base = np.array([[1, 0, -1], [0, 1, 0], [1, 1, 0]])
        x = with_bound(np.random.default_rng(1), base, 4, INT64_MAX + 1)
        with product_dtypes() as dtypes:
            for kernel in (member_tables, member_peak):
                with pytest.raises(ValueError, match="beyond the int64 range"):
                    kernel(x, base)
            with pytest.raises(ValueError, match="beyond the int64 range"):
                full_correlation(IntArray(x), IntArray(shear(base, 0)))
        assert dtypes == []

    def test_refuses_when_called_like_the_oracle(self):
        # base [0, 1, c] against a 3 x 3 period of ones: the bound is 9 * c**2
        c = math.isqrt(INT64_MAX // 9)  # the largest c with 9 * c**2 <= 2**63 - 1
        x = np.ones((3, 3), dtype=np.int64)
        base = np.array([0, 1, c])
        with oracle_refused():
            tables = list(member_tables(x, base))
        assert all(map(np.array_equal, tables, oracle_tables(x, base)))
        base = np.array([0, 1, c + 1])
        with pytest.raises(ValueError, match="beyond the int64 range"):
            full_correlation(IntArray(x), IntArray(shear(base, 0)))
        # refused when called, before any table is read
        with pytest.raises(ValueError, match="beyond the int64 range"):
            member_tables(x, base)

    def test_dims_mismatch_refused(self):
        # a float x is refused for its shape, before its dtype
        with product_dtypes() as dtypes:
            for kernel in (member_tables, member_peak):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    kernel(np.zeros((3, 3, 3)), np.array([1, -1, 0]))
        assert dtypes == []

    @pytest.mark.parametrize(
        "x,base,message",
        [
            (np.array(1), np.array(1), "rank must be >= 1"),
            (np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64), "zero-extent"),
            (np.ones((1,) * 10, dtype=np.int64), np.ones((1,) * 5, dtype=np.int64), "rank 10"),
        ],
    )
    def test_shapes_the_containers_refuse(self, x, base, message):
        # x and A are checked as IntArray checks them, before any product
        with product_dtypes() as dtypes:
            for kernel in (member_tables, member_peak):
                with pytest.raises(ValueError, match=message):
                    kernel(x, base)
        assert dtypes == []

    @pytest.mark.parametrize("which", ["x", "base"])
    def test_uint64_entries_past_int64_refused(self, which):
        # a cast would wrap 2**63 to -2**63 and answer for another array
        x, base = np.zeros((3, 3), dtype=np.uint64), np.array([0, 1, 1], dtype=np.uint64)
        (x if which == "x" else base)[-1] = 2**63
        with product_dtypes() as dtypes:
            for kernel in (member_tables, member_peak):
                with pytest.raises(ValueError, match=f"entry {2**63} is outside the int64 range"):
                    kernel(x, base)
        assert dtypes == []

    def test_uint64_entries_at_int64_max_accepted(self):
        x = np.zeros((3, 3), dtype=np.uint64)
        x[1, 2] = INT64_MAX
        base = np.array([0, 1, -1])
        tables = list(member_tables(x, base))
        assert all(map(np.array_equal, tables, oracle_tables(x, base)))
        assert tables[0][0, 0] == -INT64_MAX  # x(1, 2) * A(1) * A(2)

    @pytest.mark.parametrize(
        "x,base",
        [
            (np.full((3, 3), 0.9), np.array([0, 1, -1])),
            (np.ones((3, 3), dtype=np.int64), np.array([0.0, 1.0, -1.0])),
        ],
    )
    def test_non_integer_entries_refused_like_the_oracle(self, x, base):
        # float entries are refused, not truncated to integers
        message = "entries must be integers, got dtype float64"
        with product_dtypes() as dtypes:
            with pytest.raises(ValueError, match=message):
                member_tables(x, base)
            with pytest.raises(ValueError, match=message):
                member_peak(x, base)
        assert dtypes == []
        with pytest.raises(ValueError, match=message):
            full_correlation(IntArray(x), IntArray(shear(base, 0)))

    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_random_periods_and_bases(self, case):
        x, base = case
        bound = abs_sum(x) * int(np.abs(base).max()) ** 2
        if bound > INT64_MAX:
            with pytest.raises(ValueError, match="beyond the int64 range"):
                member_tables(x, base)
            return
        tables = member_tables(x, base)
        for m, (table, expected) in enumerate(zip(tables, oracle_tables(x, base), strict=True)):
            assert np.array_equal(table, expected), m


# the product dtype of each tier and its range of the bound sum|x| * max|A|**2
PRODUCT_TIERS = [
    (np.float32, 0, 2**24 - 1),
    (np.float64, 2**24, 2**53 - 1),
    (np.int64, 2**53, INT64_MAX),
]


@st.composite
def peak_cases(draw):
    """A random integer base, a random integer period whose kernel bound falls
    in a drawn product tier, and that tier's dtype. Small period entries
    make ties likely; the first entry takes the bound's slack."""
    p, n = draw(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]))
    dtype, low, high = draw(st.sampled_from(PRODUCT_TIERS))
    peak = draw(st.integers(1, 4))
    base = draw(st.lists(st.integers(-peak, peak), min_size=p**n, max_size=p**n))
    base[draw(st.integers(0, p**n - 1))] = draw(st.sampled_from([peak, -peak]))
    top = draw(st.sampled_from([0, 1, 255]))
    cells = draw(st.lists(st.integers(-top, top), min_size=p ** (2 * n), max_size=p ** (2 * n)))
    cells[0] = 0
    rest = sum(map(abs, cells))
    total = draw(st.integers(max(rest, -(-low // peak**2)), high // peak**2))
    cells[0] = draw(st.sampled_from([1, -1])) * (total - rest)
    x = np.array(cells, dtype=np.int64).reshape((p,) * (2 * n))
    return x, np.array(base, dtype=np.int64).reshape((p,) * n), dtype


@st.composite
def tied_peak_cases(draw):
    """Two copies of one member S_m, m != 0, shifted to (s, t1) and (s, t2)
    in one row s != 0, with float32 products. Table m peaks at both shifts
    alike, as theta_{S_m,S_m} is even, and its product holds them at
    t - m*s, in either order, so table and product order often disagree
    on which tie comes first."""
    p, n = draw(st.sampled_from([(3, 2), (5, 2), (3, 3)]))
    family = family_for(p, n)
    member = family[draw(st.integers(1, p - 1))].arr
    digits = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    s = draw(digits.filter(any))
    t1, t2 = draw(st.lists(digits, min_size=2, max_size=2, unique_by=tuple))
    x = member.cyclic_shift(s + t1).values + member.cyclic_shift(s + t2).values
    return x, family.base.values, np.float32


def peak_by_definition(x, base):
    """member_peak by its definition on the int64 tables of member_tables:
    the first maximum in (m, C order) by np.argmax, and the sum of squares
    of every entry in Python ints."""
    tables = np.stack(list(member_tables(x, base)))
    m, *shift = np.unravel_index(np.argmax(tables), tables.shape)
    energy = sum(v * v for v in tables.reshape(-1).tolist())
    return int(tables[(m, *shift)]), int(m), tuple(int(k) for k in shift), energy


class TestMemberPeak:
    """The global peak and exact energy, read from the sheared products."""

    @given(st.one_of(peak_cases(), tied_peak_cases()))
    @settings(max_examples=200, deadline=None)
    def test_equals_its_definition_on_member_tables(self, case):
        x, base, dtype = case
        with product_dtypes() as dtypes:
            peak = member_peak(x, base)
        assert dtypes == two_products(dtype, base)
        assert peak == peak_by_definition(x, base)
        assert all(type(k) is int for k in (peak[0], peak[1], *peak[2], peak[3]))

    @pytest.mark.parametrize("p,n", SHEARED_GRID)
    def test_all_zero_period_ties_everywhere(self, p, n):
        # every entry of every table is 0: the first is member 0's zero shift
        base = legendre_array(params_for(p, n)).values
        x = np.zeros((p,) * (2 * n), dtype=np.int64)
        assert member_peak(x, base) == (0, 0, (0,) * (2 * n), 0)

    @pytest.mark.parametrize("p,n", SHEARED_GRID)
    def test_members_of_the_family_peak_at_themselves(self, p, n):
        # S_m against every member: the largest entry is its autocorrelation
        # peak, its (q - 1)**2 nonzero cells, first at its own zero shift
        family = family_for(p, n)
        q = p**n
        for member in family:
            value, m, shift, energy = member_peak(member.arr.values, family.base.values)
            assert (value, m, shift) == ((q - 1) ** 2, member.m, (0,) * (2 * n))
            assert energy == peak_by_definition(member.arr.values, family.base.values)[3]


    def test_first_peak_among_a_row_of_ties(self, monkeypatch):
        # S_1 shifted by (0, 1, 0, 0) plus S_1 shifted by (0, 1, 0, 1): table
        # 1 peaks at both shifts, in row s = (0, 1), and its product holds
        # them in the other order, at u = t - s
        family = family_for(3, 2)
        member, base = family[1].arr, family.base.values
        x = member.cyclic_shift((0, 1, 0, 0)).values + member.cyclic_shift((0, 1, 0, 1)).values
        row = list(member_tables(x, base))[1][0, 1]
        assert np.count_nonzero(row == row.max()) == 2
        expected = peak_by_definition(x, base)
        assert expected[:3] == (row.max(), 1, (0, 1, 0, 0))

        def refused(*args, **kwargs):
            raise AssertionError("member_peak built a tie set")

        monkeypatch.setattr(np, "flatnonzero", refused)
        assert member_peak(x, base) == expected


class TestMemberRuns:
    """Members multiplied in runs of k under a budget of product entries:
    any split gives the tables, peak and reports of one run, and the
    working set stays a few q x q arrays however large p is."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_runs_of_k_members_match_one_run(self, k, monkeypatch):
        # x = S_1 + S_3: tables 1 and 3 tie at their zero shifts, in one run
        # or in two, and the first peak is table 1's
        family = family_for(5, 2)
        base, q = family.base.values, 25
        x = family[1].arr.values + family[3].arr.values
        expected = verify_family(family)
        monkeypatch.setattr(correlation, "_BLOCK_ENTRIES", k * q * q)
        with product_dtypes() as dtypes:
            peak = member_peak(x, base)
        widths = [min(k, 5 - m) for m in range(0, 5, k)]
        assert dtypes == [(np.float32, (q, q))] + [(np.float32, (q, w * q)) for w in widths]
        oracle = oracle_tables(x, base)
        assert peak[:3] == (oracle[1].max(), 1, (0, 0, 0, 0)) and oracle[3].max() == peak[0]
        assert peak == peak_by_definition(x, base)
        for table, expected_table in zip(member_tables(x, base), oracle, strict=True):
            assert np.array_equal(table, expected_table)
        auto, cross = verify_family(family)
        assert (auto, cross) == expected
        assert [r.to_json_dict() for r in auto + cross] == [
            r.to_json_dict() for r in expected[0] + expected[1]
        ]

    @pytest.mark.parametrize(
        "p,n,top,dtype",
        [(7, 1, 2**12, np.float32), (3, 3, 2**20, np.float32), (7, 2, 2**40, np.float64),
         (3, 3, 2**62, np.int64)],
    )
    def test_one_product_equals_each_members_own(self, p, n, top, dtype):
        # one (q, p*q) product holds the same integers as p (q, q) products
        # H @ C_m, however BLAS splits either, in each dtype tier
        q = p**n
        base = legendre_array(params_for(p, n)).values
        x = np.random.default_rng(p * n).integers(-top, top, size=(p,) * (2 * n)) // (p ** (2 * n))
        x, base, bound = correlation._checked(x, base)
        add = correlation._addition_table(p, n)
        (block,) = correlation._products(x, base, bound, add)
        assert block.dtype == dtype
        h = base.reshape(-1)[add].astype(block.dtype)
        c = np.matmul(x.reshape(q, q).astype(block.dtype), h).reshape(-1)
        for m in range(p):
            c_m = c[correlation._shear_index(add, p, m)].reshape(q, q)
            assert np.array_equal(block[:, m], np.matmul(h, c_m)), m

    def test_working_set_stays_a_few_q_squared_arrays(self):
        # at (23, 2) a run is one member: the kernel holds less than the p
        # float32 products side by side would take, let alone their inputs
        p, n = 23, 2
        q = p**n
        base = legendre_array(params_for(p, n)).values
        x = np.random.default_rng(0).integers(-50, 50, size=(p,) * (2 * n))

        def drained():  # each table dropped as the next is made
            for table in member_tables(x, base):
                table.item(0)

        for call in (lambda: member_peak(x, base), drained):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * q * q * 8 < p * q * q * 4


class TestWelchMetrics:
    def test_reference_values(self):
        m = welch_metrics(3, 2)
        assert m.nonzero_count == 64
        assert m.bound_to_peak_ratio == Fraction(10, 64)
        assert m.welch_ratio == Fraction(1, 9)
        assert m.relative_difference == Fraction(13, 32)

    def test_relative_difference_approaches_three_over_q(self):
        # exact value is (3q - 1) / (q - 1)^2 -> 3/q for large q
        for p, n in [(31, 2), (997, 1), (11, 6)]:
            q = p**n
            rel = welch_metrics(p, n).relative_difference
            assert abs(float(rel) * q / 3 - 1) < 2 / q**0.5

    def test_exact_rationals(self):
        m = welch_metrics(67, 4)
        q = 67**4
        assert m.bound_to_peak_ratio == Fraction(q + 1, (q - 1) ** 2)
        assert m.relative_difference > 0
        assert abs(float(m.relative_difference) - 1.5e-7) < 0.05 * 1.5e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            welch_metrics(4, 2)
        with pytest.raises(ValueError):
            welch_metrics(3, 0)
