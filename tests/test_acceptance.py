"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from legarray import (
    EmbedConfig,
    GrayImage,
    ImperfectSequenceError,
    LegendreParams,
    Payload,
    TernaryArray,
    build_family,
    circulant_from_perfect,
    embed,
    extract,
    flatten,
    full_correlation,
    full_correlation_fast,
    legendre_array,
    unflatten,
    verify_autocorrelation,
    verify_cross_correlation,
    verify_family,
    welch_metrics,
)
from legarray.arrays import deserialize
from legarray.cli import main
from legarray.fields import Poly, is_prime

from reference_data import (
    ARRAY_P3_N4,
    ARRAY_P5_N2,
    FAMILY_P3_N2_S1,
    FAMILY_P3_N2_S2,
    FLATTENED_S1,
    SEQ_P17,
    SEQ_P17_AUTOCORR,
    THETA_S1,
    THETA_S1_S2,
    THETA_S2,
)

BOUND_GRID = [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2), (7, 2), (3, 3)]

_FAMILIES = {}


def family_for(p, n, poly=None):
    key = (p, n, poly)
    if key not in _FAMILIES:
        params = LegendreParams(
            p=p, n=n, a=0, poly=Poly.parse(poly, p) if poly else None
        ).resolve()
        _FAMILIES[key] = build_family(legendre_array(params), params)
    return _FAMILIES[key]


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.limit, (
                f"exceeded time budget: {self.elapsed:.2f}s >= {self.limit}s"
            )


def report(num, detail):
    print(f"ACCEPTANCE {num}: PASS - {detail}")


def test_criterion_01_sequence_golden(capsys):
    with Budget(1.0) as budget:
        assert main(["gen-legendre", "--p", "17"]) == 0
        out = capsys.readouterr().out
        seq = deserialize(out)
        assert np.array_equal(seq.values, SEQ_P17)
        table = full_correlation(seq, seq).values
        assert np.array_equal(table, SEQ_P17_AUTOCORR)
    with capsys.disabled():
        report(1, f"length-17 sequence and autocorrelation exact ({budget.elapsed:.2f}s)")


def test_criterion_02_5x5_golden():
    with Budget(1.0) as budget:
        params = LegendreParams(p=5, n=2, a=0, poly=Poly.parse("2,4,1", 5))
        arr = legendre_array(params)
        assert np.array_equal(arr.values, ARRAY_P5_N2)
        table = full_correlation(arr, arr).values
        mask = np.ones((5, 5), dtype=bool)
        mask[0, 0] = False
        assert (table[mask] == -1).all()
    report(2, f"5x5 array exact, all off-peak = -1 ({budget.elapsed:.2f}s)")


def test_criterion_03_rank4_golden():
    with Budget(1.0) as budget:
        params = LegendreParams(p=3, n=4, a=0, poly=Poly.parse("2,0,0,2,1", 3))
        arr = legendre_array(params)
        assert np.array_equal(arr.values, ARRAY_P3_N4)
    report(3, f"3x3x3x3 array exact ({budget.elapsed:.2f}s)")


def test_criterion_04_family_golden():
    with Budget(1.0) as budget:
        family = family_for(3, 2, "2,2,1")
        s1, s2 = family[1].arr, family[2].arr
        assert np.array_equal(s1.values, FAMILY_P3_N2_S1)
        assert np.array_equal(s2.values, FAMILY_P3_N2_S2)
        t11 = full_correlation(s1, s1).values
        t22 = full_correlation(s2, s2).values
        t12 = full_correlation(s1, s2).values
        assert np.array_equal(t11, THETA_S1)
        assert np.array_equal(t22, THETA_S2)
        assert np.array_equal(t12, THETA_S1_S2)
        assert t11[0, 0, 0, 0] == t22[0, 0, 0, 0] == 64
        origin_mask = np.zeros((3,) * 4, dtype=bool)
        origin_mask[0, 0, 0, 0] = True
        assert set(t11[~origin_mask].tolist()) == {-8, 1}
        assert set(t22[~origin_mask].tolist()) == {-8, 1}
        assert set(t12.reshape(-1).tolist()) == {-8, 1, 10}
    report(4, f"members and all three correlation tables exact ({budget.elapsed:.2f}s)")


def test_criterion_05_flatten_golden():
    with Budget(1.0) as budget:
        family = family_for(3, 2, "2,2,1")
        assert np.array_equal(flatten(family[1].arr).values, FLATTENED_S1)
    report(5, f"9x9 flattening exact ({budget.elapsed:.2f}s)")


def test_criterion_06_autocorrelation_bound_exhaustive():
    naive = []
    with Budget(60.0) as naive_budget:
        for p, n in BOUND_GRID:
            q = p**n
            for member in family_for(p, n):
                rep = verify_autocorrelation(member)
                assert rep.passed, (p, n, member.m)
                assert rep.off_peak_max_abs <= q - 1
                assert rep.peak_value == (q - 1) ** 2
                naive.append(rep)
    with Budget(5.0) as family_budget:
        family_reports = [verify_family(family_for(p, n))[0] for p, n in BOUND_GRID]
    assert [rep for reps in family_reports for rep in reps] == naive
    report(
        6,
        f"off-peak |theta| <= p^n-1 for {BOUND_GRID}, peak (p^n-1)^2 "
        f"(naive {naive_budget.elapsed:.2f}s, family {family_budget.elapsed:.2f}s)",
    )


def test_criterion_07_cross_correlation_bound_exhaustive():
    attained_at_3_2 = False
    naive = []
    with Budget(60.0) as naive_budget:
        for p, n in BOUND_GRID:
            q = p**n
            family = family_for(p, n)
            for i, j in itertools.combinations(range(p), 2):
                rep = verify_cross_correlation(family[i], family[j])
                assert rep.passed, (p, n, i, j)
                assert rep.off_peak_max_abs <= q + 1
                if (p, n) == (3, 2) and rep.off_peak_max_abs == 10:
                    attained_at_3_2 = True
                naive.append(rep)
    assert attained_at_3_2, "bound p^n+1 = 10 must be attained at (3,2)"
    with Budget(5.0) as family_budget:
        family_reports = [verify_family(family_for(p, n))[1] for p, n in BOUND_GRID]
    assert [rep for reps in family_reports for rep in reps] == naive
    report(
        7,
        f"pairwise |theta| <= p^n+1 for {BOUND_GRID}, bound attained at (3,2) "
        f"(naive {naive_budget.elapsed:.2f}s, family {family_budget.elapsed:.2f}s)",
    )


def test_criterion_08_welch_asymptotics():
    primes = [u for u in range(3, 68) if is_prime(u)]
    values = {}
    for p in primes:
        for n in range(1, 5):
            m = welch_metrics(p, n)
            assert isinstance(m.relative_difference, Fraction)
            assert m.relative_difference > 0
            values[p**n] = m.relative_difference
    ordered = sorted(values)
    diffs = [values[q] for q in ordered]
    assert all(a > b for a, b in zip(diffs, diffs[1:])), "not monotone decreasing in p^n"

    target = 1.5e-7
    matching = {
        n for n in range(1, 5)
        if abs(float(welch_metrics(67, n).relative_difference) - target) <= 0.05 * target
    }
    assert matching == {4}
    value_at_4 = float(welch_metrics(67, 4).relative_difference)
    report(
        8,
        f"exact rationals for p=3..67, n=1..4, monotone in p^n; at 67^4 "
        f"relative difference {value_at_4:.4g} matches 1.5e-7 within 5% (n=4 only)",
    )


def test_criterion_09_fast_equals_naive():
    rng = np.random.default_rng(2024)
    with Budget(10.0) as budget:
        for _ in range(100):
            rank = int(rng.integers(1, 5))
            dims = tuple(int(d) for d in rng.integers(1, 10, size=rank))
            a = TernaryArray(rng.integers(-1, 2, size=dims))
            b = TernaryArray(rng.integers(-1, 2, size=dims))
            assert full_correlation_fast(a, b) == full_correlation(a, b)
    report(9, f"fast path exact on 100 seeded pairs ({budget.elapsed:.2f}s)")


def test_criterion_10_flatten_round_trip():
    for p, n in [(3, 2), (5, 2), (3, 3)]:
        for member in family_for(p, n):
            arr = member.arr
            assert unflatten(flatten(arr), arr.dims) == arr
    rng = np.random.default_rng(4096)
    for _ in range(100):
        rank = 4 if rng.integers(2) else 6
        dims = tuple(int(d) for d in rng.integers(1, 4, size=rank))
        arr = TernaryArray(rng.integers(-1, 2, size=dims))
        assert unflatten(flatten(arr), dims) == arr
    report(10, "unflatten(flatten(.)) identity on family members and 100 random arrays")


def test_criterion_11_watermark_end_to_end():
    with Budget(120.0) as budget:
        family = family_for(3, 2, "2,2,1")
        carrier = GrayImage(np.full((243, 243), 128, dtype=np.uint8))
        cfg = EmbedConfig(3)
        for m in range(3):
            for shifts in itertools.product(range(3), repeat=4):
                payload = Payload(m=m, shifts=shifts)
                result = extract(embed(carrier, family[m], payload, cfg), family)
                assert result.payload == payload, (m, shifts)

        family52 = family_for(5, 2)
        rng = np.random.default_rng(777)
        strength = 3
        recovered = 0
        trials = 200
        for _ in range(trials):
            noise = rng.integers(-strength, strength + 1, size=(75, 75))
            noisy = GrayImage(np.clip(128 + noise, 0, 255).astype(np.uint8))
            m = int(rng.integers(5))
            shifts = tuple(int(s) for s in rng.integers(0, 5, size=4))
            payload = Payload(m=m, shifts=shifts)
            marked = embed(noisy, family52[m], payload, EmbedConfig(strength))
            recovered += extract(marked, family52).payload == payload
    rate = recovered / trials
    assert rate >= 0.99, f"recovery rate {rate:.1%}"
    report(
        11,
        f"all 243 noiseless payloads exact at (3,2); noisy recovery "
        f"{recovered}/{trials} at (5,2) ({budget.elapsed:.1f}s)",
    )


def test_criterion_12_perfect_sequence_gate():
    arr = circulant_from_perfect([1, 1, 1, -1], [1, 1, 1, -1])
    assert arr.dims == (4, 4)
    table = full_correlation(arr, arr).values
    assert table[0, 0] == 16
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 0] = False
    assert (table[mask] == 0).all()

    with pytest.raises(ImperfectSequenceError) as exc_info:
        circulant_from_perfect([1, 1, 1, 1], [1, 1, 1, -1])
    assert exc_info.value.shift == 1
    assert "shift 1" in str(exc_info.value)
    report(12, "perfect 4x4 circulant accepted; constant sequence rejected naming shift 1")
