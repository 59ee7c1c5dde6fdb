import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legarray.arrays import IntArray, TernaryArray
from legarray.correlation import (
    full_correlation,
    full_correlation_fast,
    member_tables,
    verify_family,
)
from legarray.images import GrayImage
from legarray.legendre import LegendreParams, legendre_array
from legarray.family import build_family
from legarray.watermark import (
    EmbedConfig,
    Payload,
    embed,
    extract,
    flatten,
    tile_dims,
    unflatten,
    _flatten_values,
    _fold_tiles,
    _unflatten_values,
)

from reference_data import FLATTENED_S1


def flat_gray(size, value=128):
    return GrayImage(np.full((size, size), value, dtype=np.uint8))


class TestFlatten:
    def test_reference_9x9(self, family_3_2):
        flat = flatten(family_3_2[1].arr)
        assert np.array_equal(flat.values, FLATTENED_S1)

    def test_top_left_block_is_zero_slice(self, family_3_2):
        flat = flatten(family_3_2[1].arr)
        assert (flat.values[:3, :3] == 0).all()
        assert np.array_equal(flat.values[:3, 3:6], family_3_2[1].arr.values[0, 1])

    def test_rank_two_identity(self):
        rng = np.random.default_rng(61)
        arr = TernaryArray(rng.integers(-1, 2, size=(4, 5)))
        assert flatten(arr) == arr

    def test_odd_rank_rejected(self):
        with pytest.raises(ValueError):
            flatten(TernaryArray(np.zeros((2, 2, 2), dtype=np.int8)))

    def test_pairing_formula(self):
        # out[q0*d2 + r0, q1*d3 + r1] == S[q0, q1, r0, r1]
        dims = (2, 3, 4, 5)
        cells = np.arange(np.prod(dims), dtype=np.int64).reshape(dims)
        flat = _flatten_values(cells)
        assert flat.shape == (2 * 4, 3 * 5)
        for q0 in range(2):
            for q1 in range(3):
                for r0 in range(4):
                    for r1 in range(5):
                        assert flat[q0 * 4 + r0, q1 * 5 + r1] == cells[q0, q1, r0, r1]

    def test_pairing_formula_rank_six(self):
        # out[((i0*d3 + i3)*d2 + i2)*d5 + i5, i1*d4 + i4] == S[i0, ..., i5]
        d = (2, 3, 4, 5, 6, 7)
        cells = np.arange(np.prod(d), dtype=np.int64).reshape(d)
        flat = _flatten_values(cells)
        assert flat.shape == (280, 18)
        for i0, i1, i2, i3, i4, i5 in np.ndindex(d):
            row = ((i0 * d[3] + i3) * d[2] + i2) * d[5] + i5
            assert flat[row, i1 * d[4] + i4] == cells[i0, i1, i2, i3, i4, i5]

    def test_is_bijection_on_cells(self):
        for dims in [(3, 3, 3, 3), (2, 3, 4, 5), (2,) * 6, (3,) * 6, (3,) * 8, (2, 3, 4, 5, 6, 7)]:
            cells = np.arange(np.prod(dims), dtype=np.int64).reshape(dims)
            flat = _flatten_values(cells)
            assert flat.ndim == 2
            assert sorted(flat.reshape(-1).tolist()) == list(range(cells.size))

    def test_tile_dims(self, family_3_2):
        assert tile_dims(family_3_2[1].arr.dims) == (9, 9)
        assert tile_dims((3,) * 6) == (81, 9)  # odd middle axis carried, paired last
        assert tile_dims((3,) * 8) == (81, 81)
        assert tile_dims((2, 3, 4, 5, 6, 7)) == (280, 18)


class TestUnflatten:
    def test_round_trip_reference_member(self, family_3_2):
        s1 = family_3_2[1].arr
        assert unflatten(flatten(s1), s1.dims) == s1

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
    def test_round_trip_family_members(self, p, n):
        params = LegendreParams(p=p, n=n).resolve()
        family = build_family(legendre_array(params), params)
        for member in family:
            assert unflatten(flatten(member.arr), member.arr.dims) == member.arr

    def test_round_trip_random(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            rank = 4 if rng.integers(2) else 6
            dims = tuple(int(d) for d in rng.integers(1, 4, size=rank))
            arr = TernaryArray(rng.integers(-1, 2, size=dims))
            assert unflatten(flatten(arr), dims) == arr

    @given(st.lists(st.integers(1, 3), min_size=4, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_hypothesis(self, dims):
        rng = np.random.default_rng(71)
        arr = TernaryArray(rng.integers(-1, 2, size=tuple(dims)))
        assert unflatten(flatten(arr), tuple(dims)) == arr

    def test_inconsistent_dims_rejected(self):
        flat = TernaryArray(np.zeros((9, 9), dtype=np.int8))
        with pytest.raises(ValueError):
            unflatten(flat, (3, 3, 3))
        with pytest.raises(ValueError):
            unflatten(flat, (3, 3, 3, 4))
        with pytest.raises(ValueError):
            unflatten(TernaryArray(np.zeros((3, 27), dtype=np.int8)), (3, 3, 3, 3))


class TestFoldTiles:
    @staticmethod
    def float_fold(pixels, th, tw):
        # reference: the float64 copy of the whole-tile crop, summed per tile
        rows, cols = pixels.shape[0] // th, pixels.shape[1] // tw
        crop = pixels[: rows * th, : cols * tw]
        return crop.astype(np.float64).reshape(rows, th, cols, tw).sum(axis=(0, 2))

    @pytest.mark.parametrize(
        "shape,tile",
        [
            ((31, 29), (9, 9)),
            ((100, 77), (25, 25)),
            ((170, 20), (81, 9)),
            ((20_000, 3), (3, 3)),
            ((3, 20_000), (3, 3)),
            ((500, 500), (49, 49)),
        ],
    )
    @pytest.mark.parametrize("carrier", ["random", "zero", "full"])
    def test_equals_float_fold(self, shape, tile, carrier):
        rng = np.random.default_rng(sum(shape) + sum(tile))
        pixels = {
            "random": rng.integers(0, 256, size=shape, dtype=np.uint8),
            "zero": np.zeros(shape, dtype=np.uint8),
            "full": np.full(shape, 255, dtype=np.uint8),
        }[carrier]
        folded = _fold_tiles(pixels, *tile)
        expected = self.float_fold(pixels, *tile)
        assert folded.dtype == np.int64 and folded.shape == tile
        assert np.array_equal(folded, expected)


class TestEmbed:
    def test_strength_zero_is_identity(self, family_3_2):
        img = flat_gray(27)
        payload = Payload(m=1, shifts=(0, 0, 0, 0))
        out = embed(img, family_3_2[1], payload, EmbedConfig(0))
        assert out == img

    def test_mid_gray_value_set(self, family_3_2):
        img = flat_gray(81)
        out = embed(img, family_3_2[1], Payload(m=1, shifts=(1, 2, 0, 1)), EmbedConfig(3))
        assert set(np.unique(out.pixels).tolist()) <= {125, 128, 131}

    def test_difference_is_tiled_watermark(self, family_3_2):
        img = flat_gray(45, value=100)
        payload = Payload(m=2, shifts=(2, 1, 1, 0))
        strength = 4
        out = embed(img, family_3_2[2], payload, EmbedConfig(strength))
        diff = out.pixels.astype(np.int16) - img.pixels.astype(np.int16)
        w = flatten(family_3_2[2].arr.cyclic_shift(payload.shifts)).values
        expected = strength * np.tile(w, (5, 5))
        assert np.array_equal(diff, expected)

    def test_validation(self, family_3_2):
        member = family_3_2[1]
        with pytest.raises(ValueError):
            embed(flat_gray(8), member, Payload(m=1, shifts=(0, 0, 0, 0)))
        with pytest.raises(ValueError):
            embed(flat_gray(27), member, Payload(m=2, shifts=(0, 0, 0, 0)))
        with pytest.raises(ValueError):
            embed(flat_gray(27), member, Payload(m=1, shifts=(0, 0)))
        with pytest.raises(ValueError):
            embed(flat_gray(27), member, Payload(m=1, shifts=(0, 0, 0, 3)))
        with pytest.raises(ValueError):
            Payload(m=-1, shifts=(0, 0, 0, 0))
        with pytest.raises(ValueError):
            EmbedConfig(-1)


class TestExtract:
    def test_end_to_end_exact_on_flat_carrier(self, family_3_2):
        img = flat_gray(27)
        for m, shifts in [(0, (1, 0, 2, 1)), (1, (1, 2, 0, 1)), (2, (2, 2, 2, 2))]:
            marked = embed(img, family_3_2[m], Payload(m=m, shifts=shifts), EmbedConfig(3))
            result = extract(marked, family_3_2)
            assert result.payload == Payload(m=m, shifts=shifts)
            assert result.confident
            assert result.score > 0

    def test_zero_shift_round_trip(self, family_3_2):
        marked = embed(flat_gray(27), family_3_2[1], Payload(m=1, shifts=(0, 0, 0, 0)))
        result = extract(marked, family_3_2)
        assert result.payload == Payload(m=1, shifts=(0, 0, 0, 0))

    def test_unmarked_constant_image_is_flagged(self, family_3_2):
        result = extract(flat_gray(27), family_3_2)
        assert not result.confident
        assert result.snr == 0.0
        assert result.score == 0.0

    def test_partial_tiles_are_cropped(self, family_3_2):
        img = GrayImage(np.full((31, 29), 128, dtype=np.uint8))
        marked = embed(img, family_3_2[1], Payload(m=1, shifts=(1, 1, 0, 2)))
        result = extract(marked, family_3_2)
        assert result.payload == Payload(m=1, shifts=(1, 1, 0, 2))

    def test_image_smaller_than_tile_rejected(self, family_3_2):
        with pytest.raises(ValueError):
            extract(flat_gray(8), family_3_2)

    def test_flat_carrier_exact_at_p5(self, family_5_2):
        img = flat_gray(75)
        rng = np.random.default_rng(79)
        for _ in range(40):
            m = int(rng.integers(5))
            shifts = tuple(int(s) for s in rng.integers(0, 5, size=4))
            marked = embed(img, family_5_2[m], Payload(m=m, shifts=shifts), EmbedConfig(3))
            result = extract(marked, family_5_2)
            assert result.payload == Payload(m=m, shifts=shifts)
            assert result.confident

    def test_noise_robustness_smoke(self, family_5_2):
        rng = np.random.default_rng(73)
        strength = 3
        ok = 0
        for _ in range(20):
            noise = rng.integers(-strength, strength + 1, size=(75, 75))
            img = GrayImage(np.clip(128 + noise, 0, 255).astype(np.uint8))
            m = int(rng.integers(5))
            shifts = tuple(int(s) for s in rng.integers(0, 5, size=4))
            marked = embed(img, family_5_2[m], Payload(m=m, shifts=shifts), EmbedConfig(strength))
            result = extract(marked, family_5_2)
            ok += result.payload == Payload(m=m, shifts=shifts)
        assert ok == 20

    def test_result_json_shape(self, family_3_2):
        marked = embed(flat_gray(27), family_3_2[1], Payload(m=1, shifts=(1, 0, 1, 0)))
        d = extract(marked, family_3_2).to_json_dict()
        assert set(d) == {"m", "shifts", "score", "snr", "confident"}
        assert d["m"] == 1 and d["shifts"] == [1, 0, 1, 0]

    def test_score_is_an_exact_integer(self, family_3_2):
        marked = embed(flat_gray(27), family_3_2[1], Payload(m=1, shifts=(1, 0, 1, 0)))
        result = extract(marked, family_3_2)
        assert type(result.score) is int
        assert f'"score": {result.score},' in json.dumps(result.to_json_dict())

    def test_nonzero_origin_value_refused(self):
        params = LegendreParams(p=3, n=2, a=1).resolve()
        family = build_family(legendre_array(params), params)
        with pytest.raises(ValueError, match=r"origin value a = 0"):
            extract(flat_gray(27), family)

    def test_nan_threshold_refused(self, family_3_2):
        with pytest.raises(ValueError, match="snr threshold must be a number"):
            extract(flat_gray(27), family_3_2, snr_threshold=math.nan)


def family_for(p, n):
    params = LegendreParams(p=p, n=n).resolve()
    return build_family(legendre_array(params), params)


def marked_period(family, seed):
    """Integer rank-2n period folded from a noise carrier marked with a
    random payload, cropped off-grid by one pixel."""
    p, dims = family.params.p, family[0].arr.dims
    th, tw = tile_dims(dims)
    rng = np.random.default_rng(seed)
    carrier = rng.integers(0, 256, size=(3 * th + 2, 3 * tw + 1), dtype=np.uint8)
    payload = Payload(int(rng.integers(p)), tuple(rng.integers(p, size=len(dims))))
    marked = embed(GrayImage(carrier), family[payload.m], payload).pixels[1:, :]
    return _unflatten_values(_fold_tiles(marked, th, tw), dims)


class TestMemberTables:
    """extract's tables against independent paths, entry by entry."""

    @pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3), (3, 4)])
    def test_equal_the_oracle(self, p, n):
        family = family_for(p, n)
        period = marked_period(family, 100 * p + n)
        oracle_input = IntArray(period.astype(np.int64))
        tables = list(member_tables(period, family.base.values))
        assert len(tables) == p
        for member, table in zip(family, tables):
            assert table.dtype == np.int64
            # the oracle takes about a second per (3,4) table, so there it
            # checks the member with the largest shear and the fast path the rest
            use_oracle = (p, n) != (3, 4) or member.m == p - 1
            oracle = full_correlation if use_oracle else full_correlation_fast
            assert np.array_equal(table, oracle(oracle_input, member.arr).values)

    def test_equal_the_fast_path_at_13_2(self):
        family = family_for(13, 2)
        period = IntArray(marked_period(family, 1302).astype(np.int64))
        for member, table in zip(family, member_tables(period.values, family.base.values)):
            assert np.array_equal(table, full_correlation_fast(period, member.arr).values)

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
    def test_transform_count(self, p, n, monkeypatch):
        # extract and verify_family each make p + 1 matrix products of
        # p^n x p^n cells, and no FFT
        family = family_for(p, n)
        th, tw = tile_dims(family[0].arr.dims)
        q = p**n
        shapes = []
        real = np.matmul

        def counted(a, b):
            out = real(a, b)
            shapes.append(out.shape)
            return out

        def no_transform(*args, **kwargs):
            raise AssertionError("FFT called")

        monkeypatch.setattr(np, "matmul", counted)
        for name in ("fftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, no_transform)
        extract(flat_gray(2 * max(th, tw)), family)
        assert shapes == [(q, q)] * (p + 1)
        shapes.clear()
        verify_family(family)
        assert shapes == [(q, q)] * (p + 1)


# extract(...).to_json_dict() recorded once the tables became exact integers
# computed from the base array's spectrum. score is the integer peak; snr is
# float64 over those integers, and floats compare with ==, so any change to
# the order of the sum of squares shows. The confident result on the
# unmarked (5,2) carrier is the known confident-wrong defect, and off-grid
# crops recover the member but not the shifts; both are pinned as they are.
PINNED_EXTRACTS = {
    (3, 2, "marked"): {"m": 1, "shifts": [1, 1, 0, 2], "score": 6876, "snr": 9.180412620991271, "confident": True},
    (3, 2, "unmarked"): {"m": 2, "shifts": [1, 0, 0, 0], "score": 773, "snr": 3.185956472719717, "confident": False},
    (3, 2, "cropped"): {"m": 1, "shifts": [1, 1, 1, 0], "score": 4328, "snr": 5.505062376133786, "confident": True},
    (5, 2, "marked"): {"m": 2, "shifts": [2, 1, 2, 3], "score": 62279, "snr": 25.204921453314306, "confident": True},
    (5, 2, "unmarked"): {"m": 4, "shifts": [2, 0, 3, 4], "score": 3703, "snr": 4.08931931053523, "confident": True},
    (5, 2, "cropped"): {"m": 2, "shifts": [2, 1, 3, 4], "score": 39270, "snr": 15.250772172833608, "confident": True},
    (7, 2, "marked"): {"m": 6, "shifts": [1, 6, 3, 5], "score": 248974, "snr": 49.09417565272258, "confident": True},
    (7, 2, "unmarked"): {"m": 6, "shifts": [2, 5, 5, 5], "score": 6477, "snr": 3.760208265353215, "confident": False},
    (7, 2, "cropped"): {"m": 6, "shifts": [1, 6, 4, 6], "score": 183764, "snr": 35.32068467295758, "confident": True},
    (3, 3, "marked"): {"m": 1, "shifts": [1, 0, 2, 2, 0, 2], "score": 74747, "snr": 29.48253691345207, "confident": True},
    (3, 3, "unmarked"): {"m": 1, "shifts": [2, 1, 1, 0, 0, 1], "score": 3453, "snr": 3.6267290876328637, "confident": False},
    (3, 3, "cropped"): {"m": 1, "shifts": [1, 0, 2, 2, 1, 0], "score": 36373, "snr": 12.792799803448528, "confident": True},
}


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2), (3, 3)])
def test_extract_output_is_pinned(p, n):
    params = LegendreParams(p, n).resolve()
    family = build_family(legendre_array(params), params)
    rng = np.random.default_rng(1000 * p + n)
    th, tw = tile_dims(family[0].arr.dims)
    carrier = rng.integers(118, 139, size=(6 * th + 5, 6 * tw + 7), dtype=np.uint8)
    payload = Payload(int(rng.integers(p)), tuple(rng.integers(p, size=2 * n)))
    marked = embed(GrayImage(carrier), family[payload.m], payload).pixels
    carriers = {"marked": marked, "unmarked": carrier, "cropped": marked[1:, 1:]}
    for kind, pixels in carriers.items():
        got = extract(GrayImage(pixels), family).to_json_dict()
        assert got == PINNED_EXTRACTS[(p, n, kind)], kind
