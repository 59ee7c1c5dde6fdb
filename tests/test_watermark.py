import hashlib
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
from legarray.images import GrayImage, write_pgm
from legarray.legendre import LegendreParams, legendre_array
from legarray.family import build_family, build_member
from legarray.watermark import (
    EmbedConfig,
    ExtractionResult,
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
        params = LegendreParams(p=p, n=n)
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

    @pytest.mark.parametrize("rows", [256, 257, 258, 514, 515])
    def test_uint16_blocks_exact_at_the_block_boundary(self, rows):
        # 257 tile rows of 255 sum to 2^16 - 1, the most a uint16 block holds
        th, tw = 3, 2
        pixels = np.full((rows * th + 2, 3 * tw + 1), 255, dtype=np.uint8)
        pixels[-th:, :] = np.arange(pixels.shape[1], dtype=np.uint8)
        crop = pixels[: rows * th, : 3 * tw].astype(np.int64)
        expected = crop.reshape(rows, th, 3, tw).sum(axis=(0, 2))
        folded = _fold_tiles(pixels, th, tw)
        assert folded.dtype == np.int64
        assert np.array_equal(folded, expected)

    def test_uint32_sums_exact_at_the_bound(self):
        # every column sum of a 255 carrier with (2^32 - 1) // 255 tile rows
        # is 2^32 - 1, the most the blocks could add before they went int64
        pixels = np.broadcast_to(np.uint8(255), (16_843_009, 2))
        folded = _fold_tiles(pixels, 1, 1)
        assert folded.dtype == np.int64
        assert folded.tolist() == [[2 * (2**32 - 1)]]

    def test_int64_sums_exact_one_row_past_the_old_cap(self):
        # zero strides: the 33.7 MB carrier is never allocated, and one tile
        # row more than uint32 could hold still sums exactly
        pixels = np.broadcast_to(np.uint8(255), (16_843_010, 2))
        assert pixels.strides == (0, 0)
        folded = _fold_tiles(pixels, 1, 1)
        assert folded.dtype == np.int64
        assert folded.tolist() == [[2 * 255 * 16_843_010]]


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

    @pytest.mark.parametrize("strength", [0, 1, 3, 254, 255, 256, 32767, 40000, 10**9])
    @pytest.mark.parametrize(
        "shape", [(9, 9), (13, 10), (17, 31), (100, 77)], ids=lambda s: f"{s[0]}x{s[1]}"
    )
    def test_equals_clamped_tiled_sum(self, family_3_2, shape, strength):
        # int64 reference of the docstring formula; (13, 10) and (17, 31)
        # are under two tiles tall, and no side but (9, 9)'s is a tile multiple
        rng = np.random.default_rng(sum(shape) + strength % 1000)
        pixels = rng.integers(0, 256, size=shape, dtype=np.uint8)
        payload = Payload(m=2, shifts=tuple(int(s) for s in rng.integers(0, 3, size=4)))
        out = embed(GrayImage(pixels), family_3_2[2], payload, EmbedConfig(strength))
        w = flatten(family_3_2[2].arr.cyclic_shift(payload.shifts)).values.astype(np.int64)
        reps = (-(-shape[0] // 9), -(-shape[1] // 9))
        expected = np.clip(
            pixels.astype(np.int64) + strength * np.tile(w, reps)[: shape[0], : shape[1]], 0, 255
        )
        assert out.pixels.dtype == np.uint8
        assert np.array_equal(out.pixels, expected)

    @pytest.mark.parametrize("strength", [0, 1, 3, 254, 255, 256, 10**6])
    @pytest.mark.parametrize(
        "p,n,shape", [(3, 2, (22, 31)), (3, 3, (170, 40))], ids=["3-2", "3-3-strip"]
    )
    def test_uint8_mark_equals_its_definition_at_the_rails(self, p, n, shape, strength):
        # clamp(img + strength * W) in int64 on carriers full of 0 and 255
        # pixels; both sides end in a partial tile, and at (3,3) the rank-6
        # member folds to an 81 x 9 strip
        family = family_for(p, n)
        th, tw = tile_dims(family.base.dims * 2)
        assert shape[0] % th and shape[1] % tw
        rng = np.random.default_rng(strength % 1000 + shape[0])
        levels = np.array([0, 0, 1, 2, 3, 128, 252, 253, 254, 255, 255], dtype=np.uint8)
        pixels = rng.choice(levels, size=shape)
        assert (pixels == 0).any() and (pixels == 255).any()
        m = int(rng.integers(1, p))
        payload = Payload(m, tuple(int(k) for k in rng.integers(0, p, size=2 * n)))
        out = embed(GrayImage(pixels), family[m], payload, EmbedConfig(strength))
        w = flatten(family[m].arr.cyclic_shift(payload.shifts)).values.astype(np.int64)
        tiled = np.tile(w, (-(-shape[0] // th), -(-shape[1] // tw)))[: shape[0], : shape[1]]
        expected = np.clip(pixels.astype(np.int64) + strength * tiled, 0, 255)
        assert out.pixels.dtype == np.uint8
        assert np.array_equal(out.pixels, expected)

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

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Payload(m=1, shifts=(0.5, 0, 0, 0)),
            lambda: Payload(m=1.0, shifts=(0, 0, 0, 0)),
            lambda: EmbedConfig(2.5),
        ],
        ids=["shift", "m", "strength"],
    )
    def test_non_integer_refused(self, make):
        with pytest.raises(ValueError, match="must be an integer"):
            make()

    def test_numpy_integers_accepted(self, family_3_2):
        payload = Payload(m=np.int64(1), shifts=tuple(np.arange(4, dtype=np.int64) % 3))
        assert payload == Payload(m=1, shifts=(0, 1, 2, 0))
        assert type(payload.m) is int and {type(s) for s in payload.shifts} == {int}
        config = EmbedConfig(np.int64(3))
        assert embed(flat_gray(27), family_3_2[1], payload, config) == embed(
            flat_gray(27), family_3_2[1], Payload(1, (0, 1, 2, 0)), EmbedConfig(3)
        )


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
        params = LegendreParams(p=3, n=2, a=1)
        family = build_family(legendre_array(params), params)
        with pytest.raises(ValueError, match=r"origin value a = 0"):
            extract(flat_gray(27), family)

    def test_nan_threshold_refused(self, family_3_2):
        with pytest.raises(ValueError, match="snr threshold must be a number"):
            extract(flat_gray(27), family_3_2, snr_threshold=math.nan)


def family_for(p, n):
    params = LegendreParams(p=p, n=n)
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
        # extract and verify_family each make two matrix products, C = X @ H
        # of q x q cells and H @ [C_0 | ... | C_{p-1}] of q x p*q, and no FFT
        family = family_for(p, n)
        th, tw = tile_dims(family[0].arr.dims)
        q = p**n
        shapes = []
        real = np.matmul

        def counted(a, b, **kwargs):
            out = real(a, b, **kwargs)
            shapes.append(out.shape)
            return out

        def no_transform(*args, **kwargs):
            raise AssertionError("FFT called")

        monkeypatch.setattr(np, "matmul", counted)
        for name in ("fftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, no_transform)
        extract(flat_gray(2 * max(th, tw)), family)
        assert shapes == [(q, q), (q, p * q)]
        shapes.clear()
        verify_family(family)
        assert shapes == [(q, q), (q, p * q)]


def reference_extract(img, family):
    """extract by its definition, and the sum of squares of each table: the
    int64 tables of member_tables on the folded period, the first peak in
    (m, C order) by np.argmax, and the energy summed in Python ints."""
    dims = family.base.dims * 2
    period = _unflatten_values(_fold_tiles(img.pixels, *tile_dims(dims)), dims)
    tables = np.stack(list(member_tables(period, family.base.values)))
    m, *shift = np.unravel_index(np.argmax(tables), tables.shape)
    score = int(tables[(m, *shift)])
    energies = [sum(v * v for v in table.reshape(-1).tolist()) for table in tables]
    rms = math.sqrt((sum(energies) - score**2) / (tables.size - 1))
    snr = score / rms if rms > 0 else (math.inf if score > 0 else 0.0)
    payload = Payload(int(m), tuple(int(k) for k in shift))
    return ExtractionResult(payload, score, snr, snr >= 4.0), energies


@st.composite
def tie_heavy_carriers(draw):
    """A one-tile carrier whose period, read as a p^n x p^n matrix, has {0, 1}
    or constant entries plus a random integer offset per row: its tables
    tie heavily, and the offsets are what extract's row centring removes."""
    p, n = draw(st.sampled_from([(3, 1), (3, 2), (5, 2), (3, 3)]))
    q = p**n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rows = rng.integers(0, 2, size=(q, q))
    else:
        rows = np.full((q, q), rng.integers(0, 2))
    rows += rng.integers(0, draw(st.sampled_from([1, 2, 255])), size=(q, 1))
    tile = _flatten_values(rows.reshape((p,) * (2 * n)))
    return GrayImage(tile.astype(np.uint8)), family_for(p, n)


class TestExtractAgainstReference:
    """extract reads the raw products; the reference reads the tables."""

    @given(tie_heavy_carriers())
    @settings(max_examples=80, deadline=None)
    def test_tie_heavy_periods(self, case):
        img, family = case
        assert extract(img, family) == reference_extract(img, family)[0]

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2), (13, 2), (3, 4)])
    def test_watermark_rungs_on_seeded_carriers(self, p, n):
        family = family_for(p, n)
        th, tw = tile_dims(family[0].arr.dims)
        rng = np.random.default_rng(3000 * p + n)
        carrier = rng.integers(0, 256, size=(2 * th + 3, 3 * tw + 5), dtype=np.uint8)
        payload = Payload(int(rng.integers(p)), tuple(rng.integers(p, size=2 * n)))
        marked = embed(GrayImage(carrier), family[payload.m], payload).pixels
        for pixels in (marked, carrier, marked[2:, 1:]):
            img = GrayImage(np.ascontiguousarray(pixels))
            assert extract(img, family) == reference_extract(img, family)[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_snr_energy_exact_beyond_2_53(self, family_3_2, seed):
        # a saturated mark on noise over 133 x 133 tiles: every table's sum of
        # squares is at least 2**53, where a float64 sum of the squares rounds
        rng = np.random.default_rng(seed)
        carrier = GrayImage(rng.integers(0, 256, size=(133 * 9, 133 * 9), dtype=np.uint8))
        marked = embed(carrier, family_3_2[1], Payload(1, (1, 2, 0, 1)), EmbedConfig(255))
        expected, energies = reference_extract(marked, family_3_2)
        assert min(energies) >= 2**53
        assert extract(marked, family_3_2) == expected


def _clip(values):
    return GrayImage(np.clip(values, 0, 255).astype(np.uint8))


# each attack maps (marked pixels, tile shape, rng) to the attacked image;
# flips, transposes and the half-turn are left out, as they decode wrong
ATTACKS = {
    "none": lambda px, tile, rng: GrayImage(px),
    "gain-0.5": lambda px, tile, rng: _clip(np.rint(px * 0.5)),
    "offset+40": lambda px, tile, rng: _clip(px.astype(np.int64) + 40),
    "noise-8": lambda px, tile, rng: _clip(np.rint(px + rng.normal(0, 8, px.shape))),
    "noise-32": lambda px, tile, rng: _clip(np.rint(px + rng.normal(0, 32, px.shape))),
    "requantise-16": lambda px, tile, rng: GrayImage(px // 16 * 16),
    "crop-tile": lambda px, tile, rng: GrayImage(np.ascontiguousarray(px[tile[0]:, tile[1]:])),
}


class TestAttackMatrix:
    """Marks on uniform-noise carriers decode right and confident after each
    attack: strength 3, a random member m >= 1 and random shifts, seeds 0-4."""

    @pytest.mark.parametrize("attack", list(ATTACKS))
    @pytest.mark.parametrize("p,n,side", [(3, 2, 243), (5, 2, 400), (3, 3, 243)])
    def test_attacked_mark_decodes_confident(self, p, n, side, attack):
        family = family_for(p, n)
        tile = tile_dims(family[0].arr.dims)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            carrier = rng.integers(0, 256, size=(side, side), dtype=np.uint8)
            payload = Payload(int(rng.integers(1, p)), tuple(rng.integers(p, size=2 * n)))
            marked = embed(GrayImage(carrier), family[payload.m], payload, EmbedConfig(3))
            result = extract(ATTACKS[attack](marked.pixels, tile, rng), family)
            assert (result.payload, result.confident) == (payload, True), (seed, result.snr)


# extract(...).to_json_dict() recorded once the tables became exact integers
# computed from the base array's spectrum. score is the integer peak; snr is
# computed from the exact integer sum of squares, which no summation order
# changes, and floats compare with ==, so any change to that sum or to the
# float steps after it shows. The confident result on the
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
    params = LegendreParams(p, n)
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


# sha256 of write_pgm(embed(...)) on a seeded 1024^2 noise carrier at the
# watermark benchmark's five rungs, recorded before embed added one band by
# broadcasting: the marked PGM is pinned byte for byte. The noise spans
# 0-255, so clamping at both ends is part of what is pinned.
PINNED_EMBED_SHA256 = {
    (3, 2): "87efc0f688793cf404e2212753e1e45aa535b7a84f2854bba986ec8d13fdb476",
    (5, 2): "6777821b6e94f465905a5533c17f2aba9d5a28a1e2d7720747fcfde6be73e230",
    (7, 2): "d35998f0d52a83241e2f5f2ad4e52c69e904627d099570369282f21e54bc9349",
    (13, 2): "f992e43717fc0daef8033a9bbb0d7773510975975f8f7cc1aff52152a528b42d",
    (3, 4): "aff97b8396aca9d65d730673bf8ef1e9a6c56fa94821aab0a7d3e9e5bbd31a34",
}


@pytest.mark.parametrize("p,n", list(PINNED_EMBED_SHA256))
def test_embed_output_is_pinned(p, n):
    params = LegendreParams(p, n)
    base = legendre_array(params)
    rng = np.random.default_rng(2000 * p + n)
    carrier = rng.integers(0, 256, size=(1024, 1024), dtype=np.uint8)
    payload = Payload(int(rng.integers(p)), tuple(rng.integers(p, size=2 * n)))
    marked = embed(GrayImage(carrier), build_member(base, payload.m, params), payload)
    assert hashlib.sha256(write_pgm(marked)).hexdigest() == PINNED_EMBED_SHA256[(p, n)]
