import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legarray import arrays
from legarray.arrays import (
    IntArray,
    TernaryArray,
    _read_canonical,
    _read_tokens,
    deserialize,
    render,
    serialize,
)
from legarray.correlation import cross_correlation_at, full_correlation_fast
from legarray.family import build_family
from legarray.legendre import LegendreParams, legendre_array

from reference_data import ARRAY_P5_N2, SEQ_P17


def random_ternary(rng, dims):
    return TernaryArray(rng.integers(-1, 2, size=dims))


def per_entry_nda(arr):
    """Reference writer: each entry formatted on its own, one line per trailing-axis run."""
    lines = ["NDA1", str(arr.rank), " ".join(str(d) for d in arr.dims), arr.kind]
    flat = arr.values.reshape(-1)
    width = arr.dims[-1]
    for start in range(0, flat.size, width):
        lines.append(" ".join(str(int(v)) for v in flat[start : start + width]))
    return "\n".join(lines) + "\n"


INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@st.composite
def nda_arrays(draw):
    """(array, narrow): ranks 1-8 of extents 1-3, ternary or int; narrow
    when the entries span fewer values than there are entries, so serialize
    codes them by offset, else it sorts them through np.unique. Int entries
    are offsets from any int64 (narrow), of up to 19 digits, or include
    INT64_MIN and INT64_MAX."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=8)))
    size = int(np.prod(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ternary", "narrow", "digits", "extremes"]))
    if kind == "ternary":
        arr = random_ternary(rng, dims)
    elif kind == "narrow":
        lo = draw(st.integers(INT64_MIN, INT64_MAX - (size - 1)))
        arr = IntArray(lo + rng.integers(0, size, size=dims, dtype=np.int64))
    elif kind == "digits":
        top = min(10 ** draw(st.integers(1, 19)) - 1, INT64_MAX)
        arr = IntArray(rng.integers(-top, top, size=dims, dtype=np.int64, endpoint=True))
    else:
        values = rng.integers(INT64_MIN, INT64_MAX, size=size, dtype=np.int64, endpoint=True)
        values[rng.permutation(size)[:2]] = [INT64_MIN, INT64_MAX][: min(size, 2)]
        arr = IntArray(values.reshape(dims))
    entries = arr.values.reshape(-1).tolist()
    return arr, max(entries) - min(entries) < size


def _written_arrays():
    """The arrays the CLI writes: family members, Legendre arrays, correlation tables."""
    for p, n in [(3, 2), (5, 2), (7, 2), (13, 2), (3, 3), (3, 4)]:
        params = LegendreParams(p, n).resolve()
        family = build_family(legendre_array(params), params)
        yield from (member.arr for member in family)
        yield full_correlation_fast(family[1].arr, family[1].arr)
        yield full_correlation_fast(family[0].arr, family[p - 1].arr)
    for p, n in [(7, 4), (3, 7), (23, 3), (5, 5)]:
        for a in (-1, 0, 1):
            yield legendre_array(LegendreParams(p, n, a))


class TestConstruction:
    def test_validates_entries(self):
        with pytest.raises(ValueError):
            TernaryArray([[0, 2]])
        with pytest.raises(ValueError):
            TernaryArray([300])
        with pytest.raises(ValueError):
            TernaryArray([0.5])

    def test_rejects_zero_extent_and_bad_rank(self):
        with pytest.raises(ValueError):
            TernaryArray(np.zeros((2, 0), dtype=np.int8))
        with pytest.raises(ValueError):
            TernaryArray(np.int8(1))
        with pytest.raises(ValueError):
            IntArray(np.zeros((1,) * 9, dtype=np.int64))

    @pytest.mark.parametrize("cls", [IntArray, TernaryArray])
    @pytest.mark.parametrize("entry", [2**63, 2**64 - 1])
    def test_uint64_entries_past_int64_refused(self, cls, entry):
        # a cast would wrap them to negative int64 values
        values = np.zeros((3, 3), dtype=np.uint64)
        values[1, 2] = entry
        with pytest.raises(ValueError, match=f"entry {entry} is outside the int64 range"):
            cls(values)

    @pytest.mark.parametrize("cls", [IntArray, TernaryArray])
    @pytest.mark.parametrize("entry", [2**64, -(2**63) - 1, 10**30])
    def test_python_ints_past_int64_refused(self, cls, entry):
        # numpy holds these in an object array, not an integer one
        message = f"entry {entry} is outside the int64 range"
        with pytest.raises(ValueError, match=message):
            cls([[0, 1], [entry, 0]])
        arr = cls(np.zeros((2, 2), dtype=np.int8))
        with pytest.raises(ValueError, match=message):
            arr.set((1, 0), entry)
        assert arr.values.tolist() == [[0, 0], [0, 0]]

    @pytest.mark.parametrize(
        "values", [[0.5, 2**64], [None, 2**64], np.array([1, 2], dtype=object)]
    )
    def test_object_entries_not_all_integers_refused_by_dtype(self, values):
        with pytest.raises(ValueError, match="entries must be integers, got dtype object"):
            IntArray(values)

    def test_uint64_entries_at_int64_max_accepted(self):
        arr = IntArray(np.full((3, 3), 2**63 - 1, dtype=np.uint64))
        assert arr.values.dtype == np.int64
        assert arr.values.tolist() == [[2**63 - 1] * 3] * 3

    def test_from_flat_checks_length(self):
        arr = TernaryArray.from_flat((2, 3), [1, 0, -1, 0, 1, 1])
        assert arr.dims == (2, 3)
        with pytest.raises(ValueError):
            TernaryArray.from_flat((2, 3), [1, 0])


class TestIndexing:
    def test_row_major_linearization(self):
        rng = np.random.default_rng(7)
        arr = random_ternary(rng, (3, 4, 5))
        flat = arr.values.reshape(-1)
        # independent stride computation
        for idx in np.ndindex(arr.dims):
            linear = 0
            for i, d in zip(idx, arr.dims):
                linear = linear * d + i
            assert arr.get(idx) == flat[linear]

    def test_get_set_round_trip(self):
        arr = TernaryArray(np.zeros((2, 2), dtype=np.int8))
        arr.set((1, 0), -1)
        assert arr.get((1, 0)) == -1
        with pytest.raises(ValueError):
            arr.set((0, 0), 5)

    def test_raw_out_of_range_rejected(self):
        arr = TernaryArray(np.zeros((2, 2), dtype=np.int8))
        with pytest.raises(IndexError):
            arr.get((2, 0))
        with pytest.raises(ValueError):
            arr.get((0, 0, 0))

    def test_cyclic_get_is_periodic(self):
        rng = np.random.default_rng(3)
        arr = random_ternary(rng, (5, 4))
        assert arr.cyclic_get((5, 0)) == arr.get((0, 0))
        assert arr.cyclic_get((-1, 7)) == arr.get((4, 3))


class TestScalarPaths:
    """get, set, cyclic_get, cyclic_shift and cross_correlation_at take
    integer indices, offsets, shifts and entries only, as the constructor
    takes integer arrays only: nothing is truncated."""

    @pytest.mark.parametrize("value", [1.5, 0.9, "1", np.float64(1.0), True])
    def test_set_refuses_non_integer_entries(self, value):
        arr = TernaryArray(np.zeros((2, 2), dtype=np.int8))
        with pytest.raises(ValueError, match="entries must be integers"):
            arr.set((0, 0), value)
        assert arr.values.tolist() == [[0, 0], [0, 0]]

    def test_int_set_past_int64_refused_like_the_constructor(self):
        arr = IntArray(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match=f"entry {2**63} is outside the int64 range"):
            arr.set((0, 0), 2**63)
        arr.set((0, 0), 2**63 - 1)
        arr.set((1, 1), np.int8(-2**7))
        arr.set((0, 1), -(2**63))
        assert arr.values.tolist() == [[2**63 - 1, -(2**63)], [0, -128]]

    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda arr: arr.get((1.7, 0.2)), "index"),
            (lambda arr: arr.set((0, 0.0), 1), "index"),
            (lambda arr: arr.cyclic_get((0.5, 1)), "index"),
            (lambda arr: arr.cyclic_shift((1.5, 0)), "offset"),
            (lambda arr: cross_correlation_at(arr, arr, (0.5, 1.5)), "shift"),
        ],
    )
    def test_non_integer_positions_refused(self, call, name):
        arr = TernaryArray([[1, 0], [-1, 1]])
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call(arr)

    def test_numpy_integer_positions_accepted(self):
        arr = TernaryArray([[1, 0], [-1, 1]])
        assert arr.get((np.int64(1), np.uint8(0))) == -1
        assert arr.cyclic_shift((np.int32(1), 0)) == arr.cyclic_shift((1, 0))
        assert cross_correlation_at(arr, arr, np.array([0, 1])) == -2


class TestCyclicShift:
    def test_zero_and_full_period_shift(self):
        rng = np.random.default_rng(11)
        arr = random_ternary(rng, (4, 6))
        assert arr.cyclic_shift((0, 0)) == arr
        assert arr.cyclic_shift((4, 6)) == arr

    def test_shift_semantics(self):
        arr = TernaryArray([[1, 0], [-1, 1]])
        shifted = arr.cyclic_shift((1, 0))
        for idx in np.ndindex(arr.dims):
            assert shifted.get(idx) == arr.cyclic_get((idx[0] + 1, idx[1]))

    def test_inverse_shift(self):
        rng = np.random.default_rng(13)
        arr = random_ternary(rng, (3, 5, 2))
        off = (2, 4, 1)
        assert arr.cyclic_shift(off).cyclic_shift(tuple(-o for o in off)) == arr

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_shifts_compose_additively(self, u0, u1, v0, v1):
        rng = np.random.default_rng(17)
        arr = random_ternary(rng, (4, 5))
        lhs = arr.cyclic_shift((u0, u1)).cyclic_shift((v0, v1))
        rhs = arr.cyclic_shift((u0 + v0, u1 + v1))
        assert lhs == rhs

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TernaryArray([[1]]).cyclic_shift((1,))


class TestNdaFormat:
    def test_reference_arrays_round_trip(self):
        for values in (SEQ_P17, ARRAY_P5_N2):
            arr = TernaryArray(values)
            assert deserialize(serialize(arr)) == arr

    def test_int_kind_round_trip(self):
        arr = IntArray([[64, -8], [10, 1]])
        text = serialize(arr)
        assert "int" in text.splitlines()[3]
        assert deserialize(text) == arr

    def test_random_round_trips(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            rank = int(rng.integers(1, 7))
            dims = tuple(int(d) for d in rng.integers(1, 5, size=rank))
            arr = random_ternary(rng, dims)
            assert deserialize(serialize(arr)) == arr

    def test_header_layout(self):
        text = serialize(TernaryArray([[1, -1, 0], [0, 1, 1]]))
        lines = text.splitlines()
        assert lines[0] == "NDA1"
        assert lines[1] == "2"
        assert lines[2] == "2 3"
        assert lines[3] == "ternary"
        assert text.endswith("\n")

    @pytest.mark.parametrize(
        "text",
        [
            "XXX1\n1\n2\nternary\n1 0\n",          # bad magic
            "NDA1\n0\nternary\n",                   # bad rank
            "NDA1\n1\n3\nternary\n1 0\n",           # length mismatch
            "NDA1\n1\n2\nternary\n1 2\n",           # out-of-domain ternary entry
            "NDA1\n1\n2\nfloat\n1 0\n",             # unknown kind
            "NDA1\n2\n2\nternary\n1 0\n",           # truncated extents
            "NDA1\n1\n2\nternary\n1 x\n",           # non-integer entry
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            deserialize(text)

    def test_matches_per_entry_formatting(self):
        rng = np.random.default_rng(31)
        extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1])
        for rank in range(1, 9):
            for trailing in (1, 3):
                dims = tuple(int(d) for d in rng.integers(1, 4, size=rank - 1)) + (trailing,)
                ints = rng.integers(-(2**62), 2**62, size=dims, dtype=np.int64)
                ints.reshape(-1)[: extremes.size] = extremes[: ints.size]
                for arr in (random_ternary(rng, dims), IntArray(ints)):
                    assert serialize(arr) == per_entry_nda(arr), (rank, dims, arr.kind)

    @given(nda_arrays())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_entry_formatting_in_both_branches(self, drawn):
        arr, narrow = drawn
        assert serialize(arr) == per_entry_nda(arr), (arr.dims, arr.kind, narrow)

    def test_strategy_reaches_both_branches(self):
        seen = set()

        @given(nda_arrays())
        @settings(max_examples=100, deadline=None, database=None, derandomize=True)
        def collect(drawn):
            arr, narrow = drawn
            seen.add((arr.kind, narrow, arr.rank == 8))

        collect()
        assert {("int", True), ("int", False), ("ternary", True)} <= {s[:2] for s in seen}
        assert any(rank8 for *_, rank8 in seen)

    def test_written_arrays_match_per_entry_formatting(self):
        count = 0
        for arr in _written_arrays():
            text = serialize(arr)
            assert text == per_entry_nda(arr), (arr.dims, arr.kind)
            assert deserialize(text) == arr, (arr.dims, arr.kind)
            count += 1
        assert count == 3 + 5 + 7 + 13 + 3 + 3 + 6 * 2 + 4 * 3

    def test_int_tokens_parse_as_python_int(self):
        # "\u0663" is ARABIC-INDIC DIGIT THREE, which int() reads as 3
        arr = deserialize("NDA1\n1\n5\nint\n+1 01 1_0 -0 \u0663\n")
        assert arr.values.tolist() == [1, 1, 10, 0, 3]

    @pytest.mark.parametrize("token", ["1.5", "x"])
    def test_non_integer_token_rejected(self, token):
        with pytest.raises(ValueError, match="non-integer entry"):
            deserialize(f"NDA1\n1\n2\nint\n1 {token}\n")

    def test_int64_limits_parse(self):
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        arr = deserialize(f"NDA1\n1\n2\nint\n{lo} {hi}\n")
        assert arr.values.tolist() == [lo, hi]

    @pytest.mark.parametrize("kind", ["int", "ternary"])
    @pytest.mark.parametrize("entry", ["99999999999999999999", "9223372036854775808",
                                       "-9223372036854775809"])
    def test_entry_outside_int64_rejected(self, kind, entry):
        with pytest.raises(ValueError, match=f"entry {entry} is outside the int64 range"):
            deserialize(f"NDA1\n1\n2\n{kind}\n0 {entry}\n")

    def test_digit_boundary(self):
        # 18 digits are read in the vectorised pass; 19 go through int()
        for entry in ["999999999999999999", "-999999999999999999"]:
            assert _read_canonical(f"0 {entry}\n", 2) is not None
            assert deserialize(f"NDA1\n1\n2\nint\n0 {entry}\n").values.tolist() == [0, int(entry)]
        for entry in [str(INT64_MAX), str(INT64_MIN), "1000000000000000000"]:
            assert _read_canonical(f"0 {entry}\n", 2) is None
            assert deserialize(f"NDA1\n1\n2\nint\n0 {entry}\n").values.tolist() == [0, int(entry)]
        # so entries past int64 get int()'s range error
        for entry in ["99999999999999999999", "9223372036854775808", "-9223372036854775809"]:
            assert _read_canonical(f"0 {entry}\n", 2) is None

    @pytest.mark.parametrize(
        "text,message",
        [
            ("XXX1\n1\n2\nint\n1 0\n", "bad magic"),
            # fewer than three header fields, checked before the rank is read
            ("NDA1\n0\nint\n", "truncated NDA header"),
            ("NDA1\nx\n", "truncated NDA header"),
            ("NDA1\nx\n2\nint\n1 2\n", "bad rank field 'x'"),
            ("NDA1\n0\n2\nint\n1 2\n", "rank must be >= 1, got 0"),
            ("NDA1\n3\n2 2\nint\n", "truncated NDA header"),
            ("NDA1\n99999999999999999999\n1\nint\n1\n", "truncated NDA header"),
            ("NDA1\n2\n2 x\nint\n1 2 3 4\n", "bad extent field"),
            ("NDA1\n2\n2 0\nint\n", "extents must be positive, got \\(2, 0\\)"),
            ("NDA1\n1\n2\nfloat\n1 2\n", "unknown entry kind 'float'"),
            ("NDA1\n1\n2\nint\n1\n", "expected 2 entries, got 1"),
            ("NDA1\n1\n2\nint\n", "expected 2 entries, got 0"),
            ("NDA1\n1\n2\nint\n1 x\n", "non-integer entry"),
            ("NDA1\n1\n2\nternary\n1 2\n", "ternary entries must be in"),
        ],
    )
    def test_refusal_messages(self, text, message):
        with pytest.raises(ValueError, match=message):
            deserialize(text)

    def test_serialization_is_deterministic(self):
        rng = np.random.default_rng(29)
        arr = random_ternary(rng, (3, 3, 3))
        assert serialize(arr) == serialize(TernaryArray(arr.values.copy()))


def _same_read(a, b):
    assert a.dtype == b.dtype == np.int64
    assert a.tolist() == b.tolist()


def _token_rewrites(token: str) -> list[str]:
    """Spellings of token's value that int() reads but serialize never writes."""
    sign, digits = ("-", token[1:]) if token.startswith("-") else ("", token)
    rewrites = [
        f"{sign}0{digits}",
        f"{sign}0_{digits}",
        sign + "".join(chr(0x660 + int(d)) for d in digits),  # ARABIC-INDIC digits
    ]
    if not sign:
        rewrites.append(f"+{digits}")
    if digits == "0":
        rewrites.append("-0")
    return rewrites


def _body_rewrites(body: str) -> list[str]:
    """The same tokens in body layouts other than the one serialize writes."""
    at = next(i for i, c in enumerate(body) if c in " \n")
    return [
        body[:at] + body[at] + body[at:],  # doubled separator
        body[:at] + "\t" + body[at + 1 :],  # tab
        body.replace("\n", "\r\n"),  # CRLF
        body[:-1],  # no final newline
    ]


def _header_rewrites(text: str, spacing: str) -> list[str]:
    """The same header in layouts other than the one serialize writes, the
    body as it is: `spacing` between the fields, signs and leading zeros,
    other digits, spaces around the magic."""
    magic, rank, extents, kind, body = text.split("\n", 4)
    fields = [rank, *extents.split(" "), kind]
    return [
        magic + "\n" + spacing.join(fields) + "\n" + body,
        f"{magic}\n{rank} {extents} {kind}\n{body}",  # header on one line
        f"{magic}\n{rank}\n{extents}\n{kind}{spacing}\n{body}",
        f"{magic}\n+0{rank}\n{' '.join('0_' + e for e in extents.split(' '))}\n{kind}\n{body}",
        f"{magic}\n{chr(0x660 + int(rank))}\n{extents}\n{kind}\n{body}",  # ARABIC-INDIC
        f" {magic} \n{rank}\n{extents}\n{kind}\n{body}",
    ]


# Texts serialize does not write: (body, entry count, the reader its body
# is read by) after the header is parsed, or None when the header is refused
_OTHER_TEXTS = {
    "NDA1\n1\n2\nint\n1-2 3\n": ("1-2 3\n", 2, "int()"),
    "NDA1\n1\n2\nint\n- 3\n": ("- 3\n", 2, "int()"),
    "NDA1\n1\n2\nint\n--1 3\n": ("--1 3\n", 2, "int()"),
    "NDA1\n1\n2\nint\n1 2 3\n": ("1 2 3\n", 2, "int()"),
    "NDA1\n1\n3\nint\n1 2\n": ("1 2\n", 3, "int()"),
    "NDA1\n1\n0\nint\n\n": None,
    "NDA1\n1\n02\nint\n1 2\n": ("1 2\n", 2, "vectorised"),
    "NDA1\n01\n2\nint\n1 2\n": ("1 2\n", 2, "vectorised"),
    "NDA1\n2\n2\nint\n1 2\n": None,
    "NDA1\n1\n2\nfloat\n1 2\n": None,
    "NDA1 \n1\n2\nint\n1 2\n": ("1 2\n", 2, "vectorised"),
    "NDA1\n1\n2\nint\n1 2\n\n": ("1 2\n\n", 2, "int()"),
    "NDA1\n1\n2\nint\n1 2 3": ("1 2 3", 2, "int()"),
    "NDA1\n1\n2\nint\n-0 1\n": ("-0 1\n", 2, "int()"),
    "NDA1\n1\n2\nint\n01 1\n": ("01 1\n", 2, "int()"),
    "NDA1\n1\n2\nint\n": ("", 2, "int()"),
}


class TestCanonicalRead:
    """The vectorised body pass against the int() pass, entry by entry. The
    header is parsed once, whatever its layout; only the body's form picks
    its reader."""

    @given(nda_arrays())
    @settings(max_examples=200, deadline=None)
    def test_canonical_text_reads_as_int_does(self, drawn):
        arr, _ = drawn
        text = serialize(arr)
        body = text.split("\n", 4)[4]
        canonical = _read_canonical(body, arr.size)
        # tokens of 19 digits and more are left to int()
        assert (canonical is None) == any(abs(v) >= 10**18 for v in arr.values.reshape(-1).tolist())
        if canonical is not None:
            _same_read(canonical, _read_tokens(body, arr.size))
        assert deserialize(text) == arr

    @given(nda_arrays(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rewrites_fall_back_to_the_same_array(self, drawn, data):
        arr, _ = drawn
        text = serialize(arr)
        *head, body = text.split("\n", 4)
        tokens = body.split()
        i = data.draw(st.integers(0, len(tokens) - 1))
        spelled = data.draw(st.sampled_from(_token_rewrites(tokens[i])))
        retokened = " ".join(tokens[:i] + [spelled] + tokens[i + 1 :]) + "\n"
        # a body rewrite is read by int(), whatever the header
        for rewrite in [retokened, *_body_rewrites(body)]:
            assert _read_canonical(rewrite, arr.size) is None, repr(rewrite[:80])
            _same_read(_read_tokens(rewrite, arr.size), _read_tokens(body, arr.size))
            assert deserialize("\n".join([*head, rewrite])) == arr
        # a header rewrite leaves a canonical body to the vectorised pass
        spacing = data.draw(st.sampled_from([" ", "\t", "\r\n", "  \n ", "\x0b", "\u2003"]))
        canonical = _read_canonical(body, arr.size) is not None
        for rewrite in _header_rewrites(text, spacing):
            with mock.patch.object(arrays, "_read_tokens", wraps=_read_tokens) as by_int:
                assert deserialize(rewrite) == arr, repr(rewrite[:80])
            assert by_int.called != canonical

    def test_written_arrays_read_canonically(self):
        for arr in _written_arrays():
            body = serialize(arr).split("\n", 4)[4]
            _same_read(_read_canonical(body, arr.size), _read_tokens(body, arr.size))

    @pytest.mark.parametrize("text", list(_OTHER_TEXTS))
    def test_other_text_is_not_canonical(self, text):
        if _OTHER_TEXTS[text] is None:
            with pytest.raises(ValueError):
                deserialize(text)
            return
        body, count, reader = _OTHER_TEXTS[text]
        assert text.endswith(body)
        assert (_read_canonical(body, count) is None) == (reader == "int()")
        try:
            flat = _read_tokens(body, count)
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                deserialize(text)
        else:
            assert deserialize(text).values.reshape(-1).tolist() == flat.tolist()


class TestRender:
    def test_all_zero_maps_to_mid_gray(self):
        img = render(TernaryArray(np.zeros((2, 2), dtype=np.int8)))
        assert img.width == img.height == 2
        assert (img.pixels == 128).all()

    def test_value_mapping(self):
        img = render(TernaryArray([[-1, 0, 1]]))
        assert img.pixels.tolist() == [[255, 128, 0]]

    def test_scale(self):
        img = render(TernaryArray([[1, -1]]), scale=3)
        assert img.pixels.shape == (3, 6)
        assert (img.pixels[:, :3] == 0).all()
        assert (img.pixels[:, 3:] == 255).all()

    def test_rank_restriction(self):
        with pytest.raises(ValueError):
            render(TernaryArray([1, 0, -1]))
        with pytest.raises(ValueError):
            render(TernaryArray(np.zeros((2, 2, 2), dtype=np.int8)))

    def test_renders_larger_flattened_member(self):
        from legarray.family import build_member
        from legarray.legendre import LegendreParams, legendre_array
        from legarray.watermark import flatten

        params = LegendreParams(p=7, n=2).resolve()
        member = build_member(legendre_array(params), 1, params)
        img = render(flatten(member.arr))
        assert (img.width, img.height) == (49, 49)
        assert int((img.pixels == 128).sum()) == 2 * 49 - 1  # one gray pixel per zero
