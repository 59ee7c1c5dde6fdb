import contextlib
import dataclasses
import hashlib
import io
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from legarray import arrays, correlation, family, images, watermark
from legarray.fields import Poly
from legarray.cli import _list_pieces, _print_json, _report_texts, build_parser, main

from cli_usage_text import CLI_USAGE
from reference_data import FLATTENED_S1, SEQ_P17, THETA_S1


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bound_reports(report):
    return report["theorem1"] + report["theorem2"]


# sha256 of verify's stdout before the report gained `peak_shift_count`,
# when every attaining shift was listed: `--full` minus that key reproduces it
FULL_REPORT_SHA256 = {
    ("--p", "3", "--n", "2", "--poly", "2,2,1"):
        "9df76ea430fa2f1ba6af177b26de4315914af52f5c90643b10ac191d0c299cd4",
    ("--p", "5", "--n", "2", "--fast"):
        "15bd17055d6d4263cbbbacbd06743a01334b9f49829c0250e1a13b4c6204f540",
}

# sha256 of verify's stdout as printed, default and --full: any change to a
# report's values, members or the order of its listed shifts shows here
VERIFY_STDOUT_SHA256 = {
    ("--p", "7", "--n", "2"):
        "cbb77ff00070d5cae6b372da726db71fdeb19f7b8a910d5bb1d9da8e61e4acaa",
    ("--p", "7", "--n", "2", "--full"):
        "10a016b89896191a47e3c1dc2f2db5c7a1234a9f5b3b468487d52ef2d3edae07",
    ("--p", "3", "--n", "3"):
        "c5de800a9f036173a3223b36ce23edf4b96ef2999cc5e097fd452eed11c929a8",
    ("--p", "3", "--n", "3", "--full"):
        "5676e4ca86d349d5479134bf5efcdc0a38db9df3e4306d8eb6e4264cfb24558a",
    ("--p", "3", "--n", "4"):
        "b532502567e916706262fcab0d99a119637e3fc9c7fff1643f68a8beaf914881",
    ("--p", "3", "--n", "4", "--full"):
        "05a0ab314f3b4c7734d1b2d2c55563337f6ccfe6875dba81f0085f58959fbd1d",
    ("--p", "11", "--n", "2"):
        "5eb4c2df7b6b4733964c8f14bd29ba2945ae389fd172b55496e928cf5a002777",
    ("--p", "13", "--n", "2"):
        "912728966fe379e8f3099cd844703c92b0829f33497b21386f1459ab6040d6cf",
    ("--p", "13", "--n", "2", "--full"):
        "fd64f752eb495d794d2c02680000e2e6b800857d1f9c51407fbef964f4c07d27",
}


class TestGenLegendre:
    def test_p17_matches_reference(self, capsys):
        code, out, _ = run(capsys, "gen-legendre", "--p", "17")
        assert code == 0
        arr = arrays.deserialize(out)
        assert np.array_equal(arr.values, SEQ_P17)

    def test_byte_identical_across_runs(self, capsys):
        _, out1, _ = run(capsys, "gen-legendre", "--p", "5", "--n", "2")
        _, out2, _ = run(capsys, "gen-legendre", "--p", "5", "--n", "2")
        assert out1 == out2

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "seq.nda"
        code, out, _ = run(capsys, "gen-legendre", "--p", "3", "--out", str(target))
        assert code == 0 and out == ""
        assert arrays.deserialize(target.read_text()).values.tolist() == [0, 1, -1]

    def test_explicit_poly(self, capsys):
        code, out, _ = run(
            capsys, "gen-legendre", "--p", "3", "--n", "2", "--poly", "2,2,1"
        )
        assert code == 0
        assert arrays.deserialize(out).dims == (3, 3)

    def test_invalid_p_exits_1(self, capsys):
        code, _, err = run(capsys, "gen-legendre", "--p", "9")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen-legendre", "--p", "3", "--n", "14"),
            ("gen-legendre", "--p", "3", "--n", "41", "--poly", "1," + "0," * 40 + "1"),
            ("verify", "--p", "3", "--n", "14", "--fast"),
        ],
        ids=["search", "poly", "verify"],
    )
    def test_untabulated_field_exits_1_at_once(self, capsys, argv):
        # refused before the primitive-polynomial search (3^13 candidates at n = 14)
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "too large to tabulate" in err

    def test_over_rank_array_exits_1_at_once(self, capsys, tmp_path):
        # 3^12 is tabulatable, but rank 12 is refused before the search and
        # the antilog table are built
        target = tmp_path / "a.nda"
        start = time.perf_counter()
        code, _, err = run(capsys, "gen-legendre", "--p", "3", "--n", "12", "--out", str(target))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "rank 12 exceeds limit 8" in err
        assert not target.exists()


class TestGenFamily:
    def test_writes_all_members(self, capsys, tmp_path):
        out_dir = tmp_path / "fam"
        code, _, _ = run(
            capsys, "gen-family", "--p", "3", "--n", "2", "--poly", "2,2,1",
            "--out", str(out_dir),
        )
        assert code == 0
        names = sorted(f.name for f in out_dir.iterdir())
        assert names == ["S_0.nda", "S_1.nda", "S_2.nda"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen-family", "--p", "3", "--n", "6", "--m", "1", "--out"),
            ("verify", "--p", "3", "--n", "5", "--fast", "--out"),
        ],
        ids=["gen-family", "verify"],
    )
    def test_oversized_family_exits_1_at_once(self, capsys, tmp_path, argv):
        # refused before a member is built or the output is created
        target = tmp_path / "out"
        start = time.perf_counter()
        code, _, err = run(capsys, *argv, str(target))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "exceeds limit 8" in err
        assert not target.exists()

    def test_single_member_matches_library(self, capsys, tmp_path, family_3_2):
        out_dir = tmp_path / "fam"
        run(capsys, "gen-family", "--p", "3", "--n", "2", "--poly", "2,2,1",
            "--m", "1", "--out", str(out_dir))
        arr = arrays.deserialize((out_dir / "S_1.nda").read_text())
        assert arr == family_3_2[1].arr


class TestCorr:
    def test_table_matches_library(self, capsys, tmp_path, family_3_2):
        a_path = tmp_path / "a.nda"
        a_path.write_text(arrays.serialize(family_3_2[1].arr))
        out_path = tmp_path / "theta.nda"
        code, _, _ = run(capsys, "corr", str(a_path), str(a_path), "--out", str(out_path))
        assert code == 0
        table = arrays.deserialize(out_path.read_text())
        assert np.array_equal(table.values, THETA_S1)

    def test_fast_flag_gives_same_table(self, capsys, tmp_path, family_3_2):
        a_path = tmp_path / "a.nda"
        a_path.write_text(arrays.serialize(family_3_2[1].arr))
        out1, out2 = tmp_path / "t1.nda", tmp_path / "t2.nda"
        run(capsys, "corr", str(a_path), str(a_path), "--out", str(out1))
        run(capsys, "corr", str(a_path), str(a_path), "--fast", "--out", str(out2))
        assert out1.read_text() == out2.read_text()

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "corr", str(tmp_path / "nope.nda"),
                           str(tmp_path / "nope.nda"), "--out", "-")
        assert code == 1

    def test_dims_mismatch_exits_1(self, capsys, tmp_path, family_3_2):
        a_path = tmp_path / "a.nda"
        b_path = tmp_path / "b.nda"
        a_path.write_text(arrays.serialize(family_3_2[1].arr))
        b_path.write_text("NDA1\n1\n3\nternary\n0 1 -1\n")
        code, _, err = run(capsys, "corr", str(a_path), str(b_path), "--out", "-")
        assert code == 1
        assert "mismatch" in err

    @pytest.mark.parametrize("fast", [(), ("--fast",)], ids=["naive", "fast"])
    def test_overflowing_int_table_exits_1(self, capsys, tmp_path, fast):
        # the true table is [2**124 + 9, 6 * 2**62]; int64 would wrap it
        path = tmp_path / "a.nda"
        path.write_text("NDA1\n1\n2\nint\n4611686018427387904 3\n")
        code, out, err = run(capsys, "corr", str(path), str(path), *fast, "--out", "-")
        assert code == 1 and out == ""
        assert err.startswith("legarray: error:")

    @pytest.mark.parametrize(
        "argv",
        [("corr", "{0}", "{0}", "--out", "-"), ("flatten", "{0}", "--out", "-"),
         ("render", "{0}", "--out", "{0}.pgm")],
        ids=["corr", "flatten", "render"],
    )
    def test_entry_outside_int64_exits_1(self, capsys, tmp_path, argv):
        path = tmp_path / "big.nda"
        path.write_text("NDA1\n1\n1\nint\n99999999999999999999\n")
        code, out, err = run(capsys, *(arg.format(path) for arg in argv))
        assert code == 1 and out == ""
        assert err == "legarray: error: entry 99999999999999999999 is outside the int64 range\n"


class TestVerify:
    def test_reference_instance_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "3", "--n", "2", "--poly", "2,2,1")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["p"] == 3 and report["n"] == 2
        assert report["poly"] == "2,2,1"
        assert len(report["theorem1"]) == 3
        assert len(report["theorem2"]) == 3
        assert report["m_zero_passed"] is True
        assert report["welch"]["relative_difference"]["fraction"] == "13/32"

    def test_default_poly_recorded(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "3", "--n", "2")
        assert code == 0
        assert json.loads(out)["poly"] == "2,1,1"

    def test_fast_matches_naive(self, capsys):
        # --fast selects nothing: both run the exact family kernel and must
        # print the same report byte for byte
        for args in (("--p", "3", "--n", "2"), ("--p", "5", "--n", "2"),
                     ("--p", "5", "--n", "2", "--full"), ("--p", "7", "--n", "2"),
                     ("--p", "7", "--n", "2", "--full"), ("--p", "3", "--n", "4"),
                     ("--p", "3", "--n", "4", "--full")):
            _, out1, _ = run(capsys, "verify", *args)
            _, out2, _ = run(capsys, "verify", *args, "--fast")
            assert out1 == out2, args

    @pytest.mark.parametrize("args", list(FULL_REPORT_SHA256), ids=["3-2-poly", "5-2-fast"])
    def test_full_reproduces_complete_report(self, capsys, args):
        code, out, _ = run(capsys, "verify", *args, "--full")
        assert code == 0
        report = json.loads(out)
        for r in bound_reports(report):
            assert r.pop("peak_shift_count") == len(r["peak_shifts"])
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == FULL_REPORT_SHA256[args]

    @pytest.mark.parametrize(
        "args",
        list(VERIFY_STDOUT_SHA256),
        ids=["7-2", "7-2-full", "3-3", "3-3-full", "3-4", "3-4-full", "11-2", "13-2", "13-2-full"],
    )
    def test_stdout_is_pinned(self, capsys, args):
        code, out, _ = run(capsys, "verify", *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256[args]

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
    def test_default_report_lists_first_shifts(self, capsys, p, n):
        field = ("--p", str(p), "--n", str(n), "--fast")
        _, out, _ = run(capsys, "verify", *field)
        _, full_out, _ = run(capsys, "verify", *field, "--full")
        report, full = json.loads(out), json.loads(full_out)
        for r in bound_reports(full):
            assert r["peak_shift_count"] == len(r["peak_shifts"])
            r["peak_shifts"] = r["peak_shifts"][:8]
        assert report == full
        # every report here has more attaining shifts than are listed
        assert all(r["peak_shift_count"] > 8 for r in bound_reports(report))

    def test_large_family_report_stays_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "13", "--n", "2", "--fast")
        assert code == 0
        assert len(out.encode()) < 100_000
        report = json.loads(out)
        assert report["passed"] is True
        assert all(len(r["peak_shifts"]) == 8 for r in bound_reports(report))

    def test_default_report_lists_no_pair_whole(self, capsys, monkeypatch):
        # each pair's first 8 shifts come from the first rows of its mask:
        # no gather the shifts are listed from spans a whole q x q mask. Each
        # d-report's mask records the size of every gather made from it, and
        # the pairs read it through `through`.
        q = 13**2
        sizes = []

        class Recorded(np.ndarray):
            def __getitem__(self, key):
                got = super().__getitem__(key)
                sizes.append(np.size(got))
                return got

        real = correlation._bound_report

        def recorded(*args):
            report = real(*args)
            report.peak_shifts._mask = report.peak_shifts._mask.view(Recorded)
            return report

        monkeypatch.setattr(correlation, "_bound_report", recorded)
        code, out, _ = run(capsys, "verify", "--p", "13", "--n", "2")
        assert code == 0
        assert len(sizes) >= 13 + 78 and max(sizes) <= q * q // 10
        digest = VERIFY_STDOUT_SHA256[("--p", "13", "--n", "2")]
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("to", ["file", "stdout"])
    def test_full_report_is_written_as_it_is_made(self, tmp_path, to):
        # the report goes out piece by piece: at no point does the process
        # hold as many bytes as it writes
        target = tmp_path / "full.json"
        out = target if to == "file" else "-"

        class Counted(io.TextIOBase):
            written = 0

            def write(self, text):
                Counted.written += len(text)
                return len(text)

        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(Counted()):
                code = main(["verify", "--p", "7", "--n", "2", "--full", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        written = target.stat().st_size if to == "file" else Counted.written
        assert written > 10**6 and peak < written

    def test_out_flag_writes_report_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--p", "3", "--n", "2", "--out", str(target))
        assert (code, out) == (0, "")  # the file instead of stdout, as the help says
        assert json.loads(target.read_text())["passed"] is True

    def test_failed_check_exits_2(self, capsys, monkeypatch):
        import legarray.cli as cli_mod

        real_verify = correlation.verify_family

        def fake_verify(family):
            auto, cross = real_verify(family)
            return [dataclasses.replace(r, passed=False) for r in auto], cross

        monkeypatch.setattr(cli_mod.correlation, "verify_family", fake_verify)
        for full in ((), ("--full",)):
            code, out, _ = run(capsys, "verify", "--p", "3", "--n", "2", *full)
            assert code == 2
            assert json.loads(out)["passed"] is False


def synthetic_report(rank=2, count=9, members=(0, 1), **fields):
    """A CorrelationReport on a table of extent 3 per axis, `rank` axes,
    whose attaining mask holds `count` shifts spread over its rows."""
    side = 3 ** (rank // 2)
    mask = np.zeros(side * side, dtype=bool)
    mask[np.linspace(0, side * side - 1, count).astype(int)] = True
    values = {"mode": "cross", "bound": 10, "peak_value": 1, "off_peak_max_abs": 10,
              "value_histogram": {-8: 24, 1: 48, 10: 9}, "passed": True,
              "values_match_derivation": True}
    values.update(fields)
    return correlation.CorrelationReport(
        members=members,
        peak_shifts=correlation.PeakShifts(mask.reshape(side, side), (3,) * rank),
        **values,
    )


def assert_renders_as_json_dumps(reports, shown):
    # the report list as the value of a key at depth 1, where `verify`
    # prints its two lists
    expected = {"reports": [r.to_json_dict(max_shifts=shown) for r in reports]}
    text = "".join(_list_pieces(_report_texts(reports, shown), "\n  "))
    assert '{\n  "reports": ' + text + "\n}" == json.dumps(expected, indent=2, sort_keys=True)


class TestJsonWriter:
    def test_equals_json_dumps(self):
        # random reports from small pools of field values, so that bodies
        # repeat, differ in one field or in several, and share layouts
        rng = np.random.default_rng(7)
        pools = {"mode": ["auto", "cross"], "bound": [8, 10], "peak_value": [1, 80],
                 "off_peak_max_abs": [8, 10], "passed": [True, False],
                 "values_match_derivation": [True, False],
                 "value_histogram": [{-8: 8, 1: 72}, {-8: 24, 1: 48, 10: 9}, {}]}
        for _ in range(40):
            reports = [
                synthetic_report(
                    rank=int(rng.choice([2, 4])),
                    count=int(rng.choice([0, 1, 5, 9])),
                    members=tuple(int(m) for m in rng.integers(0, 13, int(rng.integers(0, 4)))),
                    **{k: pool[int(rng.integers(len(pool)))] for k, pool in pools.items()},
                )
                for _ in range(int(rng.integers(0, 12)))
            ]
            shown = [None, 0, 3, 8][int(rng.integers(4))]
            assert_renders_as_json_dumps(reports, shown)

    @pytest.mark.parametrize("rank", [2, 4, 6])
    @pytest.mark.parametrize("shown", [0, 1, 8, None])
    def test_shift_matrices_of_every_listed_length(self, rank, shown):
        # 0, 1 and 8 listed shifts, or all of them, of tables with 2, 4 and 6 axes
        counts = [0, 1, 8, 9] if rank == 2 else [0, 1, 8, 30]
        reports = [synthetic_report(rank, count, members=(m, m + 1))
                   for m, count in enumerate(counts)]
        assert_renders_as_json_dumps(reports + reports[::-1], shown)

    def test_bodies_differing_in_one_field(self):
        # each variant differs from the base in one printed field only, so
        # sharing its body would print the base's value for it
        base = synthetic_report()
        variants = [
            synthetic_report(mode="auto"),
            synthetic_report(bound=11),
            synthetic_report(peak_value=2),
            synthetic_report(off_peak_max_abs=9),
            synthetic_report(count=8),
            synthetic_report(value_histogram={-8: 24, 1: 48, 10: 8}),
            synthetic_report(value_histogram={-8: 24, 2: 48, 10: 9}),
            synthetic_report(passed=False),
            synthetic_report(values_match_derivation=False),
        ]
        reports = []
        for i, variant in enumerate(variants):
            reports += [variant, base, dataclasses.replace(base, members=(i,) * (i % 4))]
        for shown in (8, None):
            assert_renders_as_json_dumps(reports, shown)

    def test_body_key_holds_every_printed_field(self):
        # a report that differs from the base in any one field but `members`
        # and `peak_shifts`, or in its shift count, has a key of its own;
        # a field added to the report must be given a variant here
        base = synthetic_report()
        variants = {bool: lambda v: not v, int: lambda v: v + 1, str: lambda v: v + "x",
                    dict: lambda v: {**v, 99: 1}}
        for field in dataclasses.fields(correlation.CorrelationReport):
            if field.name in ("members", "peak_shifts"):
                continue
            value = getattr(base, field.name)
            other = dataclasses.replace(base, **{field.name: variants[type(value)](value)})
            assert other.body_key() != base.body_key(), field.name
        assert synthetic_report(count=8).body_key() != base.body_key()
        assert dataclasses.replace(base, members=(5,)).body_key() == base.body_key()

    def test_equal_bodies_with_shifts_of_other_ranks(self):
        # one body, and shift rows 2, 4 and 6 wide
        reports = [synthetic_report(rank, count=1) for rank in (2, 4, 6, 2)]
        assert_renders_as_json_dumps(reports, 8)

    @pytest.mark.parametrize("mode", ['x\0y', "\0\0", "%s %d %%", 'q"\\\n\u00e9'])
    def test_strings_print_as_json_dumps_prints_them(self, mode):
        assert_renders_as_json_dumps([synthetic_report(mode=mode), synthetic_report()], 8)

    @pytest.mark.parametrize("where", ["report", "dict"])
    def test_refuses_a_value_printed_as_the_placeholder(self, where, capsys, monkeypatch):
        # "\0" prints as the placeholder: the piece count shows it, in a
        # report's body or in the dict `verify` dumps around the reports
        if where == "report":
            with pytest.raises(ValueError, match="placeholder"):
                list(_report_texts([synthetic_report(mode="\0")], 8))
        else:
            monkeypatch.setattr(Poly, "format", lambda self: "\0")
            code, out, err = run(capsys, "verify", "--p", "3", "--n", "2", "--poly", "2,2,1")
            assert (code, out) == (1, "") and "placeholder" in err

    def test_extract_report_with_infinite_snr(self, capsys):
        result = watermark.ExtractionResult(
            payload=watermark.Payload(m=2, shifts=(1, 0, 3, 4)),
            score=576,
            snr=math.inf,
            confident=True,
        )
        report = result.to_json_dict()
        _print_json(report)
        out = capsys.readouterr().out
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert '"snr": Infinity' in out


class TestWelch:
    def test_prints_exact_ratios(self, capsys):
        code, out, _ = run(capsys, "welch", "--p", "3", "--n", "2")
        assert code == 0
        assert "10/64" in out
        assert "1/9" in out
        assert "13/32" in out


class TestFlattenRender:
    def test_flatten_reference(self, capsys, tmp_path, family_3_2):
        src = tmp_path / "s1.nda"
        src.write_text(arrays.serialize(family_3_2[1].arr))
        dst = tmp_path / "flat.nda"
        code, _, _ = run(capsys, "flatten", str(src), "--out", str(dst))
        assert code == 0
        assert np.array_equal(arrays.deserialize(dst.read_text()).values, FLATTENED_S1)

    def test_flatten_keeps_the_kind_of_a_correlation_table(self, capsys, tmp_path, family_3_2):
        # a `corr` table is an int array with entries past {-1, 0, 1}: it
        # flattens to kind int, and unflatten gives the table back
        for m in (1, 2):
            (tmp_path / f"s{m}.nda").write_text(arrays.serialize(family_3_2[m].arr))
        theta_path, flat_path = tmp_path / "theta.nda", tmp_path / "flat.nda"
        assert run(capsys, "corr", str(tmp_path / "s1.nda"), str(tmp_path / "s2.nda"),
                   "--out", str(theta_path))[0] == 0
        code, _, err = run(capsys, "flatten", str(theta_path), "--out", str(flat_path))
        assert (code, err) == (0, "")
        theta = arrays.deserialize(theta_path.read_text())
        text = flat_path.read_text()
        assert text.split("\n")[1:4] == ["2", "9 9", "int"]
        assert int(np.abs(theta.values).max()) == 10
        assert watermark.unflatten(arrays.deserialize(text), theta.dims) == theta

    def test_render_flattens_and_maps(self, capsys, tmp_path, family_3_2):
        src = tmp_path / "s1.nda"
        src.write_text(arrays.serialize(family_3_2[1].arr))
        dst = tmp_path / "s1.pgm"
        code, _, _ = run(capsys, "render", str(src), "--out", str(dst))
        assert code == 0
        img = images.read_pgm(dst.read_bytes())
        assert (img.width, img.height) == (9, 9)
        expected = np.full((9, 9), 128, dtype=np.uint8)
        expected[FLATTENED_S1 == 1] = 0
        expected[FLATTENED_S1 == -1] = 255
        assert np.array_equal(img.pixels, expected)

    def test_render_scale(self, capsys, tmp_path, family_3_2):
        src = tmp_path / "s1.nda"
        src.write_text(arrays.serialize(family_3_2[1].arr))
        dst = tmp_path / "s1.pgm"
        run(capsys, "render", str(src), "--out", str(dst), "--scale", "4")
        img = images.read_pgm(dst.read_bytes())
        assert (img.width, img.height) == (36, 36)


class TestWatermarkCommands:
    def test_embed_extract_round_trip(self, capsys, tmp_path):
        carrier = tmp_path / "in.pgm"
        carrier.write_bytes(
            images.write_pgm(images.GrayImage(np.full((27, 27), 128, dtype=np.uint8)))
        )
        marked = tmp_path / "marked.pgm"
        code, _, _ = run(
            capsys, "embed", "--image", str(carrier), "--p", "3", "--n", "2",
            "--poly", "2,2,1", "--m", "1", "--shifts", "1,2,0,1",
            "--strength", "3", "--out", str(marked),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "extract", "--image", str(marked), "--p", "3", "--n", "2",
            "--poly", "2,2,1",
        )
        assert code == 0
        result = json.loads(out)
        assert result["m"] == 1
        assert result["shifts"] == [1, 2, 0, 1]
        assert result["confident"] is True

    def test_nan_threshold_exits_1(self, capsys, tmp_path):
        carrier = tmp_path / "in.pgm"
        carrier.write_bytes(
            images.write_pgm(images.GrayImage(np.full((27, 27), 128, dtype=np.uint8)))
        )
        code, out, err = run(
            capsys, "extract", "--image", str(carrier), "--p", "3", "--n", "2",
            "--snr-threshold", "nan",
        )
        assert (code, out) == (1, "")
        assert "snr threshold must be a number" in err

    def test_p2_sample_outside_int64_exits_1(self, capsys, tmp_path):
        carrier = tmp_path / "big.pgm"
        carrier.write_bytes(b"P2\n2 2\n255\n1 2 3 99999999999999999999999\n")
        code, out, err = run(capsys, "extract", "--image", str(carrier), "--p", "3", "--n", "1")
        assert (code, out, err) == (1, "", "legarray: error: P2 sample out of range\n")

    def test_verify_and_extract_build_no_member(self, capsys, tmp_path, monkeypatch):
        carrier = tmp_path / "in.pgm"
        noise = np.random.default_rng(5).integers(0, 256, size=(130, 130), dtype=np.uint8)
        carrier.write_bytes(images.write_pgm(images.GrayImage(noise)))
        marked = tmp_path / "marked.pgm"
        code, _, _ = run(
            capsys, "embed", "--image", str(carrier), "--p", "5", "--n", "2",
            "--m", "3", "--shifts", "1,4,0,2", "--out", str(marked),
        )
        assert code == 0
        commands = [
            ("verify", "--p", "5", "--n", "2"),
            ("extract", "--image", str(marked), "--p", "5", "--n", "2"),
        ]
        usual = [run(capsys, *argv) for argv in commands]

        def refuse(*args):
            raise AssertionError("a family member was built")

        monkeypatch.setattr(family, "build_member", refuse)
        monkeypatch.setattr(family, "shear", refuse)
        for argv, expected in zip(commands, usual):
            assert run(capsys, *argv) == expected
            assert expected[0] == 0
        result = json.loads(usual[1][1])
        assert (result["m"], result["shifts"], result["confident"]) == (3, [1, 4, 0, 2], True)

    @pytest.mark.parametrize("strength", [32767, 40000])
    def test_embed_saturates_large_strength(self, capsys, tmp_path, family_3_2, strength):
        # clamp(250 + strength * W) is 255, 250 or 0 for W = +1, 0, -1; int16
        # arithmetic once wrapped the first to 0 and overflowed on the second
        carrier = tmp_path / "in.pgm"
        carrier.write_bytes(
            images.write_pgm(images.GrayImage(np.full((27, 27), 250, dtype=np.uint8)))
        )
        marked = tmp_path / "marked.pgm"
        code, _, err = run(
            capsys, "embed", "--image", str(carrier), "--p", "3", "--n", "2",
            "--poly", "2,2,1", "--m", "1", "--shifts", "1,2,0,1",
            "--strength", str(strength), "--out", str(marked),
        )
        assert (code, err) == (0, "")
        w = watermark.flatten(family_3_2[1].arr.cyclic_shift((1, 2, 0, 1))).values
        expected = np.select([w > 0, w < 0], [255, 0], 250)
        got = images.read_pgm(marked.read_bytes()).pixels
        assert np.array_equal(got, np.tile(expected, (3, 3)))

    def test_embed_validates_shifts(self, capsys, tmp_path):
        carrier = tmp_path / "in.pgm"
        carrier.write_bytes(
            images.write_pgm(images.GrayImage(np.full((27, 27), 128, dtype=np.uint8)))
        )
        code, _, err = run(
            capsys, "embed", "--image", str(carrier), "--p", "3", "--n", "2",
            "--m", "1", "--shifts", "1,2", "--out", str(tmp_path / "x.pgm"),
        )
        assert code == 1


class TestUsage:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_unknown_flag_exits_1(self, capsys):
        assert run(capsys, "welch", "--p", "3", "--n", "2", "--bogus")[0] == 1

    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_bad_poly_string_exits_1(self, capsys):
        code, _, err = run(capsys, "gen-legendre", "--p", "3", "--n", "2", "--poly", "a,b")
        assert code == 1

    @pytest.mark.parametrize("command", ["gen-legendre", "extract"])
    def test_empty_poly_string_exits_1(self, capsys, tmp_path, command):
        # an empty --poly is a bad polynomial, not the default one
        carrier = tmp_path / "in.pgm"
        carrier.write_bytes(images.write_pgm(images.GrayImage(np.full((27, 27), 128, np.uint8))))
        image = ["--image", str(carrier)] if command == "extract" else []
        code, out, err = run(capsys, command, *image, "--p", "3", "--n", "2", "--poly", "")
        assert (code, out, err) == (1, "", "legarray: error: bad polynomial string ''\n")

    @pytest.mark.parametrize(
        "poly,message",
        [
            ("1,0,1", "x^2 + 1 is not primitive of degree 2 over GF(3)"),
            ("0,1,1", "x^2 + x is not primitive of degree 2 over GF(3)"),
            ("1,1,2", "expected a monic polynomial of degree 2, got 2x^2 + x + 1"),
            ("1,1", "expected a monic polynomial of degree 2, got x + 1"),
            ("1,1,0,1", "expected a monic polynomial of degree 2, got x^3 + x + 1"),
        ],
    )
    def test_bad_supplied_poly_exits_1(self, capsys, poly, message):
        code, out, err = run(capsys, "gen-legendre", "--p", "3", "--n", "2", "--poly", poly)
        assert (code, out) == (1, "")
        assert message in err
        assert "reciprocal" not in err

    @pytest.mark.parametrize("command", ["gen-legendre", "verify"])
    @pytest.mark.parametrize(
        "poly,message",
        [
            ("2,1", "x + 2 is not primitive of degree 1 over GF(3)"),
            ("0,1", "x is not primitive of degree 1 over GF(3)"),
            ("1,2", "expected a monic polynomial of degree 1, got 2x + 1"),
            ("1,1,0,1", "expected a monic polynomial of degree 1, got x^3 + x + 1"),
        ],
    )
    def test_bad_supplied_poly_at_n_1_exits_1(self, capsys, command, poly, message):
        code, out, err = run(capsys, command, "--p", "3", "--n", "1", "--poly", poly)
        assert (code, out) == (1, "")
        assert message in err

    def test_primitive_poly_at_n_1_changes_nothing(self, capsys):
        # every primitive root gives the same quadratic-residue sequence
        plain = run(capsys, "gen-legendre", "--p", "3", "--n", "1")
        assert plain[0] == 0
        assert run(capsys, "gen-legendre", "--p", "3", "--n", "1", "--poly", "1,1") == plain
        code, out, _ = run(capsys, "verify", "--p", "3", "--n", "1", "--poly", "1,1")
        assert code == 0 and json.loads(out)["poly"] == "1,1"


class TestUsageText:
    """Help and usage errors are byte-exact, however many times main runs."""

    @pytest.fixture(autouse=True)
    def _fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv", list(CLI_USAGE))
    def test_output_is_pinned(self, capsys, argv):
        assert run(capsys, *argv) == CLI_USAGE[argv]

    def test_repeated_calls_in_one_process(self, capsys):
        for _ in range(2):
            for argv in CLI_USAGE:
                assert run(capsys, *argv) == CLI_USAGE[argv]
                assert run(capsys, "welch", "--p", "3", "--n", "2")[0] == 0

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()
