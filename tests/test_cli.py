import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest

from legarray import arrays, correlation, family, images, watermark
from legarray.cli import build_parser, main

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
        ids=["7-2", "7-2-full", "3-3", "3-3-full", "3-4", "3-4-full", "11-2", "13-2"],
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

    def test_out_flag_writes_report_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--p", "3", "--n", "2", "--out", str(target))
        assert code == 0
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
