"""Command-line interface: generation, verification, correlation, rendering,
and watermark embed/extract. All outputs are deterministic for identical
inputs. Exit codes: 0 success, 1 validation error, 2 verification failure."""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from collections.abc import Iterable
from pathlib import Path

from . import arrays, correlation, images, legendre, watermark
from .family import build_family, build_member
from .fields import Poly

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2

# attaining shifts listed per bound report unless --full is given
VERIFY_SHIFTS_SHOWN = 8


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for verification
    # failures, so remap parse errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_field_args(sub, with_a=False):
    sub.add_argument("--p", type=int, required=True, help="odd prime modulus")
    sub.add_argument("--n", type=int, default=1, help="array dimension (default 1)")
    if with_a:
        sub.add_argument(
            "--a", type=int, default=0, choices=(-1, 0, 1), help="origin value (default 0)"
        )
    sub.add_argument(
        "--poly",
        type=str,
        default=None,
        help="primitive polynomial, comma-separated coefficients constant term "
        "first (e.g. 2,4,1 = x^2+4x+2); defaults to the smallest one",
    )


def _legendre_from(args, a=0) -> tuple[legendre.LegendreParams, arrays.TernaryArray]:
    """Field parameters and the rank-n Legendre array built from them."""
    poly = None if args.poly is None else Poly.parse(args.poly, args.p)
    params = legendre.LegendreParams(p=args.p, n=args.n, a=a, poly=poly)
    return params, legendre.legendre_array(params)


def _write_text(pieces: Iterable[str], out: str | None):
    """Write the pieces of a text, in order, to stdout or to the file `out`."""
    if out is None or out == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.writelines(pieces)


def _load_array(path: str):
    return arrays.deserialize(Path(path).read_text(encoding="utf-8"))


# stands in for each part laid out after json.dumps (a list of reports, or
# the members and shifts of a report's %-format), which prints it as
# _HOLE_TEXT; a string prints as that only by being "\0"
_HOLE = "\0"
_HOLE_TEXT = json.dumps(_HOLE)


def _pieces(text: str, holes: int) -> list[str]:
    """`text` split at each printed placeholder, checked to hold `holes`:
    a value that printed as one would add a piece."""
    pieces = text.split(_HOLE_TEXT)
    if len(pieces) != holes + 1:
        raise ValueError(f"a report value prints as the placeholder {_HOLE_TEXT}")
    return pieces


def _list_pieces(items: Iterable[str], newline: str):
    # json.dumps's indent=2 layout of a list of these item texts, piece by
    # piece, the list opening on a line that begins after `newline`
    opening, inner = "[", newline + "  "
    for item in items:
        yield opening + inner
        yield item
        opening = ","
    yield "[]" if opening == "[" else newline + "]"


def _report_texts(reports: list[correlation.CorrelationReport], shown: int | None):
    """Each report's to_json_dict(max_shifts=shown) as json.dumps(indent=2,
    sort_keys=True) prints it as an item of a list at depth 1, one text per
    report, made as it is read. Reports of one `body_key` print alike but
    for `members` and `peak_shifts`: each body, member count and shift rank
    is dumped once, with a placeholder for `members` and one for
    `peak_shifts`, and made into a %-format of the members and the cells of
    the listed shifts, `peak_shifts.tolist(shown)`."""
    formats: dict[tuple, str] = {}
    for r in reports:
        rank = len(r.peak_shifts.shape)
        layout = (r.body_key(), len(r.members), rank)
        fmt = formats.get(layout)
        if fmt is None:
            count = len(r.peak_shifts)
            body = r.to_json_dict(max_shifts=0)
            body["members"] = body["peak_shifts"] = _HOLE
            text = json.dumps(body, indent=2, sort_keys=True)
            head, middle, tail = _pieces(text.replace("%", "%%").replace("\n", "\n    "), 2)
            rows = count if shown is None else min(shown, count)
            row = "".join(_list_pieces(["%d"] * rank, "\n        "))
            fmt = formats[layout] = (
                head
                + "".join(_list_pieces(["%d"] * len(r.members), "\n      "))
                + middle
                + "".join(_list_pieces([row] * rows, "\n      "))
                + tail
            )
        yield fmt % (*r.members, *itertools.chain.from_iterable(r.peak_shifts.tolist(shown)))


def _print_json(obj, out: str | None = None):
    """Write json.dumps(obj, indent=2, sort_keys=True) and a newline to
    stdout or to the file `out`."""
    _write_text([json.dumps(obj, indent=2, sort_keys=True), "\n"], out)


def _cmd_gen_legendre(args) -> int:
    _, arr = _legendre_from(args, a=args.a)
    _write_text([arrays.serialize(arr)], args.out)
    return EXIT_OK


def _cmd_gen_family(args) -> int:
    params, base = _legendre_from(args)
    out_dir = Path(args.out)
    indices = range(params.p) if args.m is None else [args.m]
    for m in indices:
        member = build_member(base, m, params)
        # made only once a member is built, so a refused family leaves no directory
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"S_{m}.nda").write_text(arrays.serialize(member.arr), encoding="utf-8")
    return EXIT_OK


def _cmd_corr(args) -> int:
    a = _load_array(args.a)
    b = _load_array(args.b)
    fn = correlation._METHODS["fast" if args.fast else "naive"]
    _write_text([arrays.serialize(fn(a, b))], args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    params, base = _legendre_from(args)
    auto, cross = correlation.verify_family(build_family(base, params))
    metrics = correlation.welch_metrics(params.p, params.n)
    passed = all(r.passed for r in auto) and all(r.passed for r in cross)
    report = {
        "p": params.p,
        "n": params.n,
        "poly": params.poly.format() if params.poly else None,
        "theorem1": _HOLE,
        "theorem2": _HOLE,
        "m_zero_passed": auto[0].passed,
        "welch": metrics.to_json_dict(),
        "passed": passed,
    }
    shown = None if args.full else VERIFY_SHIFTS_SHOWN
    # each bound report list goes in place of its placeholder, written as
    # its reports are made
    head, middle, tail = _pieces(json.dumps(report, indent=2, sort_keys=True), 2)
    _write_text(itertools.chain(
        [head], _list_pieces(_report_texts(auto, shown), "\n  "),
        [middle], _list_pieces(_report_texts(cross, shown), "\n  "),
        [tail, "\n"],
    ), args.out)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _cmd_welch(args) -> int:
    m = correlation.welch_metrics(args.p, args.n)
    q = args.p**args.n
    print(f"nonzero entries per member: {m.nonzero_count}")
    print(
        f"bound-to-peak ratio: {q + 1}/{m.nonzero_count}"
        f" = {m.bound_to_peak_ratio} ({float(m.bound_to_peak_ratio):.6g})"
    )
    print(f"benchmark ratio: {q}/{q * q} = {m.welch_ratio} ({float(m.welch_ratio):.6g})")
    print(
        f"relative difference: {m.relative_difference}"
        f" ({float(m.relative_difference):.6g})"
    )
    return EXIT_OK


def _cmd_flatten(args) -> int:
    arr = _load_array(args.input)
    _write_text([arrays.serialize(watermark.flatten(arr))], args.out)
    return EXIT_OK


def _cmd_render(args) -> int:
    arr = _load_array(args.input)
    if arr.rank > 2:
        arr = watermark.flatten(arr)
    img = arrays.render(arr, scale=args.scale)
    Path(args.out).write_bytes(images.write_pgm(img))
    return EXIT_OK


def _parse_shifts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad shift list {text!r}") from None


def _cmd_embed(args) -> int:
    params, base = _legendre_from(args)
    member = build_member(base, args.m, params)
    payload = watermark.Payload(m=args.m, shifts=_parse_shifts(args.shifts))
    img = images.read_pgm(Path(args.image).read_bytes())
    marked = watermark.embed(img, member, payload, watermark.EmbedConfig(args.strength))
    Path(args.out).write_bytes(images.write_pgm(marked))
    return EXIT_OK


def _cmd_extract(args) -> int:
    params, base = _legendre_from(args)
    family = build_family(base, params)
    img = images.read_pgm(Path(args.image).read_bytes())
    result = watermark.extract(img, family, snr_threshold=args.snr_threshold)
    _print_json(result.to_json_dict())
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="legarray", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    s = sub.add_parser("gen-legendre", help="generate a Legendre sequence/array as NDA1")
    _add_field_args(s, with_a=True)
    s.add_argument("--out", default=None, help="output path (default stdout)")
    s.set_defaults(fn=_cmd_gen_legendre)

    s = sub.add_parser("gen-family", help="generate family members as NDA1 files")
    _add_field_args(s)
    s.add_argument("--m", type=int, default=None, help="single member index (default: all)")
    s.add_argument("--out", required=True, help="output directory")
    s.set_defaults(fn=_cmd_gen_family)

    s = sub.add_parser("corr", help="full periodic correlation table of two arrays")
    s.add_argument("a", help="first NDA1 file")
    s.add_argument("b", help="second NDA1 file")
    s.add_argument("--fast", action="store_true", help="use the FFT path")
    s.add_argument("--out", required=True, help="output NDA1 path ('-' for stdout)")
    s.set_defaults(fn=_cmd_corr)

    s = sub.add_parser("verify", help="check correlation bounds for a whole family")
    _add_field_args(s)
    s.add_argument(
        "--fast",
        action="store_true",
        help="selects nothing; verify always runs the exact family kernel",
    )
    s.add_argument(
        "--full",
        action="store_true",
        help="list every shift attaining max |theta| in each report "
        f"(default: the first {VERIFY_SHIFTS_SHOWN} and their count)",
    )
    s.add_argument("--out", default=None, help="write the JSON report to this file instead of stdout")
    s.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("welch", help="exact bound-to-peak ratio versus the benchmark")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(fn=_cmd_welch)

    s = sub.add_parser("flatten", help="fold an even-rank NDA1 array to rank 2")
    s.add_argument("input", help="input NDA1 file")
    s.add_argument("--out", required=True, help="output NDA1 path ('-' for stdout)")
    s.set_defaults(fn=_cmd_flatten)

    s = sub.add_parser("render", help="render a (flattened) array to PGM")
    s.add_argument("input", help="input NDA1 file")
    s.add_argument("--out", required=True, help="output PGM path")
    s.add_argument("--scale", type=int, default=1, help="integer upscaling factor")
    s.set_defaults(fn=_cmd_render)

    s = sub.add_parser("embed", help="embed a watermark payload into a PGM image")
    s.add_argument("--image", required=True, help="carrier PGM (P5 or P2)")
    _add_field_args(s)
    s.add_argument("--m", type=int, required=True, help="family member index")
    s.add_argument("--shifts", required=True, help="comma-separated cyclic shifts")
    s.add_argument("--strength", type=int, default=3, help="additive amplitude (default 3)")
    s.add_argument("--out", required=True, help="marked PGM path")
    s.set_defaults(fn=_cmd_embed)

    s = sub.add_parser("extract", help="recover a watermark payload from a PGM image")
    s.add_argument("--image", required=True, help="marked PGM (P5 or P2)")
    _add_field_args(s)
    s.add_argument(
        "--snr-threshold",
        type=float,
        default=watermark.DEFAULT_SNR_THRESHOLD,
        help="confidence threshold on peak/off-peak RMS "
        f"(default {watermark.DEFAULT_SNR_THRESHOLD})",
    )
    s.set_defaults(fn=_cmd_extract)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    # Building all nine subparsers costs about 2 ms; parsing leaves the
    # parser unchanged, so one per process serves every main call.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except (ValueError, OSError, correlation.PrecisionError) as e:
        print(f"legarray: error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
