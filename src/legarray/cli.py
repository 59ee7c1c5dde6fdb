"""Command-line interface: generation, verification, correlation, rendering,
and watermark embed/extract. All outputs are deterministic for identical
inputs. Exit codes: 0 success, 1 validation error, 2 verification failure."""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
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
    """Resolved field parameters and the rank-n Legendre array built from them."""
    poly = Poly.parse(args.poly, args.p) if args.poly else None
    params = legendre.LegendreParams(p=args.p, n=args.n, a=a, poly=poly).resolve()
    return params, legendre.legendre_array(params)


def _write_text(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_array(path: str):
    return arrays.deserialize(Path(path).read_text(encoding="utf-8"))


# json.dumps's own str escaping: ASCII out, \uXXXX for the rest, lone
# surrogates included
_quote = json.encoder.encode_basestring_ascii


def _json_scalar(value) -> str | None:
    # json.encoder's tests, in its order; None for a container or the unknown
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    return None


def _json_int_rows(items, newline: str) -> str | None:
    """The items of a list of exact ints, or of equal-length lists or tuples
    of them, laid out as json.dumps lays them out after `newline`, in one
    join or one %-format; None for any other list."""
    kinds = set(map(type, items))
    if kinds == {int}:
        return ("," + newline).join(map(int.__repr__, items))
    if not kinds <= {list, tuple} or len(widths := set(map(len, items))) != 1:
        return None
    cells = tuple(itertools.chain.from_iterable(items))
    if set(map(type, cells)) != {int}:  # bools print as true/false, and no row is empty
        return None
    inner = newline + "  "
    row = "[" + inner + ("," + inner).join(("%d",) * widths.pop()) + newline + "]"
    return ("," + newline).join((row,) * len(items)) % cells


def _json_parts(value, newline: str, parts: list[str]) -> None:
    # appends the text of value, whose own line begins after `newline`
    text = _json_scalar(value)
    if text is not None:
        parts.append(text)
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        rows = _json_int_rows(value, inner)
        if rows is not None:
            parts += ("[", inner, rows, newline, "]")
            return
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _json_parts(item, inner, parts)
            separator = "," + inner
        parts += (newline, "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            text = key if isinstance(key, str) else _json_scalar(key)
            if text is None:
                raise TypeError(
                    f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
                )
            parts += (separator, _quote(text), ": ")
            _json_parts(item, inner, parts)
            separator = "," + inner
        parts += (newline, "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, refusing
    what it refuses with TypeError. A list of exact ints, or of equal-length
    lists of them (a report's shift matrix), is laid out at C speed in one
    join or one %-format; everything else follows json.encoder's rules."""
    parts: list[str] = []
    _json_parts(obj, "\n", parts)
    return "".join(parts)


def _print_json(obj, out: str | None = None):
    """Write json.dumps(obj, indent=2, sort_keys=True) and a newline, as
    `_json_text` builds it, to stdout or to the file `out`."""
    _write_text(_json_text(obj) + "\n", out)


def _cmd_gen_legendre(args) -> int:
    _, arr = _legendre_from(args, a=args.a)
    _write_text(arrays.serialize(arr), args.out)
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
    _write_text(arrays.serialize(fn(a, b)), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    params, base = _legendre_from(args)
    auto, cross = correlation.verify_family(build_family(base, params))
    metrics = correlation.welch_metrics(params.p, params.n)
    passed = all(r.passed for r in auto) and all(r.passed for r in cross)
    shown = None if args.full else VERIFY_SHIFTS_SHOWN
    report = {
        "p": params.p,
        "n": params.n,
        "poly": params.poly.format() if params.poly else None,
        "theorem1": [r.to_json_dict(max_shifts=shown) for r in auto],
        "theorem2": [r.to_json_dict(max_shifts=shown) for r in cross],
        "m_zero_passed": auto[0].passed,
        "welch": metrics.to_json_dict(),
        "passed": passed,
    }
    _print_json(report, args.out)
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
    _write_text(arrays.serialize(watermark.flatten(arr)), args.out)
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
