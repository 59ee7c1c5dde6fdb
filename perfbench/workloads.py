"""The benchmark's workloads: seeded inputs, the CLI calls of one pass, and
the checks on what each call wrote.

Every op is one call of ``legarray.cli.main``. After the timed passes each
op's check reads the op's outputs and returns a status:

* ``OK``: the output is right;
* ``FLAGGED``: the output breaks no property the program claims today, but
  is a known defect: an extract on an off-grid crop or an unmarked carrier
  that is confident although wrong. It feeds fail_ratio and the
  watermark.extract.false_confident count, not the result's ``failed``;
* ``WRONG``: the op failed and the run is not correct: a property the
  program guarantees was broken (bad exit code, failed bound check, output
  bytes differing from the recorded digests, a marked carrier whose payload
  is not recovered confidently).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from legarray import watermark
from legarray.family import build_member
from legarray.fields import Poly, is_primitive
from legarray.images import GrayImage
from legarray.legendre import LegendreParams, legendre_array

OK, FLAGGED, WRONG = "ok", "flagged", "wrong"

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# (p, n) parameters of each workload. The tiny set runs in seconds and is
# used by selftest.py; the full set is what BENCHMARK.json describes. Every
# op of the full set takes under 0.2 s on an idle 2-vCPU host, so each is
# repeated often enough in a run for wall_s (fastest run of each op) to be
# steady; ops of 0.5 s and more spread twice as wide between runs on a
# shared host. That leaves out the ladder rungs (11,2) and (13,2) (2-10 s
# each), verify-exact at (7,2) and (3,4) (0.6 s and 5 s) and gen-legendre
# at (17,4), (43,3), (7,5) and (13,4) (0.5-2 s each).
FULL = {
    "verify-ladder": [(3, 2), (5, 2), (7, 2), (3, 3), (3, 4)],
    "verify-exact": [(3, 2), (5, 2), (3, 3)],
    "watermark": [(3, 2), (5, 2), (7, 2), (13, 2), (3, 4)],
    "gen-legendre": [(7, 4), (3, 7), (23, 3), (5, 5)],
    "gen-family": [(13, 2), (3, 4)],
}
TINY = {
    "verify-ladder": [(3, 2), (5, 2)],
    "verify-exact": [(3, 2), (3, 3)],
    "watermark": [(3, 2), (5, 2)],
    "gen-legendre": [(5, 2), (3, 3)],
    "gen-family": [(3, 2)],
}
# Carrier sides in pixels, 243^2 to 1600^2. Every carrier is used with every
# parameter set, so one watermark pass has 4 * 5 * 5 = 100 ops and the op
# latency p90 has at least 10 samples beyond it. A 2401^2 carrier would take
# over half of a pass and leave too few passes in a run for a steady wall_s.
CARRIER_SIDES = [243, 400, 729, 1024, 1600]
TINY_CARRIER_SIDES = [100, 243]
STRENGTH = 3
ORIGIN_VALUES = (-1, 0, 1)

Check = Callable[[int, str], "tuple[str, dict[str, int]]"]


@dataclass
class Op:
    """One CLI call, the files it writes and the check of its result."""

    label: str
    argv: list[str]
    outputs: list[Path]
    check: Check
    digests: dict[str, Path] = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    warmup: Op


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def _unchecked(rc: int, stdout: str):
    return (OK if rc == 0 else WRONG), {}


def _primitive_polys(p: int, n: int) -> list[Poly]:
    """Every monic primitive polynomial of degree n over GF(p), in order."""
    cands = (Poly(tail + (1,), p) for tail in itertools.product(range(p), repeat=n))
    return [c for c in cands if is_primitive(c, n)]


def _pick(rng: np.random.Generator, items):
    return items[int(rng.integers(len(items)))]


def _field_args(p: int, n: int, poly: Poly | None = None) -> list[str]:
    args = ["--p", str(p), "--n", str(n)]
    return args + ["--poly", poly.format()] if poly is not None else args


# --- verify -------------------------------------------------------------------


def _verify_op(workdir: Path, p: int, n: int, poly: Poly, fast: bool) -> Op:
    out = workdir / f"verify_{p}_{n}.json"
    argv = ["verify", *_field_args(p, n, poly), "--out", str(out)]
    if fast:
        argv.append("--fast")

    def check(rc, stdout):
        if rc != 0:
            return WRONG, {}
        report = json.loads(out.read_text(encoding="utf-8"))
        good = (
            report.get("passed") is True
            and report.get("p") == p
            and report.get("n") == n
            and len(report.get("theorem1", ())) == p
            and len(report.get("theorem2", ())) == p * (p - 1) // 2
        )
        return (OK if good else WRONG), {}

    return Op(f"verify {p},{n} poly={poly.format()}", argv, [out], check)


def _verify_workload(rng, workdir, ladder, fast) -> Workload:
    # The seed picks each rung's polynomial; the rungs keep the ladder's
    # order, which fixes the allocation pattern and so the peak RSS.
    ops = [_verify_op(workdir, p, n, _pick(rng, _primitive_polys(p, n)), fast) for p, n in ladder]
    warmup = _verify_op(workdir / "warmup", 3, 2, _pick(rng, _primitive_polys(3, 2)), fast)
    return Workload(ops, warmup)


# --- generate -----------------------------------------------------------------


def _digest_check(op_digests: dict[str, Path], expected: dict[str, str]) -> Check:
    def check(rc, stdout):
        if rc != 0:
            return WRONG, {}
        good = all(
            path.is_file() and expected.get(key) == sha256_file(path)
            for key, path in op_digests.items()
        )
        return (OK if good else WRONG), {}

    return check


def _gen_legendre_op(workdir, expected, p, n, a) -> Op:
    out = workdir / f"legendre_{p}_{n}.nda"
    argv = ["gen-legendre", *_field_args(p, n), f"--a={a}", "--out", str(out)]
    digests = {f"gen-legendre {p},{n} a={a}": out}
    return Op(f"gen-legendre {p},{n} a={a}", argv, [out], _digest_check(digests, expected), digests)


def _gen_family_op(workdir, expected, p, n) -> Op:
    out_dir = workdir / f"family_{p}_{n}"
    argv = ["gen-family", *_field_args(p, n), "--out", str(out_dir)]
    digests = {f"gen-family {p},{n} S_{m}.nda": out_dir / f"S_{m}.nda" for m in range(p)}
    paths = list(digests.values())
    return Op(f"gen-family {p},{n}", argv, paths, _digest_check(digests, expected), digests)


def _corr_op(workdir, expected, p, n, i, j) -> Op:
    fam = workdir / f"family_{p}_{n}"
    out = workdir / f"corr_{p}_{n}.nda"
    argv = ["corr", str(fam / f"S_{i}.nda"), str(fam / f"S_{j}.nda"), "--fast", "--out", str(out)]
    digests = {f"corr --fast {p},{n} S_{i} S_{j}": out}
    return Op(f"corr {p},{n} S_{i} S_{j}", argv, [out], _digest_check(digests, expected), digests)


def _generate_ops(rng, workdir, config, expected) -> list[Op]:
    """gen-legendre without --poly (origin value from the seed), then per
    family gen-family and corr --fast on two members it wrote."""
    ops = [
        _gen_legendre_op(workdir, expected, p, n, _pick(rng, ORIGIN_VALUES))
        for p, n in config["gen-legendre"]
    ]
    for p, n in config["gen-family"]:
        i, j = sorted(int(x) for x in rng.choice(p, size=2, replace=False))
        ops += [_gen_family_op(workdir, expected, p, n), _corr_op(workdir, expected, p, n, i, j)]
    return ops


def all_generate_ops(workdir, config, expected) -> list[Op]:
    """Every op _generate_ops can emit: each origin value, each member pair."""
    ops = [
        _gen_legendre_op(workdir, expected, p, n, a)
        for p, n in config["gen-legendre"]
        for a in ORIGIN_VALUES
    ]
    for p, n in config["gen-family"]:
        ops.append(_gen_family_op(workdir, expected, p, n))
        ops += [_corr_op(workdir, expected, p, n, i, j) for i, j in itertools.combinations(range(p), 2)]
    return ops


def _generate_workload(rng, workdir, config) -> Workload:
    expected = _load_digests()
    ops = _generate_ops(rng, workdir, config, expected)
    warm_argv = ["gen-legendre", *_field_args(5, 2), "--out", str(workdir / "warmup.nda")]
    return Workload(ops, Op("warmup gen-legendre", warm_argv, [], _unchecked))


# --- watermark ----------------------------------------------------------------


def _write_pgm(path: Path, pixels: np.ndarray) -> None:
    """Binary P5 writer of the benchmark's own, so inputs do not depend on
    the program's image layer."""
    h, w = pixels.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())


def _synthetic_carrier(rng, side: int) -> np.ndarray:
    """Blocky low-frequency texture plus pixel noise, clipped to 8 bits."""
    block = 16
    cells = -(-side // block)
    coarse = rng.normal(128.0, 40.0, (cells, cells))
    img = np.kron(coarse, np.ones((block, block)))[:side, :side]
    img += rng.normal(0.0, 12.0, (side, side))
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def _extract_op(label, image, p, n, poly, kind, payload) -> Op:
    argv = ["extract", "--image", str(image), *_field_args(p, n, poly)]

    def check(rc, stdout):
        if rc != 0:
            return WRONG, {}
        r = json.loads(stdout)
        confident = r.get("confident") is True
        if kind == "aligned":
            if confident and r.get("m") == payload.m and r.get("shifts") == list(payload.shifts):
                return OK, {}
            return WRONG, {"false_confident" if confident else "missed": 1}
        wrong = kind == "unmarked" or r.get("m") != payload.m
        if confident and wrong:
            return FLAGGED, {"false_confident": 1}
        return OK, {}

    return Op(label, argv, [], check)


def _embed_op(label, carrier, out, p, n, poly, payload) -> Op:
    argv = [
        "embed", "--image", str(carrier), *_field_args(p, n, poly),
        "--m", str(payload.m), "--shifts", ",".join(map(str, payload.shifts)),
        "--strength", str(STRENGTH), "--out", str(out),
    ]

    def check(rc, stdout):
        # the marked image itself is checked by the extract op that reads it
        good = rc == 0 and out.is_file() and out.stat().st_size == carrier.stat().st_size
        return (OK if good else WRONG), {}

    return Op(label, argv, [out], check)


def _watermark_workload(rng, workdir, params_list, sides) -> Workload:
    carriers = []
    for side in sides:
        pixels = _synthetic_carrier(rng, side)
        path = workdir / f"carrier_{side}.pgm"
        _write_pgm(path, pixels)
        carriers.append((path, pixels))
    cases = []
    for p, n in params_list:
        poly = _pick(rng, _primitive_polys(p, n))
        params = LegendreParams(p, n, 0, poly)
        base = legendre_array(params)
        th, tw = watermark.tile_dims((p,) * (2 * n))
        for carrier, pixels in carriers:
            side = pixels.shape[0]
            payload = watermark.Payload(int(rng.integers(p)), tuple(rng.integers(0, p, 2 * n)))
            tag = f"{p},{n} {side}px"
            marked = workdir / f"marked_{p}_{n}_{side}.pgm"
            # an off-grid crop of a marked copy: the top-left corner moves
            # by 1..th-1 rows (never a whole tile) and 0..tw-1 columns
            mark = watermark.embed(
                GrayImage(pixels), build_member(base, payload.m, params), payload,
                watermark.EmbedConfig(STRENGTH),
            )
            dy = int(rng.integers(1, min(th - 1, side - th) + 1))
            dx = int(rng.integers(0, min(tw - 1, side - tw) + 1))
            crop = workdir / f"crop_{p}_{n}_{side}.pgm"
            _write_pgm(crop, np.ascontiguousarray(mark.pixels[dy:, dx:]))
            cases.append([
                _embed_op(f"embed {tag}", carrier, marked, p, n, poly, payload),
                _extract_op(f"extract marked {tag}", marked, p, n, poly, "aligned", payload),
                _extract_op(f"extract crop {tag} +{dy},+{dx}", crop, p, n, poly, "crop", payload),
                _extract_op(f"extract unmarked {tag}", carrier, p, n, poly, "unmarked", payload),
            ])
    ops = [op for i in rng.permutation(len(cases)) for op in cases[i]]
    p, n = params_list[0]
    warm_argv = ["extract", "--image", str(carriers[0][0]), *_field_args(p, n)]
    return Workload(ops, Op("warmup extract", warm_argv, [], _unchecked))


# --- entry point --------------------------------------------------------------

def build(name: str, seed: int, workdir: Path, tiny: bool) -> Workload:
    """Make the seeded inputs of a workload under workdir and its op list."""
    config = TINY if tiny else FULL
    rng = np.random.default_rng(seed)
    (workdir / "warmup").mkdir(parents=True, exist_ok=True)
    if name == "verify-ladder":
        return _verify_workload(rng, workdir, config[name], fast=True)
    if name == "verify-exact":
        return _verify_workload(rng, workdir, config[name], fast=False)
    if name == "watermark":
        sides = TINY_CARRIER_SIDES if tiny else CARRIER_SIDES
        return _watermark_workload(rng, workdir, config[name], sides)
    if name == "generate":
        return _generate_workload(rng, workdir, config)
    raise ValueError(f"unknown workload {name!r}")
