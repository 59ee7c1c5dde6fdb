"""One measured process of the benchmark; run.py starts it.

It sets up a workload (imports legarray from ./src, builds the seeded inputs,
makes one warm-up call) and, in measure mode, times passes over the
workload's ops until --seconds have gone by (two passes at least). It records the peak RSS before
it checks any output, so the checks do not count towards it. With --trace 1
it times untraced passes for half the time, installs the spans, and times
traced passes for the other half. It prints one JSON object.

``wall_s`` is the time of one pass with each op taken at its fastest over
the untraced passes. On a shared host other tenants slow stretches of
seconds by up to half; an op of under a second is repeated often enough in
a run to catch an uncontended stretch, so the sum of the fastest runs is
steadier than the median pass. What it cannot remove is the host getting
slower or faster over minutes.

Each op's outputs are hashed after every pass (outside the timing); an op
whose outputs differ from those of the final pass is wrong. The final
pass's outputs then get the op's own check.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans")
    return ap.parse_args(argv)


def _run_op(cli, op):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(op.argv)
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


class _Pass:
    def __init__(self, cli, ops, sha256_file, tracer=None):
        results = []
        start = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op += 1
            results.append(_run_op(cli, op))
        self.wall = time.perf_counter() - start
        self.results = results
        self.traced = tracer is not None
        self.fingerprints = []
        self.output_bytes = 0
        for op, (_, rc, stdout, _) in zip(ops, results):
            h = hashlib.sha256(f"{rc}\n{stdout}".encode())
            self.output_bytes += len(stdout.encode())
            for path in op.outputs:
                if path.is_file():
                    h.update(sha256_file(path).encode())
                    self.output_bytes += path.stat().st_size
                else:
                    h.update(b"missing")
            self.fingerprints.append(h.hexdigest())


def _fastest_pass(passes: list[_Pass]) -> float:
    """One pass with each op at its fastest over the given passes."""
    return sum(min(runs) for runs in zip(*([lat for lat, *_ in ps.results] for ps in passes)))


def main(argv=None) -> int:
    args = _parse(argv)
    import workloads
    from legarray import cli

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"worker: legarray imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    workdir = Path(args.workdir)
    work = workloads.build(args.workload, args.seed, workdir, args.tiny)
    _, rc, _, err = _run_op(cli, work.warmup)
    if rc != 0:
        print(f"worker: warm-up call failed ({rc}): {err}", file=sys.stderr)
        return 1
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes: list[_Pass] = []
    tracer = None

    def measure(seconds, min_passes):
        start = time.perf_counter()
        for count in itertools.count(1):
            passes.append(_Pass(cli, work.ops, workloads.sha256_file, tracer))
            if count >= min_passes and time.perf_counter() - start >= seconds:
                return

    if args.trace:
        import tracing

        measure(args.seconds / 2, 1)
        tracer = tracing.Tracer()
        tracer.install()
        measure(args.seconds / 2, 1)
    else:
        # two passes at least, so that every op has a second chance at an
        # uncontended run
        measure(args.seconds, 2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    final = passes[-1]
    verdicts = [op.check(rc, stdout) for op, (_, rc, stdout, _) in zip(work.ops, final.results)]
    counters = Counter()
    for _, cnt in verdicts:
        counters.update(cnt)
    failed = 0
    flagged = 0
    broken = []
    for k, ps in enumerate(passes):
        for op, (status, _), fp, final_fp, (_, rc, _, err) in zip(
            work.ops, verdicts, ps.fingerprints, final.fingerprints, ps.results
        ):
            differs = fp != final_fp
            flagged += status == workloads.FLAGGED and not differs
            if status == workloads.WRONG or differs:
                failed += 1
                why = "outputs differ from the final pass" if differs else f"exit {rc} {err.strip()}"
                broken.append(f"pass {k}: {op.label}: {why}")

    untraced = [ps for ps in passes if not ps.traced]
    result = {
        "setup_s": setup_s,
        "wall_s": _fastest_pass(untraced),
        "walls": [ps.wall for ps in untraced],
        "latencies_ms": [lat * 1e3 for ps in untraced for lat, *_ in ps.results],
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": final.output_bytes,
        "ops_per_pass": len(work.ops),
        "attempted": len(work.ops) * len(passes),
        "failed": failed,
        "flagged": flagged,
        "broken": broken,
    }
    if tracer is not None:
        traced = [ps for ps in passes if ps.traced]
        layers = tracer.layer_metrics(len(traced))
        traced_walls = [ps.wall for ps in traced]
        layers["trace.overhead_s"] = _fastest_pass(traced) - result["wall_s"]
        layers["trace.unspanned_s"] = (sum(traced_walls) - tracer.root_seconds()) / len(traced)
        layers["watermark.extract.false_confident"] = counters["false_confident"]
        layers["watermark.extract.missed"] = counters["missed"]
        result["layers"] = layers
        result["traced_walls"] = traced_walls
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
