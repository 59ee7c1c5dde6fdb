"""Benchmark of the legarray CLI, driven in-process through legarray.cli.main.

Run from the root of a checkout (no install needed; legarray is imported
from ./src):

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 10 --trace 0

Workloads: verify-ladder, verify-exact, watermark, generate (BENCHMARK.json
gives each one's reason). A run starts worker processes (worker.py) one
after another, so each workload is measured in a fresh process and one op
runs at a time:

* --trace 0: four workers that only set up, then the measuring worker.
  Prints every end-to-end metric: setup_s is the median set-up of the five,
  wall_s one pass with each op at its fastest over the run (see worker.py),
  peak_rss_mb the measuring worker's peak RSS and output_bytes what one
  pass wrote.
* --trace 1: one worker that times untraced passes, then traced ones.
  Prints every per-layer metric (per traced pass), plus op_p50_ms and
  op_p90_ms over the op latencies of the untraced passes and fail_ratio,
  and writes the spans to .perfbench/spans-<workload>-seed<seed>.json.

Before the result line it prints the environment, the src line count and
the metrics by name with their units; the last stdout line is the JSON
result. ``failed`` counts ops whose output broke a property the program
guarantees, and ``correct`` is false if there is one; fail_ratio adds the
extracts that are confident although wrong, a known defect the program does
not yet claim to avoid (see workloads.py). --tiny swaps in parameters that run in
seconds (selftest.py uses it).

Exit codes: 0 result printed, 1 a worker failed, 2 no legarray source here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
DEADLINE_S = 170
WORKLOADS = ("verify-ladder", "verify-exact", "watermark", "generate")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "output_bytes": "B"}
# Reported with the per-layer metrics, without a bound: on a shared host a
# short op takes its fast time or up to twice that, and percentiles over the
# five to eight unlike ops of three of the workloads swing by 20-35% between
# runs. fail_ratio is 0 on those three, and end-to-end metrics must not be.
RUN_SPECS = {
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "fail_ratio": ("ratio", "lower"),
}


def per_layer_specs() -> dict[str, tuple[str, str]]:
    """Every metric the traced run emits: name -> (unit, better)."""
    return {**RUN_SPECS, **tracing.layer_metric_specs()}


class WorkerError(RuntimeError):
    pass


def _worker(args, mode: str, workdir: Path, deadline: float, spans: Path | None = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def _environment() -> str:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return (
        f"environment: nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
        f"numpy {metadata.version('numpy')}; src lines {src_lines}"
    )


def _end_to_end(setups: list[float], res: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": res["wall_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "output_bytes": res["output_bytes"],
    }


def _per_layer(res: dict) -> dict[str, float]:
    cuts = statistics.quantiles(res["latencies_ms"], n=10, method="inclusive")
    run = {"op_p50_ms": cuts[4], "op_p90_ms": cuts[8],
           "fail_ratio": (res["failed"] + res["flagged"]) / res["attempted"]}
    return {**run, **res["layers"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny parameters, for selftest.py")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "legarray" / "__init__.py").is_file():
        print(f"run.py: no legarray source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM raises SystemExit, so subprocess.run kills and reaps the worker
    # and the work directory is removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
    try:
        setups = [
            _worker(args, "setup", workdir, deadline)["setup_s"]
            for _ in range(0 if args.trace else SETUP_SAMPLES - 1)
        ]
        res = _worker(args, "measure", workdir, deadline, spans)
    except WorkerError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(_environment())
    print(
        f"workload {args.workload} seed {args.seed}: {len(res['walls'])} untraced pass(es) of "
        f"{res['ops_per_pass']} ops, {len(res['latencies_ms'])} op latencies, "
        f"{res['failed']} of {res['attempted']} ops failed, "
        f"{res['flagged']} extracts confident although wrong"
    )
    print("untraced pass wall_s: " + ", ".join(f"{w:.4f}" for w in res["walls"]))
    for line in res["broken"]:
        print(f"run.py: wrong output: {line}", file=sys.stderr)
    if args.trace:
        values = _per_layer(res)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in per_layer_specs().items()}
        self_total = sum(v for k, v in res["layers"].items() if k.endswith(".self_s"))
        print(
            f"accounting per pass: traced mean pass {statistics.fmean(res['traced_walls']):.4f} s"
            f" = self times {self_total:.4f} + unspanned {res['layers']['trace.unspanned_s']:.4f}; "
            f"wall_s untraced {res['wall_s']:.4f}, traced "
            f"{res['wall_s'] + res['layers']['trace.overhead_s']:.4f} (overhead "
            f"{res['layers']['trace.overhead_s']:.4f})"
        )
    else:
        values = _end_to_end(setups + [res["setup_s"]], res)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not res["broken"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
