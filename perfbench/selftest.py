"""Fast self-test of the benchmark harness on the tiny parameters.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Checks that every workload, untraced and traced, exits 0 and prints a
result line that is correct and carries exactly the metrics BENCHMARK.json
names, with their units; that BENCHMARK.json lists exactly the per-layer
metrics the harness emits; and that without the legarray source the
benchmark exits non-zero without a result. Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_spec_lists_what_the_harness_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == run.per_layer_specs()


def test_every_workload_emits_every_metric():
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in run.WORKLOADS:
            proc = _run(workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (workload, trace, proc.stderr)
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_program_source():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("generate", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
