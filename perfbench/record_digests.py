"""Record the sha256 of every output the generate workload can produce.

    PYTHONPATH=src python3 perfbench/record_digests.py

writes perfbench/digests.json, which the generate workload's checks compare
against: every origin value of each gen-legendre op, every member of each
gen-family op and every member pair of each corr op, for the full and the
tiny parameters. Run it only at a commit whose outputs are known to be
right; afterwards any change to these bytes fails the workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from legarray import cli


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parents[1]) as tmp:
        for config in (workloads.FULL, workloads.TINY):
            workdir = Path(tmp) / "out"
            for op in workloads.all_generate_ops(workdir, config, expected={}):
                workdir.mkdir(exist_ok=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(op.argv) != 0:
                        print(f"failed: {op.label}", file=sys.stderr)
                        return 1
                for key, path in op.digests.items():
                    digests[key] = workloads.sha256_file(path)
            shutil.rmtree(workdir)
    text = json.dumps(dict(sorted(digests.items())), indent=1) + "\n"
    workloads.DIGESTS_PATH.write_text(text, encoding="utf-8")
    print(f"{len(digests)} digests written to {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
