"""Write bench/golden.json: the reference output of every workload at seed 0.

    python3 bench/record_golden.py

Each record holds the exit code, the sha256 and length of stdout (stderr is
left out: it carries the timing line), the seed-invariant summary that
nonzero seeds are checked against, and where it was recorded.  Record only
at a commit whose reports are known to be right: bench/run.py fails every
sample that disagrees with this file.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import GOLDEN, WORK, WORKLOADS, cli_argv, invariant_summary, run_record, seeded_document, spawn


def main() -> int:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=WORK))
    records = {}
    try:
        doc = workdir / "input.json"
        for name, workload in WORKLOADS.items():
            doc.write_bytes(seeded_document(workload, 0))
            sample = spawn(cli_argv(workload, doc), workdir)
            if sample.timed_out:
                print(f"{name}: timed out", file=sys.stderr)
                return 1
            records[name] = {
                **run_record(name, 0),
                "argv": ["qgrass", *workload.cli_args(f"bench/inputs/{workload.document}")],
                "exit_code": sample.exit_code,
                "stdout_sha256": hashlib.sha256(sample.stdout).hexdigest(),
                "stdout_bytes": len(sample.stdout),
                "summary": invariant_summary(json.loads(sample.stdout)),
            }
            print(f"{name}: exit {sample.exit_code}, {len(sample.stdout)} bytes, {sample.wall_s:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
