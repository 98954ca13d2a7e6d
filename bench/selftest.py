"""Count self-test: two traced runs with one seed give identical counts.

    python3 bench/selftest.py

For each workload, runs ``run.py --trace 1`` twice with seed 1, each in a
fresh process (so string hashing, and with it set iteration order, differs
between the two), and compares every count metric exactly: ``*.calls``,
``executor.rows``, ``verifier.branches_*``, ``compiler.bricks``,
``boolfn.monomials_out``, ``boolfn.max_degree``, ``pgraph.edges_out`` and
the statevec counts. Times and ratios are not compared. Exits 1 on any
difference or failed op, so counts from traced runs can be cited as exact.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("certify-brick", "compile-mixed", "shots-deep")
NOT_COUNTS = ("s", "ratio")
SEED = 1


def traced_counts(workload: str) -> dict[str, float]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
           "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"selftest: {workload} exited with {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"selftest: {workload} had {result['failed']} failed ops")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] not in NOT_COUNTS}


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        ok &= not diff
        status = "identical" if not diff else "DIFFER: " + ", ".join(
            f"{k} {first.get(k)} != {second.get(k)}" for k in diff
        )
        print(f"{workload}: {len(first)} counts {status}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
