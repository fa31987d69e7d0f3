#!/usr/bin/env python3
"""The benchmark's own test: determinism of the traced op-count fingerprint.

Runs every workload traced twice with the same seed and checks that
  * both runs exit 0 with "correct": true and no failed op,
  * the paper round-count gate reports no mismatch,
  * the '# fingerprint' lines (pairings, final exps, hash-to-points, point
    muls, messages, store puts and ledger appends per op class over the
    deterministic prefix) are identical,
  * every per-layer metric named in BENCHMARK.json is reported.

Usage (from the repository root):  python3 perfbench/test_fingerprint.py [seed]
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("routine", "emergency", "mhi_stream")


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise AssertionError("%s: traced run exited %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    fingerprint = [l for l in lines if l.startswith("# fingerprint ")]
    gate = [l for l in lines if l.startswith("# round-gate ")]
    return result, fingerprint, gate


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        per_layer = [m["name"] for m in json.load(f)["per_layer"]]
    for workload in WORKLOADS:
        a, fp_a, gate = traced_run(workload, seed)
        b, fp_b, _ = traced_run(workload, seed)
        for r in (a, b):
            assert r["correct"] and r["failed"] == 0, (workload, r)
        assert gate and all(l.endswith(" ok") for l in gate), (workload, gate)
        assert len(fp_a) == 1 and fp_a == fp_b, (workload, fp_a, fp_b)
        missing = [m for m in per_layer if m not in a["metrics"]]
        assert not missing, (workload, missing)
        print("ok %-10s %s" % (workload, fp_a[0][len("# fingerprint "):]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
