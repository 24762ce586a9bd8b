"""Smoke test of the benchmark: every workload at rank 4, untraced and traced.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Each run does one pass of each kind.  The test fails unless every run exits
0 with "correct": true (the golden gate passed and the exact counts
repeated), and its metrics are exactly the ones BENCHMARK.json names, each
with the unit named there.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(workload, trace, spec):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return ["exit %d: %s" % (proc.returncode, proc.stderr.strip())]
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append("golden gate or count repeat failed: %s"
                        % proc.stderr.strip())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s, unit mismatch %s" % (
                            sorted(set(wanted) - set(got)),
                            sorted(set(got) - set(wanted)),
                            sorted(k for k in set(got) & set(wanted)
                                   if got[k] != wanted[k])))
    return problems


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            failures += bool(problems)
            print("%-16s trace %d: %s" % (workload, trace,
                                          "; ".join(problems) or "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
