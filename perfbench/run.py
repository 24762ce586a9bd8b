"""Benchmark of the affine-verma verifier: one workload, one JSON result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each exists):
  verify-all       `verify all --l-range 4..7 --jobs 1`, cold caches per pass
  verify-all-pool  the same with `--jobs 2`, through the cli process pool
  oracle           `verify singular --type {B,D} --l {4,5,6} --strict`, cold
  warm-recheck     21 checks at l=4..7 rerun in one warm process, in an
                   order drawn from the seed

Passes repeat until --seconds have passed (at least three).  Every report
is checked against golden.json after the clock stops; a run with any
failed check, or with exact counts that differ between passes, prints
"correct": false and exits 1.  With --trace 0 the metrics are the
end-to-end ones, from untraced passes; with --trace 1 untraced and traced
passes alternate and the metrics are the per-layer ones.  Every time is
normalized by reference.py, and one-process workloads are pinned to one
CPU.  The last line of stdout is the result; the line before it is the run
record.  --smoke runs rank 4 only, one pass of each kind.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import probe
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_check_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "liealg.build_s": "s",
    "liealg.bracket_pairs_nonzero": "count",
    "liealg.table_cells": "count",
    "verma.apply_s": "s",
    "verma.apply_calls": "count",
    "verma.build_s": "s",
    "verma.state_arith_s": "s",
    "verma.state_arith_calls": "count",
    "verma.memo_entries": "count",
    "singular.enumerate_s": "s",
    "singular.candidates": "count",
    "singular.rows_s": "s",
    "linalg.nullspace_s": "s",
    "linalg.rows": "count",
    "linalg.rank": "count",
    "weights.admissible_s": "s",
    "weights.generators": "count",
    "cli.to_json_s": "s",
    "cli.checks": "count",
    "cli.pool_efficiency": "ratio",
    "cli.self_s": "s",
    "liealg.self_s": "s",
    "verma.self_s": "s",
    "singular.self_s": "s",
    "linalg.self_s": "s",
    "weights.self_s": "s",
    "embedding.self_s": "s",
    "conformal.self_s": "s",
    "zero_modes.self_s": "s",
    "triality.self_s": "s",
    "trace.overhead_s": "s",
}

MIN_PASSES = 3
IMPORT_SAMPLES = 9
SETUP_SAMPLES = 3

# time the package import in a fresh interpreter; prints seconds
_IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import affine_verma.cli\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds(samples):
    """Normalized import times of the package in fresh interpreters."""
    out = []
    before = reference.seconds()
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)], cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True)
        after = reference.seconds()
        out.append(float(proc.stdout) * reference.scale(before, after))
        before = after
    return out


def pin_to_one_cpu():
    """Keep a one-process workload on one CPU, so that the reference work
    timed next to each pass runs where the pass ran."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "affine_verma").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---- one run --------------------------------------------------------------


class Run:
    """Set up one workload, run its passes, and reduce them to metrics."""

    def __init__(self, workload, probe, trace, smoke):
        self.workload = workload
        self.probe = probe
        self.trace = trace
        self.min_passes = 1 if smoke else MIN_PASSES
        self.setup_samples = []
        self.untraced = []
        self.traced = []
        self.setup_checks = []
        self.last_spans = []

    def setup(self, samples):
        """Set the workload up `samples` times, timing each; the last one
        leaves the state the passes run in."""
        for _ in range(samples):
            self.probe.install(False)
            try:
                primed, elapsed, scale = reference.timed(self.workload.setup)
                self.setup_samples.append(elapsed * scale)
            finally:
                self.probe.remove()
            primed.records.append(self.probe.take_counts())
            self.setup_checks.append(primed)

    def passes(self, seconds):
        deadline = perf_counter() + seconds
        before = reference.seconds()
        while (len(self.untraced) < self.min_passes
               or (self.trace and len(self.traced) < self.min_passes)
               or perf_counter() < deadline):
            tracing = self.trace and len(self.untraced) > len(self.traced)
            self.probe.install(tracing)
            try:
                p = self.workload.run_pass()
            finally:
                self.probe.remove()
            after = reference.seconds()
            p.scale = reference.scale(before, after)
            before = after
            p.records.append(self.probe.take_counts())
            if tracing:
                p.spans = merge_spans(
                    [self.probe.span_totals()]
                    + [r["spans"] for r in p.records if r.get("spans")])
                self.last_spans = self.probe.spans()
                self.probe.reset_spans()
                self.traced.append(p)
            else:
                self.untraced.append(p)

    # ---- reductions -------------------------------------------------------

    def all_passes(self):
        return self.untraced + self.traced

    def attempted(self):
        return sum(p.attempted for p in self.all_passes() + self.setup_checks)

    def failed(self):
        return sum(p.failed for p in self.all_passes() + self.setup_checks)

    def counts(self, p):
        """The exact counts of one pass."""
        counts = {"checks": p.attempted, "candidates": 0,
                  "nullspace_rows": 0, "nullspace_rank": 0}
        memo = {}
        for rec in p.records:
            for key in ("candidates", "nullspace_rows", "nullspace_rank"):
                counts[key] += rec["counts"][key]
            for key, size in rec["memo"].items():
                memo[key] = max(memo.get(key, 0), size)
        counts["memo_entries"] = sum(memo.values())
        counts["generators"] = sum(
            len(r["condition_ii"]["generators"]) for r in p.reports
            if r is not None and r.get("check") == "admissible")
        if p.spans is not None:
            for group in ("verma.apply", "verma.state_arith"):
                counts[group + "_calls"] = p.spans.get(group, [0])[0]
        return counts

    def repeat_problems(self):
        """Counts that differ between passes; empty when all repeat exactly.

        Under the process pool, which worker's memo a check fills depends
        on scheduling, so memo entries are not required to repeat there.
        """
        skip = {"memo_entries"} if self.workload.jobs > 1 else set()
        problems = []
        seen = {}
        for p in self.all_passes():
            for key, value in self.counts(p).items():
                if key in skip:
                    continue
                if seen.setdefault(key, value) != value:
                    problems.append("%s: %s then %s" % (key, seen[key], value))
        return problems

    def built(self):
        return sorted({tuple(b) for p in self.all_passes() + self.setup_checks
                       for rec in p.records for b in rec["built"]})

    def peak_rss_mb(self):
        """Peak RSS of this process plus the peaks of the pool workers that
        ran at the same time; copy-on-write pages count once per process."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = 0
        for p in self.all_passes():
            peaks = {}
            for rec in p.records:
                if "pid" in rec and rec["pid"] != os.getpid():
                    peaks[rec["pid"]] = max(peaks.get(rec["pid"], 0),
                                            rec["rss_kb"])
            workers = max(workers, sum(peaks.values()))
        return (own + workers) / 1024

    def end_to_end(self, import_samples):
        walls = [p.wall * p.scale for p in self.untraced]
        per_check = {}
        for p in self.untraced:
            for key, elapsed in p.checks:
                per_check.setdefault(key, []).append(elapsed * p.scale)
        setup = statistics.median(import_samples)
        if self.setup_samples:
            setup += statistics.median(self.setup_samples)
        return {
            "setup_s": setup,
            "wall_s": statistics.median(walls),
            "slowest_check_s": max(
                (statistics.median(v) for v in per_check.values()),
                default=0.0),
            "peak_rss_mb": self.peak_rss_mb(),
        }

    def per_layer(self, alg_counts):
        def med(fn):
            return statistics.median(fn(p) for p in self.traced)

        def incl(group):
            return med(lambda p: p.spans.get(group, [0, 0.0])[1] * p.scale)

        def count(key):
            passes = map(self.counts, self.all_passes())
            return statistics.median_low(c[key] for c in passes if key in c)

        jobs = self.workload.jobs
        efficiency = statistics.median(
            sum(r["elapsed"] for r in p.records if "elapsed" in r)
            / (jobs * p.wall) for p in self.untraced)
        metrics = {
            "liealg.build_s": incl("liealg.build"),
            "liealg.bracket_pairs_nonzero":
                alg_counts["bracket_pairs_nonzero"],
            "liealg.table_cells": alg_counts["table_cells"],
            "verma.apply_s": incl("verma.apply"),
            "verma.apply_calls": count("verma.apply_calls"),
            "verma.build_s": incl("verma.build"),
            "verma.state_arith_s": incl("verma.state_arith"),
            "verma.state_arith_calls": count("verma.state_arith_calls"),
            "verma.memo_entries": count("memo_entries"),
            "singular.enumerate_s": incl("singular.enumerate"),
            "singular.candidates": count("candidates"),
            "singular.rows_s": med(lambda p: p.scale * p.spans.get(
                "singular.solve", [0, 0.0, 0.0])[2]),
            "linalg.nullspace_s": incl("linalg.nullspace"),
            "linalg.rows": count("nullspace_rows"),
            "linalg.rank": count("nullspace_rank"),
            "weights.admissible_s": incl("weights.admissible"),
            "weights.generators": count("generators"),
            "cli.to_json_s": incl("cli.to_json"),
            "cli.checks": count("checks"),
            "cli.pool_efficiency": efficiency,
        }
        for layer in probe.LAYERS:
            metrics[layer + ".self_s"] = med(lambda p: p.scale * sum(
                v[2] for g, v in p.spans.items()
                if probe.GROUP_LAYER[g] == layer))
        metrics["trace.overhead_s"] = (
            statistics.median(p.wall * p.scale for p in self.traced)
            - statistics.median(p.wall * p.scale for p in self.untraced))
        return metrics


def merge_spans(parts):
    out = {}
    for part in parts:
        for group, (calls, incl, own) in part.items():
            entry = out.setdefault(group, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += own
    return out


def algebra_counts(built):
    """Nonzero bracket pairs (i < j) and stored table cells of the algebras
    the workload built, summed."""
    from affine_verma import liealg

    pairs = cells = 0
    for kind, l in built:
        alg = liealg.algebra(kind, l)
        pairs += sum(1 for i in range(alg.dim) for j in range(i + 1, alg.dim)
                     if alg.bracket(i, j))
        cells += probe.table_cells(alg)
    return {"bracket_pairs_nonzero": pairs, "table_cells": cells}


# ---- entry point ----------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="rank 4 only, one pass of each kind")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "affine_verma" / "__init__.py").is_file():
        print("perfbench: src/affine_verma not found next to perfbench/; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    workload = workloads.make(args.workload, args.seed, args.smoke)
    cpus_usable = len(os.sched_getaffinity(0))
    if workload.jobs == 1:
        pin_to_one_cpu()
    try:
        imports = [] if trace else import_seconds(
            1 if args.smoke else IMPORT_SAMPLES)
        run = Run(workload, probe.Probe(), trace, args.smoke)
        if workload.has_setup:
            run.setup(1 if (trace or args.smoke) else SETUP_SAMPLES)
        run.passes(args.seconds)
        counts = algebra_counts(run.built())
        metrics = (run.per_layer(counts) if trace
                   else run.end_to_end(imports))
    except probe.BoundaryError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 3

    repeat = run.repeat_problems()
    attempted, failed = run.attempted(), run.failed()
    units = PER_LAYER if trace else END_TO_END
    walls = [p.wall * p.scale for p in run.untraced]
    q1, q2, q3 = quartiles(walls)
    measured = quartiles([p.wall for p in run.untraced])
    scale = statistics.median(p.scale for p in run.all_passes())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "passes": len(run.untraced),
        "traced_passes": len(run.traced),
        "wall_s_quartiles": [q1, q2, q3],
        "measured_wall_s_quartiles": list(measured),
        "median_scale": scale,
        "error_rate": failed / attempted,
        "counts": dict(run.counts(run.untraced[0]), **counts),
        "counts_repeat": not repeat,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }
    if trace:
        write_trace(args, record, run)
    for problem in repeat:
        print("perfbench: count differs between passes: " + problem,
              file=sys.stderr)
    print("%s seed %d: %d passes, wall_s median %.4f s (quartiles %.4f, "
          "%.4f; measured median %.4f s, scale %.3f), error_rate %d/%d"
          % (args.workload, args.seed, len(walls), q2, q1, q3, measured[1],
             scale, failed, attempted))
    for name, value in metrics.items():
        print("  %-30s %14.6f %s" % (name, value, units[name]))
    print(json.dumps({"record": record}, sort_keys=True))
    correct = failed == 0 and not repeat
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def write_trace(args, record, run):
    """Span totals of every traced pass and the spans of the last one."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    t0 = run.last_spans[0][2] if run.last_spans else 0.0
    with open(path, "w") as fh:
        json.dump({
            "record": record,
            "pass_span_totals": [p.spans for p in run.traced],
            "last_pass_spans": [[g, parent, s - t0, e - t0]
                                for g, parent, s, e in run.last_spans],
        }, fh)


if __name__ == "__main__":
    sys.exit(main())
