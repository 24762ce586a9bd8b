"""Command line front end: algebra dumps and machine-checkable verdicts.

Every subcommand prints one JSON document (sorted keys, rational numbers as
normalized "p/q" strings) so that repeated runs are byte-identical.  Exit
status is 0 when the requested checks pass, 1 when a mathematical check
fails, and 2 for usage errors.
"""

import argparse
import json
import os
import sys
from contextlib import nullcontext

from . import conformal
from . import embedding
from . import liealg
from . import singular
from . import triality
from . import verma
from . import weights
from . import zero_modes

CHECKS = ("singular", "embedding", "conformal", "admissible", "triality",
          "appendix", "all")

# the rank budget: on a 2-core host, at the default mode bound, a cold `verify
# all --l 24 --jobs 1` takes about 0.9 s and `verify singular --type D --l 24
# --strict` about 1.0 s (best of 3 processes)
MAX_L = 24

# the ceiling on --mode-bound and the environment alike, the highest mode a
# report covers: time does not grow with it at the paper's levels, but
# check_admissible walks every mode below it when the rank stays short
MAX_MODE_BOUND = 200


def to_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def run_check(check, kind, l, mode_bound=weights.DEFAULT_MODE_BOUND,
              strict=False):
    if check == "singular":
        return singular.report(kind, l, strict=strict)
    if check == "embedding":
        return embedding.report(l)
    if check == "conformal":
        return conformal.report(l)
    if check == "admissible":
        return weights.report(l, kind or "D", mode_bound)
    if check == "triality":
        return triality.report(l)
    if check == "appendix":
        return zero_modes.report(l)
    raise ValueError("unknown check: %r" % (check,))


_last_rank = None


def _run_task(task):
    # tasks reach a process in rank order and no check reads another rank's
    # objects, so a new rank drops the caches; one out of order only rebuilds
    global _last_rank
    check, kind, l, mode_bound = task
    if l != _last_rank:
        liealg.algebra.cache_clear()
        verma.vacuum_module.cache_clear()
        _last_rank = l
    return run_check(check, kind, l, mode_bound)


def _all_tasks(l_values, mode_bound):
    tasks = []
    for l in l_values:
        tasks.append(("singular", "B", l, None))
        tasks.append(("singular", "D", l, None))
        tasks.append(("embedding", None, l, None))
        tasks.append(("conformal", None, l, None))
        tasks.append(("admissible", "D", l, mode_bound))
        tasks.append(("appendix", None, l, None))
        if l == 4:
            tasks.append(("triality", None, l, None))
    return tasks


def usable_cpus():
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_all(l_values, jobs, mode_bound=weights.DEFAULT_MODE_BOUND):
    tasks = _all_tasks(l_values, mode_bound)
    # the fork start method launches every worker on the first submit
    jobs = min(jobs, len(tasks), usable_cpus())
    if jobs > 1:
        # imported only here: it pulls in multiprocessing, which no other
        # command needs
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_run_task, tasks))
    else:
        reports = [_run_task(t) for t in tasks]
    summary = []
    for task, rep in zip(tasks, reports):
        summary.append({
            "check": task[0],
            "type": rep.get("type"),
            "l": task[2],
            "passed": rep["passed"],
        })
    return {
        "check": "all",
        "l_values": list(l_values),
        "reports": reports,
        "summary": summary,
        "passed": all(r["passed"] for r in reports),
    }


def _human_lines(report):
    lines = []
    if report.get("check") == "all":
        rows = [("check", "type", "l", "result")]
        for s in report["summary"]:
            rows.append((s["check"], s["type"] or "-", str(s["l"]),
                         "pass" if s["passed"] else "FAIL"))
        widths = [max(len(r[c]) for r in rows) for c in range(4)]
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        lines.append("overall: %s" % ("pass" if report["passed"] else "FAIL"))
        return lines
    for key in sorted(report):
        value = report[key]
        if isinstance(value, (list, dict)):
            value = json.dumps(value, sort_keys=True)
            if len(value) > 100:
                value = value[:97] + "..."
        lines.append("%s: %s" % (key, value))
    return lines


def _render(report, human):
    if human:
        return "\n".join(_human_lines(report)) + "\n"
    return to_json(report)


def _parse_l_range(raw):
    lo, sep, hi = raw.partition("..")
    if not sep:
        lo = hi = raw
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("expected N..M, got %r" % (raw,))
    if lo > hi:
        raise argparse.ArgumentTypeError("empty range %r" % (raw,))
    return lo, hi


def build_parser():
    parser = argparse.ArgumentParser(
        prog="affine-verma",
        description="Exact verification of singular vectors, embeddings and "
                    "conformal structure for type B and D affine vacuum "
                    "modules at level -l + 3/2.")
    sub = parser.add_subparsers(dest="command", required=True)

    dump = sub.add_parser("dump-algebra",
                          help="emit basis, brackets, form and root data")
    dump.add_argument("--type", required=True, choices=("B", "D"))
    dump.add_argument("--l", required=True, type=int)
    dump.add_argument("--out")
    dump.add_argument("--human", action="store_true")

    ver = sub.add_parser("verify", help="run a verification check")
    ver.add_argument("check", choices=CHECKS)
    ver.add_argument("--type", choices=("B", "D"),
                     help="algebra type (singular; admissible defaults to D)")
    ver.add_argument("--l", type=int)
    ver.add_argument("--l-range", type=_parse_l_range, metavar="N..M",
                     help="range of ranks for 'verify all'")
    ver.add_argument("--mode-bound", type=int,
                     help="highest affine root mode the admissibility "
                          "report covers, at most %d (else env "
                          "%s, else %d)" % (MAX_MODE_BOUND,
                                           weights.MODE_BOUND_ENV,
                                           weights.DEFAULT_MODE_BOUND))
    ver.add_argument("--strict", action="store_true",
                     help="singular only: also solve for the full singular "
                          "space independently and require dimension one")
    ver.add_argument("--jobs", type=int,
                     help="parallel workers for 'verify all' (default: "
                          "one per CPU this process may run on)")
    ver.add_argument("--out")
    ver.add_argument("--human", action="store_true")
    return parser


def _validate(parser, args):
    top = (getattr(args, "l_range", None) or (None, args.l))[1]
    if top is not None and top > MAX_L:
        parser.error("rank %d is above %d, the rank budget" % (top, MAX_L))
    if args.command == "dump-algebra":
        if args.l < 4:
            parser.error("--l must be at least 4")
        return
    check = args.check
    for flag, given, users in (
            ("--strict", args.strict, ("singular",)),
            ("--mode-bound", args.mode_bound is not None, ("admissible", "all")),
            ("--type", args.type is not None, ("singular", "admissible")),
            ("--l-range", args.l_range is not None, ("all",)),
            ("--jobs", args.jobs is not None, ("all",))):
        if given and check not in users:
            parser.error("%s does not apply to 'verify %s'" % (flag, check))
    if args.l is not None and args.l_range is not None:
        parser.error("--l and --l-range cannot be combined")
    if check == "all":
        if args.l_range is None:
            args.l_range = (args.l, args.l) if args.l is not None else (4, 6)
        if args.jobs is None:
            args.jobs = usable_cpus()
    else:
        if args.l is None:
            args.l = 4 if check == "triality" else None
        if args.l is None:
            parser.error("--l is required for 'verify %s'" % check)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be positive")
    if args.mode_bound is not None and args.mode_bound < 1:
        parser.error("--mode-bound must be positive")
    if check in ("admissible", "all") and args.mode_bound is None:
        # the package's one reader of the variable
        raw = os.environ.get(weights.MODE_BOUND_ENV,
                             str(weights.DEFAULT_MODE_BOUND))
        try:
            args.mode_bound = int(raw)
        except ValueError:
            args.mode_bound = 0
        if args.mode_bound < 1:
            parser.error("%s must be a positive integer, got %r"
                         % (weights.MODE_BOUND_ENV, raw))
    if args.mode_bound is not None and args.mode_bound > MAX_MODE_BOUND:
        parser.error("mode bound %d is above %d, the highest mode a report "
                     "may cover" % (args.mode_bound, MAX_MODE_BOUND))
    if check == "singular" and args.type is None:
        parser.error("'verify singular' needs --type B or --type D")
    if check == "triality" and args.l != 4:
        parser.error("triality is specific to l = 4")
    if args.l is not None and args.l < 4:
        parser.error("--l must be at least 4")
    if check == "all" and args.l_range[0] < 4:
        parser.error("--l-range must start at 4 or above")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # open --out before any work, so a bad path costs no computation
    try:
        sink = open(args.out, "w") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        sys.stderr.write("affine-verma: error: --out: %s\n" % exc)
        return 2

    if args.command == "dump-algebra":
        report = liealg.algebra(args.type, args.l).to_dump()
    elif args.check == "all":
        lo, hi = args.l_range
        report = run_all(range(lo, hi + 1), args.jobs, args.mode_bound)
    else:
        report = run_check(args.check, args.type, args.l,
                           mode_bound=args.mode_bound, strict=args.strict)
    # a full disk or closed pipe is the caller's error, not a failed check
    try:
        with sink as fh:
            fh.write(_render(report, args.human))
            fh.flush()
    except OSError as exc:
        sys.stderr.write("affine-verma: error: writing the report: %s\n"
                         % exc)
        return 2
    # a dump carries no verdict
    return 0 if report.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
