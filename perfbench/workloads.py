"""The benchmark's workloads and the golden gate every pass goes through.

A pass is one timed unit of user-visible work: the CLI's `verify all`
through `cli.run_all`, or a list of `cli.run_check` calls, each followed by
`cli.to_json` as the CLI emits it.  After the clock stops, every report's
canonical text is compared with the digest recorded in golden.json.
"""

import hashlib
import json
import random
from pathlib import Path
from time import perf_counter

from affine_verma import cli, liealg, verma

from probe import BoundaryError

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# the canonical text of a report, bound before any probe wraps cli.to_json
canonical = cli.to_json

POOL_JOBS = 2
FULL_RANKS = range(4, 8)
ORACLE_RANKS = (4, 5, 6)
SMOKE_RANKS = range(4, 5)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_key(check, kind, l, strict=False):
    return "%s%s:%s:%d" % (check, "-strict" if strict else "", kind or "-", l)


def range_key(ranks):
    return "%d..%d" % (ranks[0], ranks[-1])


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def clear_caches():
    liealg.algebra.cache_clear()
    verma.vacuum_module.cache_clear()


class Pass:
    """What one pass did: its wall time, reports, per-check records and
    (golden key, seconds) of every check that returned."""

    def __init__(self, wall, reports, records, failed, checks=()):
        self.wall = wall
        self.reports = reports
        self.records = records
        self.failed = failed
        self.checks = checks
        self.spans = None  # span totals, for a traced pass

    @property
    def attempted(self):
        return len(self.reports)


class VerifyAll:
    """`verify all --l-range 4..7 --jobs N` with cold caches on every pass."""

    has_setup = False

    def __init__(self, golden, ranks, jobs):
        self.golden = golden
        self.ranks = ranks
        self.jobs = jobs

    def run_pass(self):
        clear_caches()
        t0 = perf_counter()
        try:
            report = cli.run_all(self.ranks, self.jobs)
            text = cli.to_json(report)
        except BoundaryError:
            raise
        except Exception:
            failed = self.golden["all"][range_key(self.ranks)]["checks"]
            return Pass(perf_counter() - t0, [None] * failed, [], failed)
        wall = perf_counter() - t0
        reports = report["reports"]
        keys = [check_key(s["check"], s["type"], s["l"])
                for s in report["summary"]]
        ok = [_matches(self.golden, k, r) for k, r in zip(keys, reports)]
        if digest(text) != self.golden["all"][range_key(self.ranks)]["digest"]:
            ok = [False] * len(reports)
        return Pass(wall, reports, [r.bench for r in reports],
                    ok.count(False),
                    [(k, r.bench["elapsed"]) for k, r in zip(keys, reports)])


class CheckList:
    """A list of single checks, as `verify <check> ...` runs them.

    With cold=True every pass starts from empty caches (the oracle); else
    the caches stay warm and each pass runs the checks in a new order drawn
    from the seed (warm-recheck), after a set-up that builds the algebras
    and runs one priming pass.
    """

    jobs = 1

    def __init__(self, golden, specs, strict, cold, seed, build_ranks=()):
        self.golden = golden
        self.specs = list(specs)
        self.strict = strict
        self.cold = cold
        self.has_setup = not cold
        self.rng = random.Random(seed)
        self.build_ranks = build_ranks

    def setup(self):
        """Build the algebras and run the priming pass, which is returned."""
        clear_caches()
        for l in self.build_ranks:
            liealg.algebra("B", l)
            liealg.algebra("D", l)
        return self._checks(self.specs)

    def run_pass(self):
        if self.cold:
            clear_caches()
            order = self.specs
        else:
            order = list(self.specs)
            self.rng.shuffle(order)
        return self._checks(order)

    def _checks(self, specs):
        reports = []
        t0 = perf_counter()
        for check, kind, l in specs:
            try:
                report = cli.run_check(check, kind, l, strict=self.strict)
                cli.to_json(report)
            except BoundaryError:
                raise
            except Exception:
                report = None
            reports.append(report)
        wall = perf_counter() - t0
        # reports carry their own type (appendix and triality say D)
        done = [(check_key(c, r.get("type"), l, self.strict), r)
                for (c, _, l), r in zip(specs, reports) if r is not None]
        ok = [_matches(self.golden, k, r) for k, r in done]
        return Pass(wall, reports, [r.bench for _, r in done],
                    len(specs) - ok.count(True),
                    [(k, r.bench["elapsed"]) for k, r in done])


def _matches(golden, key, report):
    return (report is not None and report.get("passed") is True
            and golden["reports"].get(key) == digest(canonical(report)))


def warm_specs(ranks):
    specs = [(check, kind, l) for l in ranks
             for check, kind in (("singular", "B"), ("singular", "D"),
                                 ("embedding", None), ("conformal", None),
                                 ("appendix", None))]
    if 4 in ranks:
        specs.append(("triality", None, 4))
    return specs


def make(name, seed, smoke):
    """The workload called `name`; smoke runs it at rank 4 only."""
    golden = load_golden()
    ranks = SMOKE_RANKS if smoke else FULL_RANKS
    if name == "verify-all":
        return VerifyAll(golden, ranks, 1)
    if name == "verify-all-pool":
        return VerifyAll(golden, ranks, POOL_JOBS)
    if name == "oracle":
        specs = [("singular", kind, l) for kind in "BD"
                 for l in (ranks if smoke else ORACLE_RANKS)]
        return CheckList(golden, specs, strict=True, cold=True, seed=seed)
    if name == "warm-recheck":
        return CheckList(golden, warm_specs(ranks), strict=False, cold=False,
                         seed=seed, build_ranks=ranks)
    raise ValueError("unknown workload %r" % (name,))


WORKLOADS = ("verify-all", "verify-all-pool", "oracle", "warm-recheck")
