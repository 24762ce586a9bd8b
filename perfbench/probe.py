"""Wrappers around the public boundaries of each affine_verma layer.

The benchmark drives the package from outside: a Probe replaces named
functions and methods by attribute replacement and puts the originals back
on removal, so nothing under src/ changes.  Two modes share one table of
boundaries:

* counting (every run): only the few boundaries that carry a hook are
  wrapped.  They time each check, record which algebras and modules were
  built, and count enumerated candidates and nullspace rows and rank.  Each
  is called a handful of times per check, so they cost nothing measurable.
* tracing (--trace 1): every boundary is wrapped and records a span (group,
  parent span, start, end) into flat arrays kept in memory.  Spans are
  recursion-safe: they nest on an explicit stack, and a group's inclusive
  time only counts spans that have no open ancestor of the same group.

Per-check results travel back from `cli.run_check` as a dict subclass that
carries a `bench` attribute.  The pickled reports of pool workers take the
same route, so forked workers report their timings, counts and span totals
to the parent without touching the package's own output.
"""

import importlib
import os
import resource
import weakref
from array import array
from time import perf_counter

_STATE_ARITH = ("__add__", "__radd__", "__sub__", "__neg__", "__mul__",
                "__rmul__")

# (layer, span group, "module[:Class]", attribute).  Every entry must
# resolve; BoundaryError names the first one that does not.
BOUNDARIES = (
    ("cli", "cli.run_all", "affine_verma.cli", "run_all"),
    ("cli", "cli.run_check", "affine_verma.cli", "run_check"),
    ("cli", "cli.to_json", "affine_verma.cli", "to_json"),
    ("liealg", "liealg.build", "affine_verma.liealg:LieAlgebra", "__init__"),
    ("verma", "verma.module", "affine_verma.verma:VermaModule", "__init__"),
    ("verma", "verma.apply", "affine_verma.verma:VermaModule", "apply"),
    ("verma", "verma.act", "affine_verma.verma:VermaModule", "act"),
    ("verma", "verma.build", "affine_verma.verma:VermaModule", "build"),
) + tuple(
    ("verma", "verma.state_arith", "affine_verma.verma:PBWState", op)
    for op in _STATE_ARITH
) + (
    ("singular", "singular.report", "affine_verma.singular", "report"),
    ("singular", "singular.vector", "affine_verma.singular",
     "singular_vector"),
    ("singular", "singular.check", "affine_verma.singular",
     "check_singular"),
    ("singular", "singular.enumerate", "affine_verma.singular",
     "enumerate_monomials"),
    ("singular", "singular.solve", "affine_verma.singular",
     "solve_singular_space"),
    ("linalg", "linalg.nullspace", "affine_verma.linalg", "nullspace"),
    ("linalg", "linalg.echelon_add", "affine_verma.linalg:Echelon", "add"),
    ("linalg", "linalg.solve_exact", "affine_verma.linalg", "solve_exact"),
    ("weights", "weights.report", "affine_verma.weights", "report"),
    ("weights", "weights.admissible", "affine_verma.weights",
     "check_admissible"),
    ("embedding", "embedding.report", "affine_verma.embedding", "report"),
    ("embedding", "embedding.embed_state", "affine_verma.embedding",
     "embed_state"),
    ("conformal", "conformal.report", "affine_verma.conformal", "report"),
    ("conformal", "conformal.sugawara_vector", "affine_verma.conformal",
     "sugawara_vector"),
    ("zero_modes", "zero_modes.report", "affine_verma.zero_modes", "report"),
    ("triality", "triality.report", "affine_verma.triality", "report"),
)

LAYERS = ("cli", "liealg", "verma", "singular", "linalg", "weights",
          "embedding", "conformal", "zero_modes", "triality")

GROUPS = tuple(dict.fromkeys(b[1] for b in BOUNDARIES))
GROUP_LAYER = {b[1]: b[0] for b in BOUNDARIES}


class BoundaryError(RuntimeError):
    """A named boundary or counted attribute is missing from the package."""


class Report(dict):
    """A check report as cli.run_check returned it, plus a `bench` record.

    json.dumps renders it exactly like the plain dict, and pickling keeps
    the attribute, so pool workers can hand their record to the parent.
    """


def _resolve(target, attr):
    modname, _, clsname = target.partition(":")
    owner = importlib.import_module(modname)
    if clsname:
        owner = getattr(owner, clsname, None)
    if owner is None or not callable(owner.__dict__.get(attr)):
        raise BoundaryError("boundary %s.%s is missing or renamed"
                            % (target.replace(":", "."), attr))
    return owner


def memo_size(module):
    """Entries in a VermaModule's straightening memo."""
    memo = getattr(module, "_memo", None)
    if not isinstance(memo, dict):
        raise BoundaryError("VermaModule._memo is missing or not a dict")
    return len(memo)


def table_cells(alg):
    """Cells the bracket table of a LieAlgebra stores."""
    table = getattr(alg, "_brackets", None)
    if isinstance(table, dict):
        return len(table)
    if isinstance(table, list):
        return sum(len(row) for row in table)
    raise BoundaryError("LieAlgebra._brackets is missing or of unknown shape")


def _new_counts():
    return {"candidates": 0, "nullspace_rows": 0, "nullspace_rank": 0}


# the boundaries wrapped in every run, tracing or not
COUNTED = ("cli.run_check", "liealg.build", "verma.module",
           "singular.enumerate", "linalg.nullspace")


class Probe:
    """Installs boundary wrappers and collects what they record.

    The collected state (counts, built algebras, live modules) outlives any
    one installation, so untraced and traced passes can alternate.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.tracing = False
        self._installed = []
        self._hooks = {
            "liealg.build": self._algebra_built,
            "verma.module": self._module_built,
            "singular.enumerate": self._enumerated,
            "linalg.nullspace": self._nullspace,
        }
        self.counts = _new_counts()
        self.built = set()
        self.modules = weakref.WeakSet()
        self._span_pid = self.pid
        self.reset_spans()

    # ---- installation -----------------------------------------------------

    def install(self, tracing):
        """Wrap the counted boundaries, and every boundary when tracing."""
        if self._installed:
            raise RuntimeError("probe is already installed")
        # resolve everything first so a missing boundary leaves nothing
        # half wrapped
        chosen = [(b, _resolve(b[2], b[3])) for b in BOUNDARIES
                  if tracing or b[1] in COUNTED]
        self.tracing = tracing
        for (_, group, _, attr), owner in chosen:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(group, original))
            self._installed.append((owner, attr, original))

    def remove(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, group, fn):
        if group == "cli.run_check":
            return self._check_wrapper(fn)
        hook = self._hooks.get(group)
        if not self.tracing:
            def counted(*args, **kwargs):
                return hook(fn, *args, **kwargs)
            return counted
        gid = GROUPS.index(group)
        enter, leave = self._enter, self._leave
        if hook is None:
            def spanned(*args, **kwargs):
                i = enter(gid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(i, gid)
            return spanned

        def spanned_hook(*args, **kwargs):
            i = enter(gid)
            try:
                return hook(fn, *args, **kwargs)
            finally:
                leave(i, gid)
        return spanned_hook

    def _check_wrapper(self, fn):
        """Time one check and attach its record to the returned report.

        In a pool worker the record also carries the worker's span totals,
        since its spans never reach the parent's arrays.
        """
        tracing = self.tracing
        gid = GROUPS.index("cli.run_check")

        def run_check(*args, **kwargs):
            pid = os.getpid()
            worker = pid != self.pid
            if worker and tracing and self._span_pid != pid:
                # a forked worker starts with a copy of the parent's spans
                self.reset_spans()
                self._span_pid = pid
            i = self._enter(gid) if tracing else None
            t0 = perf_counter()
            try:
                report = Report(fn(*args, **kwargs))
            finally:
                elapsed = perf_counter() - t0
                if tracing:
                    self._leave(i, gid)
            report.bench = dict(self.take_counts(), elapsed=elapsed, pid=pid,
                                rss_kb=_rss_kb(), spans=None)
            if worker and tracing:
                report.bench["spans"] = self.span_totals()
                self.reset_spans()
            return report
        return run_check

    # ---- spans ------------------------------------------------------------

    def reset_spans(self):
        self.span_gid = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._depth = [0] * len(GROUPS)

    def _enter(self, gid):
        i = len(self.span_start)
        stack = self._stack
        self.span_gid.append(gid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_outer.append(self._depth[gid] == 0)
        self._depth[gid] += 1
        stack.append(i)
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())
        return i

    def _leave(self, i, gid):
        self.span_end[i] = perf_counter()
        self._stack.pop()
        self._depth[gid] -= 1

    def span_totals(self):
        """{group: [calls, inclusive seconds, self seconds]} of closed spans.

        Inclusive time counts only spans with no open ancestor of the same
        group; self time is a span's duration minus its children's.
        """
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.span_parent
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        totals = {}
        for i in range(n):
            entry = totals.setdefault(GROUPS[self.span_gid[i]], [0, 0.0, 0.0])
            entry[0] += 1
            if self.span_outer[i]:
                entry[1] += dur[i]
            entry[2] += dur[i] - child[i]
        return totals

    def spans(self):
        """The recorded spans as (group, parent index, start, end) rows."""
        return [(GROUPS[g], p, s, e) for g, p, s, e in zip(
            self.span_gid, self.span_parent, self.span_start, self.span_end)]

    # ---- hooks ------------------------------------------------------------

    def take_counts(self):
        """Counts and builds since the last call, plus current memo sizes."""
        pid = os.getpid()
        record = {
            "counts": self.counts,
            "built": sorted(self.built),
            "memo": {(pid, m.alg.kind, m.alg.l, str(m.level)): memo_size(m)
                     for m in list(self.modules)},
        }
        self.counts = _new_counts()
        self.built = set()
        return record

    def _algebra_built(self, fn, alg, *args, **kwargs):
        fn(alg, *args, **kwargs)
        self.built.add((alg.kind, alg.l))

    def _module_built(self, fn, module, *args, **kwargs):
        fn(module, *args, **kwargs)
        self.modules.add(module)

    def _enumerated(self, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        self.counts["candidates"] += len(out)
        return out

    def _nullspace(self, fn, rows, ncols):
        rows = list(rows)
        basis = fn(rows, ncols)
        self.counts["nullspace_rows"] += sum(1 for r in rows if r)
        self.counts["nullspace_rank"] += ncols - len(basis)
        return basis


def _rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
