"""Affine weights, real roots, the shifted Weyl action, and admissibility.

A weight of the affinization is stored as (finite part, level, delta
coefficient): the weight  lambda_bar + level * Lambda_0 + delta_coeff * delta.
A real root alpha + m*delta is stored as (finite root, mode m); its coroot in
epsilon coordinates is the integer vector

    (alpha + m delta)^v  =  2/( alpha, alpha) * (alpha, m)

so pairings of weights with real coroots are exact rationals throughout.

The admissibility check has two parts.  Condition (i) asks that
<lambda + rho, gamma^v> is never a nonpositive integer over positive real
coroots; it is scanned for modes <= mode_bound and completed by a
monotonicity certificate (the pairing is affine-linear in the mode with slope
2(level + dual Coxeter)/(alpha, alpha), so once positive it stays positive).
Condition (ii) asks that the coroots pairing integrally with lambda span the
full rational span of the simple affine coroots; the checker exhibits a
generating set found greedily and reports its rank.  Both conditions read one
walk over the real roots: <rho_hat, gamma^v> is an integer, so gamma pairs
integrally with lambda exactly when it does with lambda + rho_hat.  The greedy
pass keeps each integral coroot, ordered by (mode, rho . v + big * m, label),
that is not yet a nonnegative integer combination of those kept.  big makes
every height positive; a short coroot of type B has mode component 2m, so big
also orders coroots within one mode and the generating set depends on it.
"""

import os
from dataclasses import dataclass, field
from fractions import Fraction

from . import liealg
from . import linalg

DEFAULT_MODE_BOUND = 20
MODE_BOUND_ENV = "AFFINE_VERMA_MODE_BOUND"


def mode_bound_from_env(default=DEFAULT_MODE_BOUND):
    raw = os.environ.get(MODE_BOUND_ENV)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise ValueError("%s must be a positive integer, got %r"
                         % (MODE_BOUND_ENV, raw))
    return value


@dataclass(frozen=True)
class AffineWeight:
    finite: tuple
    level: Fraction
    delta: Fraction

    @staticmethod
    def make(finite, level, delta=0):
        return AffineWeight(tuple(Fraction(c) for c in finite),
                            Fraction(level), Fraction(delta))

    def __add__(self, other):
        return AffineWeight(
            tuple(a + b for a, b in zip(self.finite, other.finite)),
            self.level + other.level, self.delta + other.delta)

    def __sub__(self, other):
        return AffineWeight(
            tuple(a - b for a, b in zip(self.finite, other.finite)),
            self.level - other.level, self.delta - other.delta)

    def scale(self, c):
        c = Fraction(c)
        return AffineWeight(tuple(c * a for a in self.finite),
                            c * self.level, c * self.delta)


@dataclass(frozen=True)
class AffineRoot:
    """Real root alpha + mode * delta; positive iff mode > 0, or mode = 0 and alpha > 0."""
    finite: tuple
    mode: int

    def norm(self):
        return liealg.root_norm(self.finite)

    def coroot_vector(self):
        """Integer vector (2 alpha/(alpha,alpha), 2 mode/(alpha,alpha)) in Z^(l+1)."""
        n = self.norm()
        vec = tuple(Fraction(2 * c, n) for c in self.finite)
        md = Fraction(2 * self.mode, n)
        assert all(v.denominator == 1 for v in vec) and md.denominator == 1
        return tuple(int(v) for v in vec) + (int(md),)

    def as_weight(self):
        return AffineWeight.make(self.finite, 0, self.mode)

    def label(self):
        neg = all(c <= 0 for c in self.finite)
        base = ("-" + liealg.root_label(tuple(-c for c in self.finite))
                if neg else liealg.root_label(self.finite))
        if self.mode == 0:
            return base
        return "%dd%s%s" % (self.mode, "" if base.startswith("-") else "+", base)


def vacuum_weight(l, level):
    """level * Lambda_0."""
    return AffineWeight.make((0,) * l, level, 0)


def rho_hat(alg):
    """Affine Weyl vector: finite rho plus (dual Coxeter) * Lambda_0."""
    return AffineWeight.make(alg.rho(), alg.dual_coxeter, 0)


def pairing(weight, root):
    """<weight, (alpha + m delta)^v> = 2((finite, alpha) + level*m)/(alpha, alpha)."""
    dot = sum(w * a for w, a in zip(weight.finite, root.finite))
    return 2 * (dot + weight.level * root.mode) / Fraction(root.norm())


def reflect_dot(alg, weight, root):
    """Shifted reflection r_gamma . w = w - <w + rho, gamma^v> gamma."""
    p = pairing(weight + rho_hat(alg), root)
    return weight - root.as_weight().scale(p)


def all_finite_roots(alg):
    pos = [tuple(r) for r in alg.positive_roots]
    return pos + [tuple(-c for c in r) for r in pos]


@dataclass
class AdmissibilityReport:
    kind: str
    l: int
    weight: AffineWeight
    mode_bound: int
    admissible: bool
    critical: bool = False
    violations: list = field(default_factory=list)
    max_threshold: int = 0
    certified: bool = False
    generators: list = field(default_factory=list)
    rank: int = 0
    full_rank: int = 0
    simple_pairings: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_obj(self):
        return {
            "type": self.kind,
            "l": self.l,
            "level": str(self.weight.level),
            "mode_bound": self.mode_bound,
            "admissible": self.admissible,
            "critical": self.critical,
            "condition_i": {
                "violations": self.violations,
                "max_positivity_threshold": self.max_threshold,
                "certified_beyond_bound": self.certified,
            },
            "condition_ii": {
                "generators": self.generators,
                "rank": self.rank,
                "required_rank": self.full_rank,
            },
            "simple_pairings": self.simple_pairings,
            "notes": self.notes,
        }


class _GeneratedTester:
    """Decides whether a coroot vector is a nonnegative integer combination
    of the accepted generator vectors.

    Generators with positive mode are tried by a memoized DFS (each
    subtraction strictly lowers the mode), and the mode-zero remainder is
    settled by linalg.solve_exact.  That needs independent mode-zero
    generators, which check_admissible guarantees: it tests every mode-zero
    candidate before any with positive mode, so the mode-zero generators it
    keeps are the simple coroots of the finite integral subsystem
    {alpha^v : <lambda, alpha^v> in Z}, a root system.  Dependent mode-zero
    generators make solve_exact raise ValueError."""

    def __init__(self):
        self.mode_gens = []
        self.zero_gens = []
        self._memo = {}

    def add(self, vec):
        if vec[-1] > 0:
            self.mode_gens.append(vec)
        else:
            self.zero_gens.append(vec)
        self._memo.clear()

    def generated(self, vec):
        return self._mode_search(tuple(vec), 0)

    def _mode_search(self, vec, start):
        if vec[-1] < 0:
            return False
        if vec[-1] == 0:
            return self._zero_cone(vec[:-1])
        key = (vec, start)
        hit = self._memo.get(key)
        if hit is None:
            hit = False
            for gi in range(start, len(self.mode_gens)):
                rem = tuple(a - b for a, b in zip(vec, self.mode_gens[gi]))
                if self._mode_search(rem, gi):
                    hit = True
                    break
            self._memo[key] = hit
        return hit

    def _zero_cone(self, v):
        if not any(v):
            return True
        coords = linalg.solve_exact([g[:-1] for g in self.zero_gens], v)
        if coords is None:
            return False
        return all(c.denominator == 1 and c >= 0 for c in coords)


def check_admissible(alg, weight, mode_bound=None):
    """Kac-Wakimoto admissibility of an affine weight for the given algebra."""
    if mode_bound is None:
        mode_bound = mode_bound_from_env()
    l = alg.l
    rep = AdmissibilityReport(
        kind=alg.kind, l=l, weight=weight, mode_bound=mode_bound,
        admissible=False, full_rank=l + 1)

    shifted = weight + rho_hat(alg)
    slope_base = weight.level + alg.dual_coxeter  # = <weight + rho, c>
    if slope_base == 0:
        rep.critical = True
        rep.notes.append("critical level: level + dual Coxeter = 0; rejected")
        return rep
    if slope_base < 0:
        rep.notes.append(
            "level + dual Coxeter < 0: pairings decrease with the mode, "
            "no finite certificate; rejected")
        return rep
    if weight.level == 0:
        rep.notes.append("level 0 is the degenerate vacuum case; "
                         "trivially admissible, reported for completeness")

    # condition (i): <w + rho, gamma^v> never a nonpositive integer; the
    # integral ones are the candidates of condition (ii)
    max_threshold = 0
    candidates = []
    for root in all_finite_roots(alg):
        n = liealg.root_norm(root)
        q = 2 * sum(s * a for s, a in zip(shifted.finite, root)) / Fraction(n)
        t = 2 * slope_base / Fraction(n)
        # smallest m with q + m t > 0
        thr = 0
        while q + thr * t <= 0:
            thr += 1
        max_threshold = max(max_threshold, thr)
        start = 0 if root in alg.positive_roots else 1
        for m in range(start, mode_bound + 1):
            p = q + m * t
            if p.denominator == 1:
                candidates.append(AffineRoot(root, m))
                if p <= 0:
                    rep.violations.append(
                        {"root": candidates[-1].label(), "pairing": str(p)})
    rep.max_threshold = max_threshold
    rep.certified = max_threshold <= mode_bound
    if not rep.certified:
        rep.notes.append(
            "mode bound %d below positivity threshold %d; raise %s"
            % (mode_bound, max_threshold, MODE_BOUND_ENV))

    # condition (ii): integer-pairing coroots span the full rational span
    vecs = {root: root.coroot_vector() for root in candidates}
    rho_f = alg.rho()
    big = 1
    for vec in vecs.values():
        if vec[-1] > 0:
            h_fin = sum(r * v for r, v in zip(rho_f, vec[:-1]))
            big = max(big, int((-h_fin) / vec[-1] + 1) + 1)

    def order(root):
        vec = vecs[root]
        height = sum(r * v for r, v in zip(rho_f, vec[:-1])) + big * vec[-1]
        return root.mode, height, root.label()

    tester = _GeneratedTester()
    accepted = []
    for root in sorted(candidates, key=order):
        if not tester.generated(vecs[root]):
            tester.add(vecs[root])
            accepted.append(root)
    rep.generators = [
        {"finite": list(r.finite), "mode": r.mode, "label": r.label()}
        for r in accepted
    ]
    rep.rank = linalg.rank(vecs[r] for r in accepted)

    for i, a in enumerate(alg.simple_roots, start=1):
        rep.simple_pairings["alpha_%d" % i] = str(pairing(shifted, AffineRoot(a, 0)))
    theta = AffineRoot(tuple(-c for c in alg.theta), 1)
    rep.simple_pairings["alpha_0"] = str(pairing(shifted, theta))
    reflection = AffineRoot(tuple(-c for c in alg.theta), 2)
    rep.simple_pairings["two_delta_minus_theta"] = str(pairing(shifted, reflection))

    rep.admissible = (not rep.violations) and rep.certified and rep.rank == l + 1
    return rep


def report(l, kind="D", mode_bound=None):
    """Admissibility verdict for the vacuum weight at level -l + 3/2."""
    alg = liealg.algebra(kind, l)
    weight = vacuum_weight(l, Fraction(3 - 2 * l, 2))
    rep = check_admissible(alg, weight, mode_bound)
    obj = rep.to_obj()
    obj["check"] = "admissible"
    obj["passed"] = obj["admissible"]
    return obj
