"""Affine weights, real roots, the shifted Weyl action, and admissibility.

A weight lambda_bar + level * Lambda_0 + delta_coeff * delta is the record
(finite part, level, delta coefficient) of Fractions.  A real root
alpha + m*delta is stored as (finite root, mode m); its coroot in epsilon
coordinates is the integer vector

    (alpha + m delta)^v  =  2/( alpha, alpha) * (alpha, m)

The admissibility check has two parts.  Condition (i) asks that
<lambda + rho, gamma^v> is never a nonpositive integer over positive real
coroots.  For the vacuum weight, with level + dual Coxeter = a/b > 0, it is
(P + m A)/N with the ints P = b (2 rho, alpha), N = b (alpha, alpha) and
A = 2a: it grows with the mode m and is integral on one residue class of
modes, so each finite root is decided in closed form, and the bound
certifies the rest once it reaches every root's first positive mode.
Condition (ii) asks that the coroots pairing integrally with lambda span the
full rational span of the simple affine coroots; the checker exhibits a
generating set found greedily and reports its rank.  Both conditions read one
walk over the real roots: <rho_hat, gamma^v> is an integer, so gamma pairs
integrally with lambda exactly when it does with lambda + rho_hat.  The greedy
pass visits the integral coroots by (mode, rho . v + big * m, label) up to
rank l + 1, keeping each outside the nonnegative integer cone of those kept.
big makes every height positive and, as a short coroot of type B has mode
component 2m, orders coroots within one mode: the kept set depends on it.

The cone test needs no search.  The checker takes the vacuum weight
level * Lambda_0 of a simple algebra (D_2 = A1 x A1 is refused).  Write
level = p/u: the integral real coroots are the long ones at modes in uZ
and, in type B, the short ones at modes in (u/gcd(u, 2))Z.  By Kac-Wakimoto
(PNAS 1988) they form one irreducible affine root system, and the pass keeps
its simple coroots.  These are independent, and each coroot of the system is
a nonnegative integer combination of them, so one incremental integer basis
(_Basis) holds them all: a coroot is generated when its unique coordinates
are nonnegative integers, and the rank is the number kept.  Past rank l + 1
the coordinates of the coroots of one finite root are affine in the mode,
which runs over a progression: the first, the last and the step decide them
all, one reduction per root whatever the bound.  Heights are taken against
2 rho, so the walk and the cone test are on int; the report's simple
pairings are the quotients (P + m A)/N, reduced.  check_admissible returns
the report of `verify admissible` as a plain dict, less its check and
passed keys.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd

from . import liealg
from . import linalg
from . import verma

DEFAULT_MODE_BOUND = 20
# read by the CLI alone; a report names it when the bound is too low
MODE_BOUND_ENV = "AFFINE_VERMA_MODE_BOUND"


AffineWeight = namedtuple("AffineWeight", "finite level delta")


class AffineRoot(namedtuple("AffineRoot", "finite mode")):
    """Real root alpha + mode * delta; positive iff mode > 0, or mode = 0 and alpha > 0."""
    __slots__ = ()

    def coroot_vector(self):
        """Integer vector (2 alpha/(alpha,alpha), 2 mode/(alpha,alpha)) in Z^(l+1)."""
        return liealg.coroot_ints(self.finite + (self.mode,),
                                  liealg.root_norm(self.finite))

    def label(self):
        neg = all(c <= 0 for c in self.finite)
        base = ("-" + liealg.root_label(tuple(-c for c in self.finite))
                if neg else liealg.root_label(self.finite))
        if self.mode == 0:
            return base
        return "%dd%s%s" % (self.mode, "" if base.startswith("-") else "+", base)


def vacuum_weight(l, level):
    """level * Lambda_0; TypeError for a level that is no int or Fraction."""
    return AffineWeight((Fraction(0),) * l, verma.exact_level(level),
                        Fraction(0))


def pairing(weight, root):
    """<weight, (alpha + m delta)^v> = 2((finite, alpha) + level*m)/(alpha, alpha)."""
    dot = sum(w * a for w, a in zip(weight.finite, root.finite))
    return (2 * (dot + weight.level * root.mode)
            / liealg.root_norm(root.finite))


def reflect_dot(alg, weight, root):
    """Shifted reflection r_gamma . w = w - <w + rho, gamma^v> gamma."""
    p = pairing(AffineWeight(
        tuple(w + r for w, r in zip(weight.finite, alg.rho())),
        weight.level + alg.dual_coxeter, weight.delta), root)
    return AffineWeight(
        tuple(w - p * a for w, a in zip(weight.finite, root.finite)),
        weight.level, weight.delta - p * root.mode)


class _Basis:
    """Independent integer vectors in Z^d and their nonnegative integer cone.

    Generator k is kept in a linalg.Echelon as its vector plus a 1 in
    tracking column d + k; a query enters the same way, its marker 1 in the
    next tracking column.  A column below d left after reduction puts it
    outside the span; otherwise the row reads  c * query = sum_k x_k g_k
    with c > 0 in the marker column and -x_k in column d + k."""

    def __init__(self, d):
        self.d = d
        self.vecs = []
        self._ech = linalg.Echelon()

    def _reduce(self, vec):
        row = dict(enumerate(vec))
        row[self.d + len(self.vecs)] = 1
        return self._ech.reduce(row)

    def coordinates(self, vec):
        """Ints (x, c) with c * vec = sum_k x[k] g_k; None off the span."""
        row = self._reduce(vec)
        c = row.pop(self.d + len(self.vecs))
        if min(row, default=self.d) >= self.d:
            return [-row.get(self.d + k, 0) for k in range(len(self.vecs))], c

    def generated(self, vec):
        x = self.coordinates(vec)
        return x is not None and all(t >= 0 and t % x[1] == 0 for t in x[0])

    def add(self, vec):
        """Append a generator; ValueError if it is in the span already."""
        row = self._reduce(vec)
        if min(row) >= self.d:
            raise ValueError("%r depends on the generators" % (vec,))
        self._ech.add(row)
        self.vecs.append(vec)


def _progression_gap(first, unit, step, far):
    """A j in 0..far with X_j = first + j * step * unit not a nonnegative
    integer vector, else None; first and unit are _Basis.coordinates.  X_j
    is affine in j: X_0, the step (when far > 0) and X_far decide all."""
    (x, c), (y, d) = first, unit
    if any(a < 0 or a % c for a in x):
        return 0
    if far and any(step * b % d for b in y):
        return 1
    if any(a * d + far * step * b * c < 0 for a, b in zip(x, y)):
        return far


def check_admissible(alg, level, mode_bound=DEFAULT_MODE_BOUND):
    """Kac-Wakimoto admissibility of the vacuum weight level * Lambda_0,
    as the `verify admissible` report without its check and passed keys.
    ValueError for D_2, the one algebra built that is not simple;
    TypeError for a level that is no int or Fraction."""
    l = alg.l
    if (alg.kind, l) == ("D", 2):
        raise ValueError("D_2 = A1 x A1 is not simple")
    level = verma.exact_level(level)
    slope = level + alg.dual_coxeter  # = <level Lambda_0 + rho_hat, c>
    cond_i = {"violations": [], "max_positivity_threshold": 0,
              "certified_beyond_bound": False}
    cond_ii = {"generators": [], "rank": 0, "required_rank": l + 1}
    rep = {"type": alg.kind, "l": l, "level": str(level),
           "mode_bound": mode_bound, "admissible": False,
           "critical": slope == 0, "condition_i": cond_i,
           "condition_ii": cond_ii, "simple_pairings": {}, "notes": []}
    notes = rep["notes"]
    if slope == 0:
        notes.append("critical level: level + dual Coxeter = 0; rejected")
        return rep
    if slope < 0:
        notes.append(
            "level + dual Coxeter < 0: pairings decrease with the mode, "
            "no finite certificate; rejected")
        return rep
    if level == 0:
        notes.append("level 0 is the degenerate vacuum case; "
                     "trivially admissible, reported for completeness")

    # condition (i): the pairing (P + m A) / N of the module docstring, with
    # slope = a/b; the integral pairings are the candidates of condition (ii)
    rho2 = [int(2 * c) for c in alg.rho()]
    A, b = 2 * slope.numerator, slope.denominator

    def ints(alpha, m=0):  # the pairing (P + m A) / N, as two ints
        return (b * sum(r * a for r, a in zip(rho2, alpha)) + m * A,
                b * liealg.root_norm(alpha))

    threshold = 0
    progressions = []  # (finite root, norm, range of its integral modes)
    # the positive roots come first, and only they start at mode 0
    for k, root in enumerate(alg.weights[:2 * alg.npos]):
        P, N = ints(root)
        t = (-P) // A + 1  # the first mode with P + m A > 0
        threshold = max(threshold, t)
        # integral on one residue class modulo step, if on any
        step = N // gcd(A, N)
        start = int(k >= alg.npos)
        window = range(start, min(start + step, mode_bound + 1))
        first = next((m for m in window if (P + m * A) % N == 0), None)
        if first is None:
            continue
        for m in range(first, min(t, mode_bound + 1), step):
            cond_i["violations"].append(
                {"root": AffineRoot(root, m).label(),
                 "pairing": str((P + m * A) // N)})
        progressions.append((root, N // b, range(first, mode_bound + 1, step)))
    certified = threshold <= mode_bound
    cond_i.update(max_positivity_threshold=threshold,
                  certified_beyond_bound=certified)
    if not certified:
        notes.append(
            "mode bound %d below positivity threshold %d; raise %s"
            % (mode_bound, threshold, MODE_BOUND_ENV))

    # condition (ii), heights doubled: big = max(1, floor(1 - rho . alpha / m)
    # + 1) over integral (alpha, m > 0); most at the first mode of an alpha < 0
    big = 1
    for root, n, modes in progressions:
        if modes[0]:
            num = 2 * modes[0] - sum(r * a for r, a in zip(rho2, root))
            big = max(big, num // (2 * modes[0]) + 1)

    def order(root):
        vec = root.coroot_vector()
        height = sum(r * v for r, v in zip(rho2, vec)) + 2 * big * vec[-1]
        return height, root.label()

    basis = _Basis(l + 1)
    for mode in range(mode_bound + 1):  # the greedy pass, to rank l + 1
        if len(basis.vecs) > l:
            break
        for root in sorted((AffineRoot(alpha, mode) for alpha, _, modes
                            in progressions if mode in modes), key=order):
            vec = root.coroot_vector()
            if len(basis.vecs) <= l and not basis.generated(vec):
                basis.add(vec)
                cond_ii["generators"].append(
                    {"finite": list(root.finite), "mode": root.mode,
                     "label": root.label()})
    cond_ii["rank"] = rank = len(basis.vecs)

    # at full rank every integral coroot must be generated, as add demands:
    # X(m) = X(first) + (m - first)(2/n) X(e), e the unit vector of the mode
    if rank == l + 1:
        unit = basis.coordinates((0,) * l + (1,))
        for root, n, modes in progressions:
            first = AffineRoot(root, modes[0]).coroot_vector()
            j = _progression_gap(basis.coordinates(first), unit,
                                 2 * modes.step // n,
                                 (modes[-1] - modes[0]) // modes.step)
            if j is not None:  # in the span, not in the cone: add raises
                basis.add(AffineRoot(root, modes[j]).coroot_vector())

    pairs = rep["simple_pairings"]
    for i, a in enumerate(alg.simple_roots, start=1):
        pairs["alpha_%d" % i] = str(Fraction(*ints(a)))
    theta = tuple(-c for c in alg.theta)
    pairs["alpha_0"] = str(Fraction(*ints(theta, 1)))
    pairs["two_delta_minus_theta"] = str(Fraction(*ints(theta, 2)))

    rep["admissible"] = certified and rank == l + 1 and not cond_i["violations"]
    return rep


def report(l, kind="D", mode_bound=DEFAULT_MODE_BOUND):
    """Admissibility verdict for the vacuum weight at level -l + 3/2."""
    rep = check_admissible(liealg.algebra(kind, l), verma.special_level(l),
                           mode_bound)
    rep["check"] = "admissible"
    rep["passed"] = rep["admissible"]
    return rep
