"""Shared exact property drivers for the unit and acceptance suites.

Everything here returns a list of violations (empty means the property
holds); callers assert emptiness so failures show the offending cases.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

import clifford
from affine_verma import liealg, linalg, verma, weights


def code(alg, factors):
    """verma's int factor for a (mode, index) pair, or the tuple of them for
    a sequence of pairs (a monomial).  Tests and references write factors as
    pairs and convert here, where they meet the package."""
    if len(factors) == 2 and type(factors[0]) is int:
        return verma.encode(alg, *factors)
    return tuple(code(alg, f) for f in factors)


def leaf_filtered_monomials(alg, degree):
    """Reference for singular.enumerate_monomials: the unpruned walk.

    Visits every canonical monomial of the degree in the same order and
    returns (monomial, weight) pairs, so callers filter by weight at the
    leaves; monomials are tuples of (mode, index) pairs.
    """
    dim = alg.dim
    weights = [alg.weights[x] for x in range(dim)]
    zero = (0,) * alg.l
    out = []
    mono = []

    def rec(remaining, floor, acc):
        if remaining == 0:
            out.append((tuple(mono), acc))
            return
        for n in range(-remaining, 0):
            for x in range(dim):
                entry = (n, x)
                if entry < floor:
                    continue
                mono.append(entry)
                wx = weights[x]
                rec(remaining + n, entry,
                    acc if wx == zero else tuple(a + b for a, b in zip(acc, wx)))
                mono.pop()

    rec(degree, (-degree, 0), zero)
    return out


def reference_enumerate_monomials(alg, degree, weight):
    """Reference for singular.enumerate_monomials: the pruned walk it
    replaced, which tests every basis index against the norm bound at each
    interior node, with the same exact test and output order, in monomials
    of (mode, index) pairs."""
    dim = alg.dim
    weights = [alg.weights[x] for x in range(dim)]
    by_weight = {}
    for x, w in enumerate(weights):
        by_weight.setdefault(w, []).append(x)
    support = [[(i, c) for i, c in enumerate(w) if c] for w in weights]
    res = list(weight)
    out = [] if degree or any(res) else [()]
    mono = []

    def rec(remaining, floor, norm):
        for n in range(max(floor[0], -remaining), 0):
            left = remaining + n
            low = floor[1] if n == floor[0] else 0
            if not left:
                out.extend(tuple(mono) + ((n, x),)
                           for x in by_weight.get(tuple(res), ()) if x >= low)
                continue
            for x in range(low, dim):
                after = norm
                for i, c in support[x]:
                    after += abs(res[i] - c) - abs(res[i])
                if after > 2 * left:
                    continue
                for i, c in support[x]:
                    res[i] -= c
                mono.append((n, x))
                rec(left, (n, x), after)
                mono.pop()
                for i, c in support[x]:
                    res[i] += c

    rec(degree, (-degree, 0), sum(map(abs, res)))
    return out


def reference_apply_mono(module, factor, mono, memo):
    """Reference for VermaModule._apply_mono: the straightening kernel over
    Fraction, exact at every mode (no level.denominator scaling), memoized
    in memo rather than in the module, on (mode, index) pairs.  It peels
    the first factor, x(n) y(m) rest = y(m) x(n) rest + [x(n), y(m)] rest,
    with no shortcut, so it shares no path with the kernel's Leibniz sum."""
    key = (factor, mono)
    hit = memo.get(key)
    if hit is not None:
        return hit
    n, x = factor
    if n < 0 and (not mono or factor <= mono[0]):
        result = (((factor,) + mono, Fraction(1)),)
    elif not mono:
        result = ()
    else:
        m, y = mono[0]
        rest = mono[1:]
        acc = {}
        for mono1, c1 in reference_apply_mono(module, factor, rest, memo):
            for mono2, c2 in reference_apply_mono(module, mono[0], mono1,
                                                  memo):
                acc[mono2] = acc.get(mono2, Fraction(0)) + c1 * c2
        for z, cz in module.alg.bracket(x, y):
            for mono1, c1 in reference_apply_mono(module, (n + m, z), rest,
                                                  memo):
                acc[mono1] = acc.get(mono1, Fraction(0)) + cz * c1
        if n > 0 and n + m == 0:
            cf = module.alg.form(x, y)
            if cf:
                acc[rest] = acc.get(rest, Fraction(0)) + n * cf * module.level
        result = tuple((mo, c) for mo, c in acc.items() if c)
    memo[key] = result
    return result


def terms_of(alg, word):
    """A word [(coeff, (factor, ...)), ...] of (mode, index) factors as the
    terms VermaModule.act takes: each factor its own position, one pair
    with multiplier 1."""
    return [(c, tuple(((code(alg, f), 1),) for f in factors))
            for c, factors in word]


def multiply_out(alg, terms):
    """The word of terms [(coeff, (position, ...)), ...], for reference_act:
    one word term per choice of a pair at each position, its coeff times
    the chosen multipliers, each factor a (mode, index) pair."""
    word = []
    for coeff, positions in terms:
        for choice in product(*positions):
            c = Fraction(coeff)
            for _, m in choice:
                c *= m
            word.append((c, [verma.decode(alg, f) for f, _ in choice]))
    return word


def reference_act(module, word, state, memo):
    """Reference for VermaModule.act: factor by factor in Fraction, on a
    word of (mode, index) factors."""
    return module.state(reference_act_terms(module, word, state, memo))


def reference_act_terms(module, word, state, memo):
    """reference_act as a {monomial: Fraction} dict; state is a PBWState
    or a FractionState.  Monomials are read and written in verma's factors
    and straightened in (mode, index) pairs."""
    alg = module.alg
    start = {tuple(verma.decode(alg, f) for f in mono): c
             for mono, c in state.terms.items()}
    out = {}
    for coeff, factors in word:
        cur = start
        for factor in reversed(factors):
            nxt = {}
            for mono, c in cur.items():
                for mono1, c1 in reference_apply_mono(module, factor, mono,
                                                      memo):
                    nxt[mono1] = nxt.get(mono1, Fraction(0)) + c * c1
            cur = {mono: c for mono, c in nxt.items() if c}
        for mono, c in cur.items():
            mono = code(alg, mono)
            out[mono] = out.get(mono, Fraction(0)) + Fraction(coeff) * c
    return out


class FractionState:
    """Reference for PBWState arithmetic: {canonical monomial: Fraction},
    one Fraction per coefficient and no common denominator."""

    def __init__(self, terms):
        self.terms = {m: Fraction(c) for m, c in terms.items() if c}

    def __eq__(self, other):
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return FractionState(out)

    def __neg__(self):
        return FractionState({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return FractionState({m: Fraction(scalar) * c
                              for m, c in self.terms.items()})

    __rmul__ = __mul__

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), Fraction(0))

    def multiple_of(self, other):
        if not other.terms:
            return None
        mono = min(other.terms)
        s = self.coefficient(mono) / other.terms[mono]
        return s if self == s * other else None


@lru_cache(maxsize=None)
def clifford_algebra(l):
    """One shared CliffordAlgebra per rank; elements compare only within one."""
    return clifford.CliffordAlgebra(l)


def realize(alg, role, datum):
    """Twice the basis element, 2 :xy: = xy - yx, with int coefficients."""
    A = clifford_algebra(alg.l)
    if role == "h":
        return A.a(datum).commutator(A.a_star(datum))
    pos = [i + 1 for i, c in enumerate(datum) if c == 1]
    neg = [i + 1 for i, c in enumerate(datum) if c == -1]
    if len(pos) == 1 and len(neg) == 1:
        i, j = pos[0], neg[0]
        if role == "e":
            return A.a(i).commutator(A.a_star(j))
        return A.a(j).commutator(A.a_star(i))
    if len(pos) == 2:
        i, j = pos
        if role == "e":
            return A.a(i).commutator(A.a(j))
        return A.a_star(j).commutator(A.a_star(i))
    (i,) = pos
    if alg.kind != "B":
        raise ValueError("short roots only exist in type B")
    return 2 * (A.a(i) if role == "e" else A.a_star(i))


def basis_entry(alg, k):
    """(role, root or i) of basis index k in the documented block order:
    e of each positive root, then f of each, then H_1..H_l."""
    if k < 2 * alg.npos:
        return "ef"[k // alg.npos], alg.positive_roots[k % alg.npos]
    return "h", k - 2 * alg.npos + 1


def realize_elem(alg, elem):
    """Twice the sparse element {index: coeff} as a Clifford element."""
    return sum((c * realize(alg, *basis_entry(alg, k))
                for k, c in elem.items()),
               clifford_algebra(alg.l).zero())


def full_bracket_table(alg):
    """Every basis commutator of the doubled realizations, with no weight
    filter: {(i, j): [2 x_i, 2 x_j]} in the Clifford algebra."""
    doubled = [realize(alg, *basis_entry(alg, k)) for k in range(alg.dim)]
    return {(i, j): doubled[i].commutator(doubled[j])
            for i in range(alg.dim) for j in range(alg.dim)}


def table_mismatches(alg, full):
    """Pairs of full whose table bracket disagrees with the Clifford one:
    [2 x_i, 2 x_j] = 4 [x_i, x_j] = 2 sum_k c_k (2 x_k)."""
    return [(i, j) for (i, j), comm in full.items()
            if 2 * realize_elem(alg, dict(alg.bracket(i, j))) != comm]


def exhaustive_jacobi(alg, limit=5):
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]] over all basis triples."""
    bad = []
    n = alg.dim
    table = [[dict(alg.bracket(i, j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, cm in table[b][c].items():
                        for p, cp in table[a][m].items():
                            acc[p] = acc.get(p, Fraction(0)) + cm * cp
                if any(acc.values()):
                    bad.append((i, j, k))
                    if len(bad) >= limit:
                        return bad
    return bad


def exhaustive_invariance(alg, limit=5):
    """([x,y],z) + (y,[x,z]) = 0 over all basis triples."""
    bad = []
    n = alg.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = sum((c * alg.form(m, k) for m, c in alg.bracket(i, j)),
                        Fraction(0))
                w = sum((c * alg.form(j, m) for m, c in alg.bracket(i, k)),
                        Fraction(0))
                if v + w:
                    bad.append((i, j, k))
                    if len(bad) >= limit:
                        return bad
    return bad


def apply_elem(module, elem, n, state):
    """Act by (sum_i elem[i] x_i)(n); elem is a sparse {index: coeff}."""
    return module.act(terms_of(module.alg, [(c, ((n, x),))
                                            for x, c in elem.items()]),
                      state)


def random_state(module, rng, max_terms=3, max_factors=3):
    """Small random state: a few random negative-mode products of the vacuum."""
    alg = module.alg
    out = module.zero()
    for _ in range(rng.randint(1, max_terms)):
        factors = []
        for _ in range(rng.randint(0, max_factors)):
            x = rng.randrange(alg.dim)
            factors.append((-rng.randint(1, 3), x))
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        out = out + coeff * module.act(terms_of(alg, [(1, factors)]),
                                       module.vacuum())
    return out


def module_axiom_cases(module, rng, cases=300):
    """x(m) y(n) - y(n) x(m) = [x,y](m+n) + m delta_{m+n,0} (x,y) k."""
    alg = module.alg
    bad = []
    for case in range(cases):
        x = rng.randrange(alg.dim)
        y = rng.randrange(alg.dim)
        m = rng.randint(-3, 3)
        n = rng.randint(-3, 3)
        s = random_state(module, rng)
        xm, yn = code(alg, (m, x)), code(alg, (n, y))
        lhs = module.apply(xm, module.apply(yn, s)) \
            - module.apply(yn, module.apply(xm, s))
        rhs = apply_elem(module, dict(alg.bracket(x, y)), m + n, s)
        if m + n == 0:
            rhs = rhs + (m * alg.form(x, y) * module.level) * s
        if lhs != rhs:
            bad.append((case, alg.label(x), m, alg.label(y), n))
    return bad


def confluence_cases(module, rng, cases=100):
    """Splitting a factor word anywhere gives the same canonical state."""
    alg = module.alg
    bad = []
    for case in range(cases):
        factors = []
        for _ in range(rng.randint(2, 5)):
            x = rng.randrange(alg.dim)
            factors.append((rng.randint(-3, 1), x))
        whole = module.act(terms_of(alg, [(1, factors)]), module.vacuum())
        cut = rng.randint(1, len(factors) - 1)
        split = module.act(terms_of(alg, [(1, factors[:cut])]),
                           module.act(terms_of(alg, [(1, factors[cut:])]),
                                      module.vacuum()))
        if whole != split:
            bad.append((case, factors, cut))
    return bad


def idempotence_cases(module, rng, cases=100):
    """Canonical monomials are fixed by re-normalization; dumps are stable."""
    bad = []
    for case in range(cases):
        s = random_state(module, rng)
        for mono, coeff in s.terms.items():
            again = module.act([(1, tuple(((f, 1),) for f in mono))],
                               module.vacuum())
            if again.terms != {mono: Fraction(1)}:
                bad.append((case, mono))
        if s.to_obj() != s.to_obj():
            bad.append((case, "unstable dump"))
    return bad


def roundtrip_cases(module, rng, cases=100):
    """to_obj / from_obj is the identity on states."""
    bad = []
    for case in range(cases):
        s = random_state(module, rng)
        back = verma.PBWState.from_obj(module, s.to_obj())
        if back != s:
            bad.append(case)
    return bad


def _reference_clear_denominators(row):
    row = {c: v for c, v in row.items() if v}
    mult = 1
    for v in row.values():
        d = v.denominator
        mult = mult * d // gcd(mult, d)
    # mult is a multiple of every denominator, so each entry is an integer
    return {c: v.numerator * (mult // v.denominator) for c, v in row.items()}


def _reference_gcd_reduce(row):
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class ReferenceEchelon(linalg.Echelon):
    """Reference for linalg.Echelon: the elimination it replaced, which
    builds a new row and divides out its content at every step, with the
    add and nullspace normalizations of that version, so stored rows and
    bases are checked against the old canonical form.  Only rank is
    inherited."""

    def reduce(self, row):
        row = _reference_clear_denominators(row)
        while row:
            col = min(row)
            piv = self.rows.get(col)
            if piv is None:
                return row
            a, b = row[col], piv[col]
            new = {c: v * b for c, v in row.items()}
            for c, v in piv.items():
                w = new.get(c, 0) - v * a
                if w:
                    new[c] = w
                else:
                    new.pop(c, None)
            row = _reference_gcd_reduce(new)
        return row

    def add(self, row):
        row = _reference_gcd_reduce(self.reduce(row))
        if row:
            col = min(row)
            if row[col] < 0:
                row = {c: -v for c, v in row.items()}
            self.rows[col] = row
        return bool(row)

    def nullspace(self, ncols):
        pivots = sorted(self.rows)
        pivot_set = set(pivots)
        basis = []
        for free in range(ncols):
            if free in pivot_set:
                continue
            x = {free: 1}
            for p in reversed(pivots):
                if p >= free:
                    continue
                rowp = self.rows[p]
                s = 0
                for c, v in rowp.items():
                    if c != p and c in x:
                        s += v * x[c]
                if s:
                    piv = rowp[p]
                    if s % piv:
                        k = piv // gcd(s, piv)
                        x = {c: v * k for c, v in x.items()}
                        s *= k
                    x[p] = -s // piv
            ints = [x.get(c, 0) for c in range(ncols)]
            g = 0
            for v in ints:
                g = gcd(g, abs(v))
            if g > 1:
                ints = [v // g for v in ints]
            first = next(v for v in ints if v)
            if first < 0:
                ints = [-v for v in ints]
            basis.append(ints)
        return basis


class reference_generated_tester:
    """Reference for the cone test of weights.check_admissible: the memoized
    DFS over positive-mode generators it replaced.

    Decides whether a coroot vector is a nonnegative integer combination of
    the accepted vectors.  Each subtraction of a positive-mode generator
    strictly lowers the mode; the mode-zero remainder is settled by
    linalg.solve_exact, which needs independent mode-zero generators."""

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


def reference_check_admissible(alg, weight, mode_bound):
    """Reference for weights.check_admissible: Fraction pairings, thresholds
    and heights, and the greedy pass on reference_generated_tester; returns
    the same report dict."""
    l = alg.l
    violations, generators, pairs, notes = [], [], {}, []
    max_threshold, certified, rank = 0, False, 0
    shifted = weights.AffineWeight(
        tuple(w + r for w, r in zip(weight.finite, alg.rho())),
        weight.level + alg.dual_coxeter, weight.delta)
    slope_base = weight.level + alg.dual_coxeter

    def rep():
        return {
            "type": alg.kind, "l": l, "level": str(weight.level),
            "mode_bound": mode_bound,
            "admissible": not violations and certified and rank == l + 1,
            "critical": slope_base == 0,
            "condition_i": {"violations": violations,
                            "max_positivity_threshold": max_threshold,
                            "certified_beyond_bound": certified},
            "condition_ii": {"generators": generators, "rank": rank,
                             "required_rank": l + 1},
            "simple_pairings": pairs, "notes": notes,
        }

    if slope_base == 0:
        notes.append("critical level: level + dual Coxeter = 0; rejected")
        return rep()
    if slope_base < 0:
        notes.append(
            "level + dual Coxeter < 0: pairings decrease with the mode, "
            "no finite certificate; rejected")
        return rep()
    if weight.level == 0:
        notes.append("level 0 is the degenerate vacuum case; "
                     "trivially admissible, reported for completeness")
    candidates = []
    for root in alg.weights[:2 * alg.npos]:
        n = liealg.root_norm(root)
        q = 2 * sum(s * a for s, a in zip(shifted.finite, root)) / Fraction(n)
        t = 2 * slope_base / Fraction(n)
        thr = 0
        while q + thr * t <= 0:
            thr += 1
        max_threshold = max(max_threshold, thr)
        start = 0 if root in alg.positive_roots else 1
        for m in range(start, mode_bound + 1):
            p = q + m * t
            if p.denominator == 1:
                candidates.append(weights.AffineRoot(root, m))
                if p <= 0:
                    violations.append(
                        {"root": candidates[-1].label(), "pairing": str(p)})
    certified = max_threshold <= mode_bound
    if not certified:
        notes.append(
            "mode bound %d below positivity threshold %d; raise %s"
            % (mode_bound, max_threshold, weights.MODE_BOUND_ENV))
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

    tester = reference_generated_tester()
    accepted = []
    for root in sorted(candidates, key=order):
        if not tester.generated(vecs[root]):
            tester.add(vecs[root])
            accepted.append(root)
    generators = [
        {"finite": list(r.finite), "mode": r.mode, "label": r.label()}
        for r in accepted
    ]
    ech = linalg.Echelon()
    for r in accepted:
        ech.add(dict(enumerate(vecs[r])))
    rank = ech.rank
    for i, a in enumerate(alg.simple_roots, start=1):
        pairs["alpha_%d" % i] = str(
            weights.pairing(shifted, weights.AffineRoot(a, 0)))
    theta = tuple(-c for c in alg.theta)
    pairs["alpha_0"] = str(
        weights.pairing(shifted, weights.AffineRoot(theta, 1)))
    pairs["two_delta_minus_theta"] = str(
        weights.pairing(shifted, weights.AffineRoot(theta, 2)))
    return rep()
