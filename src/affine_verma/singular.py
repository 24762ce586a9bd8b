"""Distinguished singular vectors of the level -l + 3/2 vacuum modules.

Type B_l carries one in conformal degree 2 with finite weight 2*eps_1; type
D_l carries one in degree 4 with weight 2*theta.  Both enter as explicit
monomial combinations, organized term family by term family: the two B
families are written here, and the D families are the rows of the appendix
table, zero_modes.identity_table, each left side times its row's
coefficient.  check_singular applies every affine raising operator and
demands exact zero residuals.  Independently of the entered formulas,
solve_singular_space recomputes the vectors from scratch: it enumerates all
canonical monomials of a given degree and weight, assembles the exact
linear system of raising conditions, and extracts its nullspace.
"""

from fractions import Fraction

from . import linalg
from . import verma
from . import zero_modes

# the oracle's degree ceiling: both vectors have degree at most 4, and the
# candidate monomials grow steeply with the degree
MAX_DEGREE = 4


def raising_operators(alg):
    """Loop generators whose kernel cuts out singular vectors, as verma
    factors.

    e_alpha(0) for every finite simple root alpha, plus f_theta(1); these
    generate all raising directions of the affinization.
    """
    ops = [verma.encode(alg, 0, alg.e_index(r)) for r in alg.simple_roots]
    ops.append(verma.encode(alg, 1, alg.f_index(alg.theta)))
    return tuple(ops)


# ---- the entered vectors -----------------------------------------------------


def term_families(alg):
    """The singular vector as a tuple of term families.

    Each family is a list of (coeff, positions), one family per summation
    group of the defining formula, written in verma.vocabulary: a position
    is a tuple of (factor, int) pairs, in the factor format of words and
    monomials.  Type B yields 2 families with l terms in total, type D
    yields 40, one per appendix row; tests pin both counts.
    """
    if alg.kind == "B":
        return _families_type_b(alg)
    return _families_type_d(alg)


def flat_terms(alg):
    return [t for fam in term_families(alg) for t in fam]


@verma.fixed_state
def singular_vector(module):
    """The distinguished singular vector as a canonical state."""
    return module.build(flat_terms(module.alg))


def expected_profile(alg):
    """(conformal degree, finite weight) the singular vector must have."""
    if alg.kind == "B":
        return 2, tuple(2 * c for c in alg.rs(1))
    return 4, tuple(2 * c for c in alg.theta)


def _families_type_b(alg):
    E, F, H = verma.vocabulary(alg)
    l = alg.l
    s1 = alg.rs(1)
    square = [(Fraction(-1, 4), (E(s1), E(s1)))]
    split = [(Fraction(1), (E(alg.rm(1, j)), E(alg.rp(1, j))))
             for j in range(2, l + 1)]
    return (square, split)


def _families_type_d(alg):
    # one family per appendix row: its left sides times its coefficient
    return tuple([(coeff(*p) * c, pos) for p in params for c, pos in lhs(*p)]
                 for _, params, coeff, lhs, _ in zero_modes.identity_table(alg))


# ---- annihilation check ------------------------------------------------------


def check_singular(module, state):
    """Apply every raising operator to the state and report what survives."""
    alg = module.alg
    checks = []
    passed = not state.is_zero()
    for factor in raising_operators(alg):
        res = module.apply(factor, state)
        kills = res.is_zero()
        passed = passed and kills
        n, x = verma.decode(alg, factor)
        entry = {
            "operator": "%s(%d)" % (alg.label(x), n),
            "kills": kills,
        }
        if not kills:
            entry["residual"] = res.to_obj()
        checks.append(entry)
    return {"passed": passed, "operators": checks}


def report(kind, l, strict=False):
    """Build the entered vector, check annihilation, and grade it; strict
    also requires the solved singular space to be the vector's line."""
    module = verma.vacuum_module(kind, l)
    vec = singular_vector(module)
    degree, weight = expected_profile(module.alg)
    res = check_singular(module, vec)
    graded = vec.degree() == degree and vec.weight() == weight
    rep = {
        "check": "singular",
        "type": kind,
        "l": l,
        "level": str(module.level),
        "monomials": len(vec),
        "degree": degree,
        "weight": list(weight),
        "graded": graded,
        "operators": res["operators"],
        "passed": bool(res["passed"] and graded),
    }
    if strict:
        space = solve_singular_space(module, degree, weight)
        contains = any(vec.multiple_of(s) is not None for s in space)
        rep["oracle"] = {
            "degree": degree,
            "dimension": len(space),
            "contains_vector": contains,
            "passed": len(space) == 1 and contains,
        }
        rep["passed"] = rep["passed"] and rep["oracle"]["passed"]
    return rep


# ---- independent recomputation -----------------------------------------------


def enumerate_monomials(alg, degree, weight):
    """All canonical monomials of the given conformal degree and weight.

    A canonical monomial is a nondecreasing tuple of verma factors, the
    walk's (mode, index) pairs encoded, all modes negative; degree is the
    sum of -mode, and the index weights sum to weight.  The walk carries the
    residual weight still to be reached in one list, updating its L1 norm
    over the at most 2 nonzero coordinates of each basis weight.
    Every factor uses at least one unit of degree, so a branch whose residual
    norm exceeds twice the remaining degree is cut; below a slack of 2 only
    indices that move toward the residual, or have at most slack nonzero
    coordinates, are tried.  The last factor is looked up in a weight ->
    ascending indices table.  Pruning never reorders the output.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if len(weight) != alg.l:
        raise ValueError("weight must have l = %d coordinates" % alg.l)
    dim, encode, weights = alg.dim, verma.encode, alg.weights
    by_weight = {}
    for x, w in enumerate(weights):
        by_weight.setdefault(w, []).append(x)
    support = [[(i, c) for i, c in enumerate(w) if c] for w in weights]
    toward = {}  # (coordinate, sign > 0) -> indices of that sign there
    for x, sup in enumerate(support):
        for i, c in sup:
            toward.setdefault((i, c > 0), []).append(x)
    few = [x for x, sup in enumerate(support) if len(sup) < 2]
    res = list(weight)
    out = [] if degree or any(res) else [()]
    mono = []

    def rec(remaining, floor, norm):
        for n in range(max(floor[0], -remaining), 0):
            left = remaining + n
            low = floor[1] if n == floor[0] else 0
            if not left:
                out.extend(tuple(mono) + (encode(alg, n, x),)
                           for x in by_weight.get(tuple(res), ()) if x >= low)
                continue
            xs = range(low, dim)
            slack = 2 * left - norm
            if slack < 2:
                near = [x for x in few if len(support[x]) <= slack]
                for i, r in enumerate(res):
                    if r:
                        near += toward.get((i, r > 0), ())
                xs = sorted({x for x in near if x >= low})
            for x in xs:
                after = norm
                for i, c in support[x]:
                    after += abs(res[i] - c) - abs(res[i])
                if after > 2 * left:
                    continue
                for i, c in support[x]:
                    res[i] -= c
                mono.append(encode(alg, n, x))
                rec(left, (n, x), after)
                mono.pop()
                for i, c in support[x]:
                    res[i] += c

    rec(degree, (-degree, 0), sum(map(abs, res)))
    return out


def solve_singular_space(module, degree, weight):
    """Nullspace of the raising conditions at fixed degree and weight.

    Returns a deterministic list of states spanning every solution of
    {op.v = 0 for op in raising_operators}, solved exactly by fraction-free
    elimination.  A degree above MAX_DEGREE raises ValueError.
    """
    if degree > MAX_DEGREE:
        raise ValueError("degree %d exceeds bound %d" % (degree, MAX_DEGREE))
    alg = module.alg
    cands = enumerate_monomials(alg, degree, weight)
    if not cands:
        return []
    ops = raising_operators(alg)
    rows = {}
    for col, mono in enumerate(cands):
        for oi, op in enumerate(ops):
            for target, c in module.operator_terms(op, mono):
                rows.setdefault((oi, target), {})[col] = c
    basis = linalg.nullspace(rows.values(), len(cands))
    return [
        module.state({cands[i]: v for i, v in enumerate(vec) if v})
        for vec in basis
    ]
