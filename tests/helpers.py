"""Shared exact property drivers for the unit and acceptance suites.

Everything here returns a list of violations (empty means the property
holds); callers assert emptiness so failures show the offending cases.
"""

from fractions import Fraction

from affine_verma import verma


def leaf_filtered_monomials(alg, degree):
    """Reference for singular.enumerate_monomials: the unpruned walk.

    Visits every canonical monomial of the degree in the same order and
    returns (monomial, weight) pairs, so callers filter by weight at the
    leaves.
    """
    dim = alg.dim
    weights = [alg.weight(x) for x in range(dim)]
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


def full_bracket_table(alg):
    """Every basis commutator, decomposed with no weight filter: {(i, j): items}."""
    table = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            comm = alg.realization(i).commutator(alg.realization(j))
            dec = alg._decompose(comm)
            table[i, j] = tuple(sorted(dec.items()))
    return table


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


def random_state(module, rng, max_terms=3, max_factors=3):
    """Small random state: a few random negative-mode products of the vacuum."""
    alg = module.alg
    out = module.zero()
    for _ in range(rng.randint(1, max_terms)):
        factors = [
            (rng.randrange(alg.dim), -rng.randint(1, 3))
            for _ in range(rng.randint(0, max_factors))
        ]
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        out = out + coeff * module.act_factors(factors, module.vacuum())
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
        lhs = module.apply(x, m, module.apply(y, n, s)) \
            - module.apply(y, n, module.apply(x, m, s))
        rhs = module.apply_elem(dict(alg.bracket(x, y)), m + n, s)
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
        factors = [
            (rng.randrange(alg.dim), rng.randint(-3, 1))
            for _ in range(rng.randint(2, 5))
        ]
        whole = module.act_factors(factors, module.vacuum())
        cut = rng.randint(1, len(factors) - 1)
        split = module.act_factors(factors[:cut],
                                   module.act_factors(factors[cut:],
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
            again = module.act_factors([(x, n) for n, x in mono],
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
