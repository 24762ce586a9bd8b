"""Singular vectors: annihilation, profiles, and the independent solver."""

import json
import time
from fractions import Fraction

import pytest

import helpers
from affine_verma import cli, liealg, linalg, singular, verma
from affine_verma.claims import verifies


@verifies("singular-vector-B")
@pytest.mark.parametrize("l", [4, 5, 6])
def test_type_b_vector_is_singular(l):
    module = verma.vacuum_module("B", l)
    v = singular.singular_vector(module)
    res = singular.check_singular(module, v)
    assert res["passed"]
    assert len(res["operators"]) == l + 1
    assert all(op["kills"] for op in res["operators"])


@verifies("singular-vector-D")
@pytest.mark.parametrize("l", [4, 5, 6])
def test_type_d_vector_is_singular(l):
    module = verma.vacuum_module("D", l)
    v = singular.singular_vector(module)
    res = singular.check_singular(module, v)
    assert res["passed"]
    assert all(op["kills"] for op in res["operators"])


@pytest.mark.parametrize("kind,families,degree", [("B", 2, 2), ("D", 40, 4)])
def test_family_counts_and_profile(kind, families, degree):
    alg = liealg.algebra(kind, 4)
    fams = singular.term_families(alg)
    assert len(fams) == families
    module = verma.vacuum_module(kind, 4)
    v = singular.singular_vector(module)
    want_degree, want_weight = singular.expected_profile(alg)
    assert want_degree == degree
    assert v.degree() == degree
    assert tuple(v.weight()) == want_weight


@verifies("singular-vector-B", "singular-vector-D")
@pytest.mark.parametrize("kind, families", [("B", 2), ("D", 40)])
def test_every_family_coefficient_matters(kind, families):
    # doubling the coefficients of any one family (for D, one appendix row)
    # leaves a vector that some raising operator does not kill; a fresh
    # module keeps the mutants out of the cached module's memo
    alg = liealg.algebra(kind, 4)
    module = verma.VermaModule(alg, verma.special_level(4))
    fams = singular.term_families(alg)
    assert len(fams) == families
    for n in range(families):
        terms = [(2 * c if m == n else c, pos)
                 for m, fam in enumerate(fams) for c, pos in fam]
        res = singular.check_singular(module, module.build(terms))
        assert not res["passed"], n


def test_type_b_vector_shape():
    module = verma.vacuum_module("B", 4)
    alg = module.alg
    v = singular.singular_vector(module)
    # l monomials: one squared short-root mode, l-1 split pairs
    assert len(v.terms) == alg.l
    s1 = alg.e_index(alg.rs(1))
    square = helpers.code(alg, ((-1, s1), (-1, s1)))
    assert v.terms.get(square, 0) == Fraction(-1, 4)
    pair = helpers.code(alg, sorted([(-1, alg.e_index(alg.rm(1, 2))),
                                     (-1, alg.e_index(alg.rp(1, 2)))]))
    assert v.terms.get(pair, 0) == 1


def test_terms_stable_under_rank_growth():
    # the defining formula only adds new summands as l grows; type D
    # coefficients are polynomials in l, so compare factor structures
    # there and exact terms in type B; a position is keyed by the basis
    # labels of its pairs, whose text does not depend on the rank
    def labeled(l, kind, with_coeff):
        alg = liealg.algebra(kind, l)
        out = set()
        for coeff, positions in singular.flat_terms(alg):
            key = tuple(tuple((alg.label(x), n, c) for (n, x), c in (
                (verma.decode(alg, f), c) for f, c in pos))
                for pos in positions)
            out.add((Fraction(coeff), key) if with_coeff else key)
        return out

    assert labeled(4, "B", True) <= labeled(5, "B", True)
    assert labeled(4, "D", False) <= labeled(5, "D", False)


def test_scalar_invariance(rng):
    module = verma.vacuum_module("D", 4)
    v = singular.singular_vector(module)
    scaled = Fraction(rng.randint(1, 40), rng.randint(1, 7)) * v
    assert singular.check_singular(module, scaled)["passed"]


def test_residual_reported_on_failure():
    module = verma.vacuum_module("B", 4)
    v = singular.singular_vector(module)
    alg = module.alg
    poke = module.apply(helpers.code(alg, (-1, alg.e_index(alg.rm(1, 2)))),
                        module.apply(helpers.code(alg, (-1, alg.e_index(
                            alg.rp(1, 2)))), module.vacuum()))
    res = singular.check_singular(module, v + poke)
    assert not res["passed"]
    failing = [op for op in res["operators"] if not op["kills"]]
    assert failing
    for op in failing:
        assert op["residual"], "failing operator must carry a monomial diff"


def test_enumerate_monomials_brute_force_check():
    module = verma.vacuum_module("B", 4)
    alg = module.alg
    degree, weight = 2, (2, 0, 0, 0)
    monos = singular.enumerate_monomials(alg, degree, weight)
    # every enumerated monomial is canonical with the right profile
    for mono in monos:
        assert list(mono) == sorted(mono)
        factors = [verma.decode(alg, f) for f in mono]
        assert sum(-n for n, _ in factors) == degree
        total = [0] * alg.l
        for _, x in factors:
            for i, c in enumerate(alg.weights[x]):
                total[i] += c
        assert tuple(total) == weight
    # and the count matches a crude independent enumeration: either one
    # factor at mode -2 with the whole weight, or two mode -1 factors
    singles = sum(1 for x in range(alg.dim)
                  if tuple(alg.weights[x]) == weight)
    pairs = 0
    for x in range(alg.dim):
        for y in range(x, alg.dim):
            w = tuple(a + b for a, b in zip(alg.weights[x], alg.weights[y]))
            if w == weight:
                pairs += 1
    assert len(monos) == singles + pairs


@pytest.mark.parametrize("kind", ["B", "D"])
@pytest.mark.parametrize("l", [4, 5])
def test_pruned_enumeration_matches_leaf_filter(kind, l):
    alg = liealg.algebra(kind, l)
    zero = (0,) * l
    for degree in range(1, 5):
        unreachable = (degree + 1,) + zero[1:]
        targets = [zero, tuple(2 * c for c in alg.rs(1)),
                   tuple(2 * c for c in alg.theta), alg.rm(1, 2), unreachable]
        # one unpruned walk per degree, filtered by weight; order is kept
        leaves = helpers.leaf_filtered_monomials(alg, degree)
        for weight in targets:
            got = singular.enumerate_monomials(alg, degree, weight)
            assert got == [helpers.code(alg, mono) for mono, w in leaves
                           if w == weight], (degree, weight)
        assert singular.enumerate_monomials(alg, degree, unreachable) == []


@pytest.mark.parametrize("kind, ranks", [("B", range(2, 7)),
                                          ("D", range(3, 7))])
def test_enumeration_matches_the_full_scan_walk(kind, ranks):
    # below a slack of 2 the walk tries only the indices that can pass the
    # norm bound; the walk that tries every index is the reference
    for l in ranks:
        alg = liealg.algebra(kind, l)
        zero = (0,) * l
        for degree in range(5):
            targets = [zero, alg.theta, alg.rs(1), alg.rm(1, 2),
                       tuple(2 * c for c in alg.rs(1)),
                       tuple(2 * c for c in alg.theta),
                       (degree + 1,) + zero[1:]]
            for weight in targets:
                assert singular.enumerate_monomials(alg, degree, weight) == \
                    [helpers.code(alg, mono) for mono in
                     helpers.reference_enumerate_monomials(alg, degree,
                                                           weight)], \
                    (l, degree, weight)


@pytest.mark.parametrize("kind", ["B", "D"])
def test_enumeration_on_every_reachable_weight(kind):
    alg = liealg.algebra(kind, 4)
    for degree in range(1, 4):
        leaves = helpers.leaf_filtered_monomials(alg, degree)
        by_weight = {}
        for mono, w in leaves:
            by_weight.setdefault(w, []).append(helpers.code(alg, mono))
        for weight, want in by_weight.items():
            got = singular.enumerate_monomials(alg, degree, weight)
            assert got == want, (degree, weight)


def test_wrong_length_weight_is_rejected():
    # a zip against the basis weights would truncate the weight, so D_4 at
    # degree 2 with weight (2, 0) would list monomials of weight (2, 0, -2, 0)
    module = verma.vacuum_module("D", 4)
    for weight in ((2, 0), (2, 0, 0, 0, 0), ()):
        with pytest.raises(ValueError):
            singular.enumerate_monomials(module.alg, 2, weight)
        with pytest.raises(ValueError):
            singular.solve_singular_space(module, 2, weight)


@verifies("singular-vector-B", "singular-vector-D")
@pytest.mark.parametrize("kind", ["B", "D"])
@pytest.mark.parametrize("l", [7, 8])
def test_strict_oracle_at_higher_rank(capsys, kind, l):
    # each takes under 2 s on a 2-core machine; without weight pruning
    # in the enumerator, D_8 took about 25 s
    start = time.perf_counter()
    code = cli.main(["verify", "singular", "--type", kind, "--l", str(l),
                     "--strict"])
    elapsed = time.perf_counter() - start
    rep = json.loads(capsys.readouterr().out)
    assert code == 0 and rep["passed"] is True
    assert rep["oracle"]["dimension"] == 1
    assert rep["oracle"]["contains_vector"] is True
    assert elapsed < 15, elapsed


@verifies("singular-vector-B")
def test_solver_family_type_b():
    module = verma.vacuum_module("B", 4)
    space = singular.solve_singular_space(module, 2, (2, 0, 0, 0))
    assert len(space) == 1
    v = singular.singular_vector(module)
    ratio = v.multiple_of(space[0])
    assert ratio is not None and ratio != 0
    assert singular.check_singular(module, space[0])["passed"]


@verifies("singular-vector-D")
def test_solver_family_type_d_strict_agrees():
    module = verma.vacuum_module("D", 4)
    degree, weight = singular.expected_profile(module.alg)
    space = singular.solve_singular_space(module, degree, weight)
    assert len(space) == 1
    # the raising conditions alone force x(1).v = 0 for the whole basis
    for x in range(module.alg.dim):
        assert module.apply(helpers.code(module.alg, (1, x)),
                            space[0]).is_zero(), x
    v = singular.singular_vector(module)
    assert v.multiple_of(space[0]) is not None


def test_oracle_basis_matches_plain_elimination(monkeypatch):
    # the D_10 system as solve_singular_space assembles it: the class pass
    # in linalg.nullspace gives the basis of Echelon alone
    seen = []
    nullspace = linalg.nullspace

    def record(rows, ncols):
        rows = list(rows)
        seen.append((rows, ncols))
        return nullspace(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace", record)
    module = verma.vacuum_module("D", 10)
    space = singular.solve_singular_space(
        module, *singular.expected_profile(module.alg))
    (rows, ncols), = seen
    ech = linalg.Echelon()
    for row in rows:
        ech.add(row)
    want = ech.nullspace(ncols)
    assert len(want) == len(space) == 1
    assert nullspace(rows, ncols) == want
    assert sum(len(row) == 2 for row in rows) > len(rows) / 2


def test_solver_empty_space():
    # degree 1 with the highest-root weight: e_theta(-1) 1 is not singular
    module = verma.vacuum_module("B", 4)
    space = singular.solve_singular_space(module, 1, module.alg.theta)
    assert space == []


def test_solver_degree_bound():
    module = verma.vacuum_module("B", 4)
    with pytest.raises(ValueError):
        singular.solve_singular_space(module, 5, (2, 0, 0, 0))


def test_report_payload():
    rep = singular.report("D", 4)
    assert rep["check"] == "singular"
    assert rep["passed"] is True
    assert rep["graded"] is True
    assert rep["degree"] == 4
    assert rep["level"] == "-5/2"
    names = [op["operator"] for op in rep["operators"]]
    assert names == sorted(set(names), key=names.index)
    assert any(name.startswith("f(") for name in names)
    assert "oracle" not in rep
    strict = singular.report("D", 4, strict=True)
    assert strict["passed"] is True
    assert strict["oracle"] == {"degree": 4, "dimension": 1,
                                "contains_vector": True, "passed": True}
    del strict["oracle"]
    assert strict == rep
