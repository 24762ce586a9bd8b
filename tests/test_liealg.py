"""Structure of the realized finite algebras: brackets, form, root data."""

import re
from fractions import Fraction

import pytest

import helpers
from affine_verma import liealg, singular, verma
from affine_verma.claims import verifies


@pytest.fixture(scope="module", params=["B", "D"])
def alg(request):
    return liealg.algebra(request.param, 4)


@verifies("root-data")
def test_dimensions_and_root_counts(alg):
    l = alg.l
    if alg.kind == "B":
        assert alg.dim == 2 * l * l + l == 36
        assert len(alg.positive_roots) == l * l
        assert alg.dual_coxeter == 2 * l - 1
    else:
        assert alg.dim == 2 * l * l - l == 28
        assert len(alg.positive_roots) == l * (l - 1)
        assert alg.dual_coxeter == 2 * l - 2
    assert len(alg.simple_roots) == l
    assert alg.basis[alg.e_index(alg.theta)] is not None


@verifies("root-data")
def test_theta_is_highest():
    for kind in ("B", "D"):
        alg = liealg.algebra(kind, 5)
        assert alg.theta == alg.rp(1, 2)
        # adding any simple root to theta leaves the root system
        roots = set(alg.positive_roots)
        for a in alg.simple_roots:
            up = tuple(t + s for t, s in zip(alg.theta, a))
            assert up not in roots


@verifies("clifford-realization")
def test_jacobi_exhaustive(alg):
    assert helpers.exhaustive_jacobi(alg) == []


@verifies("clifford-realization", "form-normalization")
def test_form_invariance_exhaustive(alg):
    assert helpers.exhaustive_invariance(alg) == []


@verifies("form-normalization")
def test_form_normalization(alg):
    e = alg.e_index(alg.theta)
    f = alg.f_index(alg.theta)
    # (theta, theta) = 2 translates to (e, f) = 2/(theta, theta) = 1
    assert alg.form(e, f) == 1
    if alg.kind == "B":
        s = alg.rs(1)
        # short roots have squared length 1, so (e_s, f_s) = 2
        assert alg.form(alg.e_index(s), alg.f_index(s)) == 2
    # the form pairs opposite weights only
    for i in range(alg.dim):
        for j in range(alg.dim):
            wi, wj = alg.weights[i], alg.weights[j]
            if any(a + b for a, b in zip(wi, wj)):
                assert alg.form(i, j) == 0


@verifies("form-normalization")
def test_form_symmetric_and_nondegenerate(alg):
    n = alg.dim
    gram = [[alg.form(i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert gram[i][j] == gram[j][i]
    from affine_verma.linalg import nullspace
    assert nullspace([dict(enumerate(row)) for row in gram], n) == []


@verifies("coroot-normalization")
def test_e_f_bracket_gives_coroot(alg):
    for root in alg.positive_roots:
        e, f = alg.e_index(root), alg.f_index(root)
        got = dict(alg.bracket(e, f))
        expect = alg.coroot_coords(root)
        assert got == expect, root
        # and the coroot pairs to 2 against its own root
        pair = sum(c * root[alg.basis[h][1] - 1] for h, c in expect.items())
        norm = liealg.root_norm(root)
        assert pair == Fraction(2 * sum(a * a for a in root), norm) == 2


@verifies("coroot-normalization")
def test_coordinate_weight_coroot_is_doubled_cartan(alg):
    for i in range(1, alg.l + 1):
        coords = alg.coroot_coords(alg.rs(i))
        assert coords == {alg.h_index(i): Fraction(2)}


@verifies("clifford-realization")
def test_cartan_acts_by_weights(alg):
    for i in range(1, alg.l + 1):
        h = alg.h_index(i)
        for j in range(alg.dim):
            got = dict(alg.bracket(h, j))
            w = alg.weights[j][i - 1]
            expect = {j: Fraction(w)} if w else {}
            assert got == expect


@verifies("clifford-realization")
def test_root_vectors_shift_weights(alg):
    for root in alg.positive_roots:
        e = alg.e_index(root)
        for j in range(alg.dim):
            for k, _ in alg.bracket(e, j):
                assert tuple(alg.weights[k]) == tuple(
                    a + b for a, b in zip(root, alg.weights[j]))


@verifies("root-data")
def test_cartan_matrix(alg):
    cm = alg.cartan_matrix()
    l = alg.l
    assert all(type(c) is int for row in cm for c in row)
    for i in range(l):
        assert cm[i][i] == 2
    if alg.kind == "B":
        # chain with a doubled last link: the short simple root's row
        # carries the -2 since cm[i][j] = 2(a_i, a_j)/(a_i, a_i)
        assert cm[l - 1][l - 2] == -2 and cm[l - 2][l - 1] == -1
    else:
        # fork: the last two nodes both attach to node l-2
        assert cm[l - 3][l - 1] == cm[l - 1][l - 3] == -1
        assert cm[l - 2][l - 1] == cm[l - 1][l - 2] == 0


def test_rho_closed_form():
    # half the sum of the positive roots: l - i + 1/2 in type B, l - i in D
    for kind, ranks, shift in (("B", range(1, 25), Fraction(1, 2)),
                               ("D", range(2, 25), 0)):
        for l in ranks:
            rho = liealg.LieAlgebra(kind, l).rho()
            assert all(type(c) is Fraction for c in rho), (kind, l)
            assert rho == tuple(l - i + shift for i in range(1, l + 1))


@verifies("root-data")
def test_label_round_trip(alg):
    for root in alg.positive_roots:
        lab = liealg.root_label(root)
        assert alg.name_index["e", lab] == alg.e_index(root)
    for i in range(alg.dim):
        assert isinstance(alg.label(i), str)


@pytest.mark.parametrize("kind", ["B", "D"])
def test_factor_names_are_distinct(kind):
    # from_obj reads a factor through the inverse of names, which would
    # map two elements of one name to one index without an error
    for l in range(2, 13):
        alg = liealg.LieAlgebra(kind, l)
        assert len(set(alg.names)) == len(alg.names) == alg.dim, (kind, l)
        assert [alg.name_index[name] for name in alg.names] == \
            list(range(alg.dim))


def test_dual_basis_pairs_to_identity(alg):
    # x^i = x_y / (x_i, x_y) for the one partner y of x_i in pair
    for i, (y, v) in enumerate(alg.pair):
        for j in range(alg.dim):
            assert Fraction(1, v) * alg.form(y, j) == (1 if j == i else 0)


def test_algebra_cache_and_validation():
    assert liealg.algebra("B", 4) is liealg.algebra("B", 4)
    with pytest.raises(ValueError):
        liealg.algebra("E", 4)
    with pytest.raises(ValueError):
        liealg.algebra("D", 1)


@pytest.mark.parametrize("kind", ["B", "D"])
@pytest.mark.parametrize("l", [4, 5, 6])
def test_root_constructors_refuse_bad_indices(kind, l):
    alg = liealg.algebra(kind, l)
    bad = [(alg.rm, (2, 1)), (alg.rm, (1, 1)), (alg.rm, (0, 2)),
           (alg.rm, (1, l + 1)), (alg.rp, (1, 1)), (alg.rp, (0, 2)),
           (alg.rp, (2, 0)), (alg.rp, (2, l + 1)), (alg.rs, (0,)),
           (alg.rs, (l + 1,)), (alg.h_index, (0,)), (alg.h_index, (l + 1,))]
    for make, args in bad:
        with pytest.raises(ValueError):
            make(*args)
    for i in range(1, l + 1):
        unit = tuple(int(k == i) for k in range(1, l + 1))
        assert alg.rs(i) == unit
        for j in range(i + 1, l + 1):
            other = tuple(int(k == j) for k in range(1, l + 1))
            assert alg.rm(i, j) == tuple(a - b for a, b in zip(unit, other))
            assert alg.rp(i, j) == alg.rp(j, i) == tuple(
                a + b for a, b in zip(unit, other))


@pytest.mark.parametrize("kind", ["B", "D"])
def test_root_index_refuses_a_non_root(kind):
    alg = liealg.algebra(kind, 4)
    E, F, _ = verma.vocabulary(alg)
    non_roots = [(0, 0, 0, 0), (-1, 1, 0, 0), (1, 1, 1, 0)]
    if kind == "D":
        non_roots.append(alg.rs(1))
    for root in non_roots:
        for lookup in (alg.e_index, alg.f_index, E, F):
            with pytest.raises(ValueError, match=re.escape(repr(root))):
                lookup(root)


def test_weight_table_lists_roots_negatives_then_zeros(alg):
    n = alg.npos
    assert list(alg.weights[:n]) == alg.positive_roots
    assert list(alg.weights[n:2 * n]) == [tuple(-c for c in r)
                                          for r in alg.positive_roots]
    assert list(alg.weights[2 * n:]) == [(0,) * alg.l] * alg.l
    assert len(alg.weights) == alg.dim


@verifies("clifford-realization")
def test_bracket_elem_matches_table(alg, rng):
    # bracket_elem goes through the contraction rule; the Clifford
    # commutator of the realizations is computed independently of it
    def random_elem():
        return {rng.randrange(alg.dim): Fraction(rng.randint(-5, 5) or 1,
                                                 rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))}

    for _ in range(50):
        x, y = random_elem(), random_elem()
        comm = helpers.realize_elem(alg, x).commutator(
            helpers.realize_elem(alg, y))
        assert 2 * helpers.realize_elem(alg, alg.bracket_elem(x, y)) \
            == comm, (x, y)


@verifies("clifford-realization")
@pytest.mark.parametrize("kind", ["B", "D"])
@pytest.mark.parametrize("l", [4, 5, 6])
def test_bracket_respects_weight_grading(kind, l):
    alg = liealg.algebra(kind, l)
    full = helpers.full_bracket_table(alg)
    carried = {alg.weights[k] for k in range(alg.dim)}
    skipped = [
        (i, j) for i, j in full
        if tuple(a + b for a, b in zip(alg.weights[i], alg.weights[j]))
        not in carried
    ]
    assert skipped
    # no basis element carries these weight sums; the Clifford algebra and
    # the contraction rule agree that the pairs commute
    assert [p for p in skipped if full[p]] == []
    assert helpers.table_mismatches(alg, full) == []


@verifies("clifford-realization")
@pytest.mark.parametrize("kind", ["B", "D"])
def test_rule_table_matches_clifford(kind):
    # the contraction rule against Clifford multiplication, cell by cell
    # and on every absent pair; the lower triangle is the negated upper one
    for l in range(2, 11):
        alg = liealg.algebra(kind, l)
        doubled = [helpers.realize(alg, *b) for b in alg.basis]
        upper = {(i, j): doubled[i].commutator(doubled[j])
                 for i in range(alg.dim) for j in range(i, alg.dim)}
        assert helpers.table_mismatches(alg, upper) == [], (kind, l)
        assert all(alg.bracket(j, i) == tuple((k, -c)
                                              for k, c in alg.bracket(i, j))
                   for i, j in upper), (kind, l)


@pytest.mark.parametrize("kind", ["B", "D"])
def test_structure_constants_are_small_ints(kind):
    for l in range(2, 9):
        alg = liealg.algebra(kind, l)
        values = [c for i in range(alg.dim) for j in range(alg.dim)
                  for _, c in alg.bracket(i, j)]
        assert values and all(type(c) is int for c in values), (kind, l)
        assert set(values) <= {-2, -1, 1, 2}, (kind, l)
        form = [alg.form(i, j) for i in range(alg.dim) for j in range(alg.dim)]
        assert not any(isinstance(c, float) for c in form), (kind, l)
        assert {c for c in form if c} <= ({1, 2} if kind == "B" else {1})
    # states built from the int table and kernel carry no float either
    module = verma.vacuum_module(kind, 4)
    vec = singular.singular_vector(module)
    states = [vec] + [module.apply(op, vec)
                      for op in singular.raising_operators(module.alg)]
    alg = module.alg
    states.append(module.apply(
        helpers.code(alg, (1, alg.f_index(alg.theta))),
        module.apply(helpers.code(alg, (-1, alg.e_index(alg.theta))),
                     module.vacuum())))
    coeffs = [c for s in states for c in s.terms.values()]
    assert coeffs and all(type(c) is Fraction for c in coeffs)


@pytest.mark.parametrize("kind", ["B", "D"])
def test_partners_hold_every_nonzero_bracket_and_form(kind):
    # the relation reach[i] & held[j] is read off the codes; every pair it
    # leaves out must have zero bracket and zero form, and it must be the
    # set of pairs where x_j holds the dual of a code of x_i or both are
    # single fermions, which dump-algebra walked before
    for l in range(1 if kind == "B" else 2, 9):
        alg = liealg.LieAlgebra(kind, l)
        codes = [set(c) for _, c in alg._signed_codes]
        for i in range(alg.dim):
            duals = {alg._dual[p] for p in codes[i]}
            for j in range(alg.dim):
                partner = bool(alg.reach[i] & alg.held[j])
                want = (bool(duals & codes[j])
                        or len(codes[i]) == len(codes[j]) == 1)
                assert partner == want == bool(alg.reach[j] & alg.held[i]), \
                    (kind, l, i, j)
                if not partner:
                    assert alg._rule(i, j) == () and alg.form(i, j) == 0, \
                        (kind, l, i, j)
