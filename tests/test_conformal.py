"""Energy vectors: construction, central charges, equality certificates."""

import itertools
from fractions import Fraction

import pytest

import helpers
from affine_verma import conformal, embedding, liealg, singular, verma
from affine_verma.claims import verifies
from affine_verma.linalg import solve_exact


def special_level(l):
    return Fraction(3 - 2 * l, 2)


@verifies("central-charge")
@pytest.mark.parametrize("l", [4, 5, 6])
def test_central_charges_at_special_level(l):
    k = special_level(l)
    for kind in ("B", "D"):
        alg = liealg.algebra(kind, l)
        assert conformal.central_charge(alg, k) == -l * (2 * l - 3)
    if l == 4:
        assert conformal.central_charge(liealg.algebra("B", 4), k) == -20


def test_central_charge_formula():
    alg = liealg.algebra("B", 4)
    assert conformal.central_charge(alg, Fraction(1)) \
        == Fraction(1 * alg.dim, 1 + alg.dual_coxeter) == Fraction(9, 2)
    with pytest.raises(ValueError):
        conformal.central_charge(alg, Fraction(-alg.dual_coxeter))


@verifies("level-equation")
@pytest.mark.parametrize("l", range(4, 9))
def test_level_equation_solutions(l):
    sols = conformal.solve_level_equation(l)
    assert set(sols) == {Fraction(0), special_level(l)}


@verifies("sugawara-vector")
def test_energy_vector_is_basis_independent(rng):
    module = verma.vacuum_module("B", 4)
    alg = module.alg
    n = alg.dim
    # random unipotent change of basis; duals recomputed from the Gram
    # matrix so the quadratic expression must not move
    transform = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(40):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            transform[i][j] += rng.choice((-1, 1))
    basis = [{j: transform[i][j] for j in range(n) if transform[i][j]}
             for i in range(n)]

    def form_on(x, y):
        return sum(cx * cy * alg.form(a, b)
                   for a, cx in x.items() for b, cy in y.items())

    gram = [[form_on(basis[i], basis[j]) for j in range(n)] for i in range(n)]
    quadratic = module.zero()
    for i in range(n):
        coords = solve_exact(gram, [Fraction(int(r == i)) for r in range(n)])
        dual = {}
        for cj, elem in zip(coords, basis):
            for x, c in elem.items():
                dual[x] = dual.get(x, Fraction(0)) + cj * c
        partial = helpers.apply_elem(module, dual, -1, module.vacuum())
        quadratic = quadratic + helpers.apply_elem(module, basis[i], -1,
                                                   partial)
    scale = Fraction(1, 2 * (module.level + alg.dual_coxeter))
    assert scale * quadratic == conformal.sugawara_vector(module)


def test_energy_vector_shape():
    module = verma.vacuum_module("D", 4)
    omega = conformal.sugawara_vector(module)
    assert omega.degree() == 2
    assert tuple(omega.weight()) == (0, 0, 0, 0)
    assert not omega.is_zero()
    # 1/(2(k + h)) sum_i x_i(-1) x^i(-1) 1, one dual basis element at a time
    for kind, l, level in itertools.product(
            "BD", (4, 5), (Fraction(1), Fraction(-5, 3))):
        module = verma.vacuum_module(kind, l, level)
        alg = module.alg
        total = module.zero()
        for idx, (y, v) in enumerate(alg.pair):
            dual = {y: Fraction(1, v)}
            inner = helpers.apply_elem(module, dual, -1, module.vacuum())
            total = total + module.apply(helpers.code(alg, (-1, idx)), inner)
        scale = Fraction(1, 2 * (level + alg.dual_coxeter))
        assert conformal.sugawara_vector(module) == scale * total, \
            (kind, l, level)


@verifies("quadratic-relation")
@pytest.mark.parametrize("l", [4, 5, 6])
def test_quadratic_relation(l):
    res = conformal.verify_quadratic(l)
    assert res["passed"]
    assert res["scalar"] == "1"


@verifies("quadratic-relation")
def test_quadratic_relation_negative_control():
    # perturbing the short-root weighting (3 for 2l - 1 = 7) destroys
    # proportionality
    bmodule = verma.vacuum_module("B", 4)
    E, F, _ = verma.vocabulary(bmodule.alg)
    short = bmodule.build(
        [(1, fs) for r in bmodule.alg.positive_roots
         if liealg.root_norm(r) == 1
         for fs in ((E(r), F(r)), (F(r), E(r)))])
    rel = conformal.quadratic_relation_state(bmodule) - 4 * short
    assert rel.multiple_of(conformal.quadratic_certificate(bmodule)) is None


@verifies("conformal-equality")
@pytest.mark.parametrize("l", [4, 5, 6])
def test_conformal_equality(l):
    res = conformal.verify_equality(l)
    assert res["passed"]
    assert res["ratio_consistent"]
    # the difference is 1/(2(2l+1)(2l-1)) times the certificate
    assert res["scalar"] == str(Fraction(1, 2 * (2 * l + 1) * (2 * l - 1)))


@verifies("conformal-equality")
def test_equality_control_away_from_special_level():
    # at level 1 the energy difference is nonzero and no multiple of u
    bmodule = verma.vacuum_module("B", 4, Fraction(1))
    dmodule = verma.vacuum_module("D", 4, Fraction(1))
    delta = conformal.sugawara_vector(bmodule) - embedding.embed_state(
        conformal.sugawara_vector(dmodule), bmodule)
    assert not delta.is_zero()
    assert delta.multiple_of(conformal.quadratic_certificate(bmodule)) is None


def test_difference_is_singular_weight_zero():
    # the energy difference lies in the submodule the degree-2 vector
    # generates: the certificate is a lowering word applied to it
    l = 4
    bmod = verma.vacuum_module("B", l)
    u = conformal.quadratic_certificate(bmod)
    v_b = singular.singular_vector(bmod)
    # u has the vacuum weight and degree 2
    assert u.degree() == 2
    assert tuple(u.weight()) == (0,) * l
    assert tuple(v_b.weight()) == (2, 0, 0, 0)
    delta = conformal.sugawara_vector(bmod) - embedding.embed_state(
        conformal.sugawara_vector(verma.vacuum_module("D", l)), bmod)
    assert delta.multiple_of(u) == Fraction(1, 2 * (2 * l + 1) * (2 * l - 1))


def test_report_payload():
    rep = conformal.report(4)
    assert rep["check"] == "conformal"
    assert rep["passed"] is True
    assert rep["central_charge_B"] == rep["central_charge_D"] == "-20"
    assert rep["level_equation"] == ["-5/2", "0"]
