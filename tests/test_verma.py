"""Vacuum module mechanics: straightening, axioms, serialization."""

import json
from fractions import Fraction

import pytest

import helpers
from affine_verma import liealg, verma
from affine_verma.claims import verifies
from affine_verma.verma import PBWState


@pytest.fixture(scope="module", params=["B", "D"])
def module(request):
    return verma.vacuum_module(request.param, 4)


def test_default_level(module):
    assert module.level == Fraction(3 - 2 * module.alg.l, 2)
    assert verma.vacuum_module(module.alg.kind, 4) is module


def test_nonnegative_modes_kill_vacuum(module):
    vac = module.vacuum()
    for x in range(module.alg.dim):
        for n in (0, 1, 2):
            assert module.apply(x, n, vac).is_zero()


def test_nonnegative_mode_monomials_rejected(module):
    # e(1-2)(0)|0> is zero in the module, so it is no canonical monomial
    label = liealg.root_label(module.alg.rm(1, 2))
    x = module.alg.e_index(module.alg.rm(1, 2))
    module.state({((-1, x),): 1})
    for mono in (((0, x),), ((-1, x), (0, x)), ((-2, x), (1, x))):
        with pytest.raises(ValueError):
            module.state({mono: 1})
        obj = [{"coeff": "1",
                "monomial": [["e", label, n] for n, _ in mono]}]
        with pytest.raises(ValueError):
            PBWState.from_obj(module, obj)


def test_central_term_on_vacuum(module):
    # f_theta(1) e_theta(-1) 1 = [f, e](0) 1 + (f, e) k 1 = k 1
    alg = module.alg
    e, f = alg.e_index(alg.theta), alg.f_index(alg.theta)
    got = module.apply(f, 1, module.apply(e, -1, module.vacuum()))
    assert got == module.level * module.vacuum()


@verifies("affine-bracket")
def test_module_axiom_random(module, rng):
    assert helpers.module_axiom_cases(module, rng, cases=300) == []


@verifies("vacuum-module")
def test_straightening_confluence(module, rng):
    assert helpers.confluence_cases(module, rng, cases=100) == []


@verifies("vacuum-module")
def test_canonical_monomials_are_normal_forms(module, rng):
    assert helpers.idempotence_cases(module, rng, cases=100) == []


@verifies("state-serialization")
def test_serialization_round_trip(module, rng):
    assert helpers.roundtrip_cases(module, rng, cases=100) == []


@verifies("state-serialization")
def test_serialization_is_deterministic(module, rng):
    s = helpers.random_state(module, rng)
    blob1 = json.dumps(s.to_obj(), sort_keys=True)
    blob2 = json.dumps(PBWState.from_obj(module, s.to_obj()).to_obj(),
                       sort_keys=True)
    assert blob1 == blob2


def test_from_obj_rejects_non_canonical(module):
    alg = module.alg
    root = alg.theta
    good = [{"coeff": "1", "monomial": [
        ["e", liealg.root_label(root), -2],
        ["e", liealg.root_label(root), -1]]}]
    PBWState.from_obj(module, good)
    bad = [{"coeff": "1", "monomial": [
        ["e", liealg.root_label(root), -1],
        ["e", liealg.root_label(root), -2]]}]
    with pytest.raises(ValueError):
        PBWState.from_obj(module, bad)


def test_state_arithmetic(module):
    vac = module.vacuum()
    e = module.alg.e_index(module.alg.theta)
    s = module.apply(e, -1, vac)
    assert (s + s) == 2 * s
    assert (s - s).is_zero()
    assert (-s) == -1 * s
    assert s * Fraction(1, 3) + s * Fraction(2, 3) == s
    assert s.coefficient(next(iter(s.terms))) == 1


def test_degree_and_weight(module):
    alg = module.alg
    e = alg.e_index(alg.theta)
    s = module.apply(e, -2, module.apply(e, -1, module.vacuum()))
    assert s.degree() == 3
    assert tuple(s.weight()) == tuple(2 * c for c in alg.theta)
    assert module.vacuum().degree() == 0


def test_multiple_of(module):
    e = module.alg.e_index(module.alg.theta)
    s = module.apply(e, -1, module.vacuum())
    t = Fraction(-7, 3) * s
    assert t.multiple_of(s) == Fraction(-7, 3)
    assert s.multiple_of(module.zero()) is None
    assert module.zero().multiple_of(s) == 0
    h = module.apply(module.alg.h_index(1), -1, module.vacuum())
    assert (s + h).multiple_of(s) is None


def test_symbolic_grammar_expansion(module):
    alg = module.alg
    # an "h" factor expands into Cartan coordinates of the coroot
    terms = [(1, (("h", alg.rm(1, 2), -1),))]
    built = module.build(terms)
    direct = module.apply(alg.h_index(1), -1, module.vacuum()) \
        - module.apply(alg.h_index(2), -1, module.vacuum())
    assert built == direct
    # coordinate weights work in both types (not roots in type D)
    terms = [(1, (("h", alg.rs(1), -1),))]
    built = module.build(terms)
    assert built == 2 * module.apply(alg.h_index(1), -1, module.vacuum())


def test_apply_rejects_foreign_state():
    mb = verma.vacuum_module("B", 4)
    md = verma.vacuum_module("D", 4)
    with pytest.raises(ValueError):
        mb.apply(0, -1, md.vacuum())


def test_level_override():
    m = verma.vacuum_module("B", 4, level=Fraction(1))
    e = m.alg.e_index(m.alg.theta)
    f = m.alg.f_index(m.alg.theta)
    got = m.apply(f, 1, m.apply(e, -1, m.vacuum()))
    assert got == m.vacuum()
