"""Acceptance gate: the eleven headline checks, one test per criterion.

Each test drives the public API end to end and carries its own time
budget where the contract has one.  Run with -v to get one verdict line
per criterion.
"""

import random
import time
from fractions import Fraction

import pytest

import helpers
from affine_verma import conformal, embedding, singular, triality, weights
from affine_verma.conformal import central_charge, solve_level_equation
from affine_verma.liealg import algebra
from affine_verma.singular import singular_vector, solve_singular_space
from affine_verma.triality import d4_symmetries
from affine_verma.verma import vacuum_module


def test_criterion_01_degree2_vector_annihilated_across_ranks():
    start = time.monotonic()
    for l in (4, 5, 6):
        rep = singular.report("B", l)
        assert rep["passed"], rep
        assert rep["degree"] == 2
        assert all(op["kills"] for op in rep["operators"])
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "budget 10s, took %.1fs" % elapsed


def test_criterion_02_degree4_vector_annihilated_across_ranks():
    for l in (4, 5, 6):
        start = time.monotonic()
        rep = singular.report("D", l)
        elapsed = time.monotonic() - start
        assert rep["passed"], rep
        assert rep["degree"] == 4
        assert elapsed < 60.0, "rank %d budget 60s, took %.1fs" % (l, elapsed)


def test_criterion_03_vectors_unique_up_to_scale():
    start = time.monotonic()
    for kind in ("B", "D"):
        module = vacuum_module(kind, 4)
        degree, weight = singular.expected_profile(module.alg)
        space = solve_singular_space(module, degree, weight)
        assert len(space) == 1, "%s_4 solution space not a line" % kind
        # every x(1) kills the line, not only the raising operators
        for x in range(module.alg.dim):
            assert module.apply(helpers.code(module.alg, (1, x)),
                                space[0]).is_zero(), (kind, x)
        scalar = singular_vector(module).multiple_of(space[0])
        assert scalar not in (None, 0)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, "budget 300s, took %.1fs" % elapsed


def test_criterion_04_vacuum_weight_admissible_with_exact_pairings():
    for l in range(4, 9):
        rep = weights.report(l)
        assert rep["passed"], rep
        pairings = rep["simple_pairings"]
        assert pairings["alpha_0"] == str(Fraction(5 - 2 * l, 2))
        for i in range(1, l + 1):
            assert pairings["alpha_%d" % i] == "1"
        assert pairings["two_delta_minus_theta"] == "2"


def test_criterion_05_nine_operator_relations_hold():
    for l in (4, 5, 6):
        res = embedding.report(l)
        assert res["passed"], res
        assert {r["relation"] for r in res["relations"]} == set(range(1, 10))
        assert all(r["matches"] and r["degree"] == 2
                   for r in res["relations"])


def test_criterion_06_membership_certificate_reaches_embedded_vector():
    for l in (4, 5, 6):
        start = time.monotonic()
        res = embedding.report(l)["certificate"]
        elapsed = time.monotonic() - start
        assert res["passed"], res
        assert res["matches"]
        assert elapsed < 300.0, \
            "rank %d budget 300s, took %.1fs" % (l, elapsed)


def test_criterion_07_quadratic_state_reduces_with_fixed_scalar():
    res = conformal.report(4)["quadratic"]
    assert res["passed"], res
    assert res["scalar"] == "1"
    assert res["certificate_monomials"] > 1

    # transcription-error control: doubling one monomial must break
    # proportionality
    module = vacuum_module("B", 4)
    target = conformal.quadratic_certificate(module)
    rel = conformal.quadratic_relation_state(module)
    assert rel.multiple_of(target) == 1
    mono = sorted(rel.terms)[0]
    extra = module.act([(1, tuple(((f, 1),) for f in mono))],
                       module.vacuum())
    assert (rel + extra).multiple_of(target) is None


def test_criterion_08_energy_vectors_agree_with_matching_charges():
    for l in (4, 5, 6):
        res = conformal.report(l)["equality"]
        assert res["passed"], res
        level = Fraction(3 - 2 * l, 2)
        c_b = central_charge(algebra("B", l), level)
        c_d = central_charge(algebra("D", l), level)
        assert c_b == c_d == -l * (2 * l - 3)
    assert central_charge(algebra("B", 4), Fraction(-5, 2)) == -20


def test_criterion_09_level_equation_pins_the_special_level():
    for l in range(4, 9):
        roots = solve_level_equation(l)
        assert set(roots) == {Fraction(0), Fraction(3 - 2 * l, 2)}


def test_criterion_10_triality_fixes_vector_and_energy():
    alg = algebra("D", 4)
    three_cycle, swap = d4_symmetries(alg)
    assert not three_cycle.is_identity() and not swap.is_identity()
    # the report checks that the third and second powers are the identity
    rep = triality.report(4)
    assert rep["passed"], rep
    with pytest.raises(ValueError):
        triality.report(5)


def test_criterion_11_structural_property_suites():
    for kind in ("B", "D"):
        alg = algebra(kind, 4)
        assert helpers.exhaustive_jacobi(alg) == []
        assert helpers.exhaustive_invariance(alg) == []
    rng = random.Random(20260816)
    for kind, axiom_cases in (("B", 200), ("D", 100)):
        module = vacuum_module(kind, 4)
        assert helpers.module_axiom_cases(module, rng, axiom_cases) == []
        assert helpers.confluence_cases(module, rng, cases=50) == []
        assert helpers.idempotence_cases(module, rng, cases=30) == []
        assert helpers.roundtrip_cases(module, rng, cases=50) == []
