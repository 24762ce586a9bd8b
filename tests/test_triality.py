"""Diagram symmetries of D_4 lifted to algebra and module automorphisms."""

from fractions import Fraction

import pytest

import helpers
from affine_verma import conformal, liealg, singular, triality, verma
from affine_verma.claims import verifies


@pytest.fixture(scope="module")
def alg():
    return liealg.algebra("D", 4)


@pytest.fixture(scope="module")
def module():
    return verma.vacuum_module("D", 4)


@pytest.fixture(scope="module")
def syms(alg):
    return triality.d4_symmetries(alg)


@verifies("triality-maps")
def test_diagram_symmetries(alg):
    three_cycle, swap = triality.d4_symmetries(alg)
    for auto, sigma in ((three_cycle, (2, 1, 3, 0)), (swap, (3, 1, 2, 0))):
        assert triality.is_diagram_symmetry(alg, sigma)
        assert triality.build_automorphism(alg, sigma).images == auto.images
    # a transposition moving the branch node is not a symmetry
    assert not triality.is_diagram_symmetry(alg, (1, 0, 2, 3))


@verifies("triality-maps")
def test_orders(syms):
    three_cycle, swap = syms
    assert three_cycle.compose(three_cycle).compose(
        three_cycle).is_identity()
    assert swap.compose(swap).is_identity()
    assert not three_cycle.is_identity()
    assert not swap.is_identity()


@verifies("triality-maps")
def test_bracket_preservation_exhaustive(syms):
    for auto in syms:
        assert auto.preserves_brackets()


@verifies("triality-invariance")
def test_fixes_singular_vector(module, syms):
    v = singular.singular_vector(module)
    for auto in syms:
        image = auto.apply_to_state(v)
        assert image == v


@verifies("triality-invariance")
def test_fixes_energy_vector(module, syms):
    omega = conformal.sugawara_vector(module)
    for auto in syms:
        assert auto.apply_to_state(omega) == omega


def test_module_equivariance(module, syms, rng):
    alg = module.alg
    for auto in syms:
        for _ in range(50):
            s = helpers.random_state(module, rng)
            x = rng.randrange(alg.dim)
            n = rng.randint(-2, 1)
            left = auto.apply_to_state(module.apply(helpers.code(alg, (n, x)),
                                                    s))
            right = helpers.apply_elem(module, auto({x: Fraction(1)}), n,
                                       auto.apply_to_state(s))
            assert left == right


def test_identity_automorphism(module, rng):
    ident = triality.Automorphism(
        module.alg, [{i: 1} for i in range(module.alg.dim)], "id")
    assert ident.is_identity()
    s = helpers.random_state(module, rng)
    assert ident.apply_to_state(s) == s


def test_composition_is_automorphism(syms):
    three_cycle, swap = syms
    combo = three_cycle.compose(swap)
    assert combo.preserves_brackets()
    assert not combo.is_identity()


def test_report_is_d4_only():
    rep = triality.report(4)
    assert rep["passed"]
    assert {a["name"] for a in rep["automorphisms"]} \
        == {"three_cycle", "swap"}
    with pytest.raises(ValueError):
        triality.report(5)
