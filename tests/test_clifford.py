"""Defining relations and arithmetic of the fermionic generator algebra."""

from fractions import Fraction

import pytest

from clifford import CliffordAlgebra


@pytest.fixture(scope="module")
def cl():
    return CliffordAlgebra(4)


def test_defining_anticommutators(cl):
    l = cl.l
    gens = [cl.a(i) for i in range(1, l + 1)] + \
           [cl.a_star(i) for i in range(1, l + 1)]
    for gi, g in enumerate(gens):
        for hj, h in enumerate(gens):
            expect = cl.zero()
            if gi < l <= hj and hj - l == gi:
                expect = cl.unit()
            if hj < l <= gi and gi - l == hj:
                expect = cl.unit()
            assert g.anticommutator(h) == expect


def test_squares_vanish(cl):
    for i in range(1, cl.l + 1):
        assert (cl.a(i) * cl.a(i)).is_zero()
        assert (cl.a_star(i) * cl.a_star(i)).is_zero()


def test_reduction_is_confluent_on_reversed_words(cl):
    a, b, s = cl.a(1), cl.a(2), cl.a_star(1)
    left = (a * b) * s
    right = a * (b * s)
    assert left == right
    assert a * s == -(s * a) + cl.unit()


def test_unit_and_scalars(cl):
    x = cl.a(1) * cl.a_star(2)
    assert cl.unit() * x == x
    assert 2 * x - x == x
    assert x / 2 + x / 2 == x
    assert (x - x).is_zero()


def test_normal_ordering_subtracts_contraction(cl):
    # :xy: = (xy - yx)/2 = [x, y]/2, so :a_i a*_i: = a_i a*_i - 1/2 and
    # anticommuting pairs are already normal ordered
    i = 2
    assert cl.a(i).commutator(cl.a_star(i)) / 2 \
        == cl.a(i) * cl.a_star(i) - cl.unit(Fraction(1, 2))
    assert cl.a(1).commutator(cl.a_star(2)) / 2 == cl.a(1) * cl.a_star(2)
    assert cl.a(1).commutator(cl.a(2)) / 2 == cl.a(1) * cl.a(2)


def test_integer_inputs_stay_int(cl):
    # the doubled normal-ordered products behind the bracket table
    doubled = cl.a(1).commutator(cl.a_star(1)) + 2 * cl.a(2) + cl.unit(3)
    assert doubled == 2 * cl.a(1) * cl.a_star(1) + 2 * cl.a(2) + cl.unit(2)
    assert all(type(c) is int for c in doubled.terms.values())
    assert type(next(iter((cl.a(1) * Fraction(1, 2)).terms.values()))) \
        is Fraction


def test_commutator_of_quadratics_is_quadratic(cl):
    # bilinears in fermions close under commutator: degree stays <= 2
    h1 = cl.a(1).commutator(cl.a_star(1)) / 2
    x = cl.a(1) * cl.a_star(2)
    y = cl.a(2) * cl.a_star(3)
    for elem in (h1.commutator(x), x.commutator(y)):
        assert all(d <= 2 for d in elem.degrees())


def test_coefficients_exact(cl):
    x = cl.a(1) * cl.a_star(1) / 3
    y = x + x + x
    diff = y - cl.a(1) * cl.a_star(1)
    assert diff.is_zero()
    assert isinstance(next(iter(x.terms.values())), Fraction)
