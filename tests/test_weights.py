"""Affine weights, pairings, shifted reflections, and admissibility."""

import itertools
import re
import time
from fractions import Fraction

import pytest

import helpers
from affine_verma import liealg, linalg, weights, verma, singular
from affine_verma.claims import verifies


def special_level(l):
    return Fraction(3 - 2 * l, 2)


@verifies("admissibility")
@pytest.mark.parametrize("l", range(4, 9))
def test_admissible_at_special_level(l):
    rep = weights.check_admissible(liealg.algebra("D", l), special_level(l))
    assert rep["admissible"]
    assert not rep["condition_i"]["violations"]
    assert rep["condition_i"]["certified_beyond_bound"]
    assert rep["condition_ii"]["rank"] == l + 1


@verifies("admissibility")
@pytest.mark.parametrize("l", range(4, 9))
def test_named_pairings(l):
    rep = weights.report(l)
    pair = rep["simple_pairings"]
    for i in range(1, l + 1):
        assert pair["alpha_%d" % i] == "1"
    assert pair["alpha_0"] == str(Fraction(5, 2) - l)
    assert pair["two_delta_minus_theta"] == "2"


def test_admissibility_negative_controls():
    alg = liealg.algebra("D", 4)
    # critical level: level + dual Coxeter = 0
    crit = weights.check_admissible(alg, Fraction(-6))
    assert not crit["admissible"] and crit["critical"]
    # integer level -1 puts a nonpositive integer pairing on the affine root
    bad = weights.check_admissible(alg, Fraction(-1))
    assert not bad["admissible"]
    assert bad["condition_i"]["violations"]


def test_admissibility_computes_no_bracket(monkeypatch):
    # admissibility reads root data only; no structure constant is computed
    def refuse(self, i, j):
        raise AssertionError("bracket (%d, %d) computed" % (i, j))

    liealg.algebra.cache_clear()
    monkeypatch.setattr(liealg.LieAlgebra, "_rule", refuse)
    assert weights.report(8, "D")["passed"]


def test_mode_bound_env_and_argument(monkeypatch):
    # only the CLI reads the variable; the library takes the default or
    # the argument
    monkeypatch.setenv(weights.MODE_BOUND_ENV, "33")
    assert weights.report(4)["mode_bound"] == weights.DEFAULT_MODE_BOUND == 20
    alg = liealg.algebra("D", 4)
    assert weights.check_admissible(
        alg, verma.special_level(4))["mode_bound"] == 20
    assert weights.report(4, mode_bound=7)["mode_bound"] == 7


@pytest.mark.parametrize("kind", "BD")
def test_reports_agree_across_bounds(kind):
    # at the special level every threshold and first integral mode is at
    # most 2, so past that the bound shows only in the mode_bound field; a
    # per-mode loop would take seconds at bound 10^6
    alg = liealg.algebra(kind, 8)
    reps = []
    for bound in (20, 200, 10 ** 6):
        start = time.perf_counter()
        reps.append(weights.check_admissible(alg, special_level(8), bound))
        elapsed = time.perf_counter() - start
        assert reps[-1].pop("mode_bound") == bound
    assert elapsed < 1, elapsed
    assert reps[0]["admissible"] and reps[0] == reps[1] == reps[2]


@pytest.mark.parametrize("kind", "BD")
def test_bound_past_sys_maxsize(kind):
    # the library call stays unbounded: a progression of more than
    # sys.maxsize modes has no len(), and its last index is computed
    alg = liealg.algebra(kind, 6)
    want = weights.check_admissible(alg, special_level(6), 10 ** 6)
    start = time.perf_counter()
    got = weights.check_admissible(alg, special_level(6), 10 ** 30)
    elapsed = time.perf_counter() - start
    assert got.pop("mode_bound") == 10 ** 30
    want.pop("mode_bound")
    assert want["admissible"] and got == want
    assert elapsed < 1, elapsed


def test_mode_bound_scaling():
    # neither condition (i), decided per root in closed form, nor the cone
    # test grows with the mode bound; the budget is generous
    alg = liealg.algebra("D", 8)
    start = time.perf_counter()
    rep = weights.check_admissible(alg, special_level(8), 1000)
    elapsed = time.perf_counter() - start
    assert rep["admissible"] and rep["condition_ii"]["rank"] == 9
    assert elapsed < 15, elapsed


@verifies("weight-reflection")
@pytest.mark.parametrize("l", [4, 5, 6])
def test_singular_weight_is_shifted_reflection(l):
    alg = liealg.algebra("D", l)
    lam = weights.vacuum_weight(l, special_level(l))
    root = weights.AffineRoot(tuple(-c for c in alg.theta), 2)
    reflected = weights.reflect_dot(alg, lam, root)
    # finite part: twice the highest root; depth: 4 below the vacuum
    assert reflected.level == lam.level
    assert reflected.finite == tuple(2 * c for c in alg.theta)
    assert reflected.delta == -4
    module = verma.vacuum_module("D", l)
    v = singular.singular_vector(module)
    assert v.degree() == -reflected.delta
    assert tuple(v.weight()) == reflected.finite


def test_reflection_is_involutive(rng):
    alg = liealg.algebra("D", 4)
    lam = weights.vacuum_weight(4, special_level(4))
    finite_roots = list(alg.positive_roots)
    for _ in range(50):
        root = weights.AffineRoot(
            rng.choice(finite_roots), rng.randint(-3, 3))
        once = weights.reflect_dot(alg, lam, root)
        twice = weights.reflect_dot(alg, once, root)
        assert twice == lam


def test_pairing_values():
    alg = liealg.algebra("D", 4)
    level = special_level(4)
    shifted = weights.AffineWeight(alg.rho(), level + alg.dual_coxeter,
                                   Fraction(0))
    # long simple root at mode 0 pairs shifted to 1
    a1 = weights.AffineRoot(alg.simple_roots[0], 0)
    assert weights.pairing(shifted, a1) == 1
    # scaling the mode moves the pairing by level + dual Coxeter
    a1m = weights.AffineRoot(alg.simple_roots[0], 1)
    assert weights.pairing(shifted, a1m) - weights.pairing(shifted, a1) \
        == shifted.level


def test_weight_arithmetic():
    # reflect_dot is the one place weights are combined, componentwise:
    # with rho = (3, 2, 1, 0) and level + dual Coxeter = 13/2 the pairing
    # with (e1 - e2 + delta)^v is 2 ((4 - 2) + 13/2) / 2 = 17/2
    alg = liealg.algebra("D", 4)
    w = weights.AffineWeight((Fraction(1),) + (Fraction(0),) * 3,
                             Fraction(1, 2), Fraction(-2))
    r = weights.reflect_dot(alg, w, weights.AffineRoot((1, -1, 0, 0), 1))
    assert r == weights.AffineWeight(
        (Fraction(-15, 2), Fraction(17, 2), 0, 0), Fraction(1, 2),
        Fraction(-21, 2))
    assert type(r) is weights.AffineWeight and len(r.finite) == 4
    assert weights.vacuum_weight(4, Fraction(1, 2)) == weights.AffineWeight(
        (0,) * 4, Fraction(1, 2), 0)


def test_weight_and_root_value_semantics():
    # both records are plain immutable, hashable tuples of their fields
    w1 = weights.AffineWeight((Fraction(1), Fraction(2)), Fraction(1, 2),
                              Fraction(3))
    w2 = weights.AffineWeight((Fraction(0), Fraction(-1)), Fraction(1),
                              Fraction(-1, 3))
    same = weights.AffineWeight((Fraction(1), Fraction(2)), Fraction(1, 2),
                                Fraction(3))
    assert same == w1 and hash(same) == hash(w1) and same != w2
    r1 = weights.AffineRoot((1, -1), 2)
    r2 = weights.AffineRoot((1, -1), 2)
    assert r1 == r2 and hash(r1) == hash(r2) and len({r1, r2}) == 1
    assert r1 != weights.AffineRoot((1, -1), 1)
    assert repr(r1) == "AffineRoot(finite=(1, -1), mode=2)"
    assert repr(w2) == ("AffineWeight(finite=(Fraction(0, 1), Fraction(-1, "
                        "1)), level=Fraction(1, 1), delta=Fraction(-1, 3))")
    for obj, field in ((w1, "level"), (w1, "finite"), (w1, "other"),
                       (r1, "mode"), (r1, "other")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)


def test_generated_tester_matches_brute_force():
    # independent generators: three with mode zero spanning three of the
    # five finite coordinates, and two with positive mode
    gens = [(1, -1, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0),
            (-1, 0, 0, 0, 0, 1), (0, 1, -1, 1, 0, 2)]
    basis = weights._Basis(6)
    for g in gens:
        basis.add(g)  # raises if the generators are dependent
    # these coefficient bounds cover every representation of the targets
    # below: at most 2 and 1 of the mode generators, and then the remainder
    # fixes the mode-zero coefficients
    reachable = {
        tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(6))
        for coeffs in itertools.product(range(9), range(9), range(5),
                                        range(3), range(2))
    }
    targets = [(a, b, c, d, 0, m) for a in range(-3, 4) for b in range(-3, 4)
               for c in range(-2, 5) for d in (0, 1) for m in (-1, 0, 1, 2)]
    assert [t for t in targets
            if basis.generated(t) != (t in reachable)] == []
    assert basis.generated((1, 0, 0, 0, 0, 0))      # in the cone
    assert basis.generated((-1, 1, 0, 0, 0, 1))     # needs a positive mode
    assert not basis.generated((-1, 0, 0, 0, 0, 0))  # in the span, not the cone
    assert not basis.generated((0, 0, 1, 0, 0, 0))  # in the span, not integral
    assert not basis.generated((0, 0, 0, 0, 1, 0))  # outside the span


def test_generated_tester_rejects_dependent_zero_generators():
    basis = weights._Basis(3)
    basis.add((1, 0, 0))
    basis.add((0, 1, 0))
    with pytest.raises(ValueError):
        basis.add((1, 1, 0))
    # the failed add leaves the basis as it was
    assert basis.vecs == [(1, 0, 0), (0, 1, 0)]
    assert basis.generated((2, 1, 0))
    assert not basis.generated((2, -1, 0))


def _terms(first, step, far):
    # first + j * step * e for j = 0..far, e the last unit vector
    return [first[:-1] + (first[-1] + j * step,) for j in range(far + 1)]


def _gap(basis, first, step, far):
    unit = basis.coordinates((0,) * (basis.d - 1) + (1,))
    return weights._progression_gap(basis.coordinates(first), unit, step, far)


def test_progression_gap_single_failures():
    # g1 = (1, 0) and g2 = (1, 2): e = (g2 - g1) / 2, so a step s along e
    # moves the coordinates by (-s/2, s/2)
    basis = weights._Basis(2)
    basis.add((1, 0))
    basis.add((1, 2))
    # only the far end goes negative: X_j = (2 - j, j)
    assert [basis.generated(t) for t in _terms((2, 0), 2, 3)] == \
        [True, True, True, False]
    assert _gap(basis, (2, 0), 2, 3) == 3
    assert _gap(basis, (2, 0), 2, 2) is None
    # only the step breaks integrality: X_j = (2 - j/2, j/2)
    assert [basis.generated(t) for t in _terms((2, 0), 1, 1)] == [True, False]
    assert _gap(basis, (2, 0), 1, 1) == 1
    assert _gap(basis, (2, 0), 1, 0) is None  # one term: no step to take
    # only the first coordinates are fractional: X_j = (5/2 - j, 1/2 + j)
    assert not any(basis.generated(t) for t in _terms((3, 1), 2, 2))
    assert _gap(basis, (3, 1), 2, 2) == 0
    assert basis.coordinates((3, 1)) == ([5, 1], 2)


def test_progression_gap_matches_per_mode_tester(rng):
    # random lower triangular bases with diagonal 1 or 2, so coordinates
    # have small denominators, against generated on every term; each kind
    # of failure must show up, alone
    seen = {"none": 0, "first": 0, "step": 0, "far": 0}
    for _ in range(3000):
        d = rng.randint(2, 4)
        basis = weights._Basis(d)
        for i in range(d):
            basis.add(tuple(rng.randint(-2, 2) if k < i else
                            rng.randint(1, 2) if k == i else 0
                            for k in range(d)))
        first = tuple(rng.randint(-1, 4) for _ in range(d))
        step, far = rng.randint(1, 3), rng.randint(0, 4)
        terms = _terms(first, step, far)
        bad = [j for j, t in enumerate(terms) if not basis.generated(t)]
        gap = _gap(basis, first, step, far)
        assert (gap is None) == (not bad), (basis.vecs, first, step, far)
        assert gap is None or gap in bad
        coords = [basis.coordinates(t) for t in terms]
        negative = [j for j, (x, c) in enumerate(coords) if min(x) < 0]
        fractional = [j for j, (x, c) in enumerate(coords)
                      if any(t % c for t in x)]
        if not bad:
            seen["none"] += 1
        elif not negative and fractional == list(range(far + 1)):
            seen["first"] += 1
        elif not negative and 0 not in fractional:
            seen["step"] += 1
        elif not fractional and negative == [far]:
            seen["far"] += 1
    assert all(seen.values()), seen


def test_cone_failure_past_full_rank_raises(monkeypatch):
    # D_2 = A1 x A1 is refused: its integral coroots at level 1/2 form two
    # affine A1 systems, four simple coroots in a space of rank 3.  Under
    # another name it passes; the pass keeps (1, 1, 0), (1, -1, 0) and
    # (-1, 1, 2), and the progression check finds 2 delta - (e1 + e2)
    # outside the cone, as add did when it met every coroot
    gaps = []

    def recording(*args):
        gaps.append(real(*args))
        return gaps[-1]

    real = weights._progression_gap
    monkeypatch.setattr(weights, "_progression_gap", recording)
    alg = liealg.LieAlgebra("D", 2)
    alg.kind = "A1xA1"
    with pytest.raises(ValueError, match=r"\(-1, -1, 2\) depends"):
        weights.check_admissible(alg, Fraction(1, 2), 5)
    assert gaps[-1] == 0


def test_cone_work_does_not_grow_with_the_bound(monkeypatch):
    # past full rank one reduction per finite root decides all its modes,
    # so the count of basis reductions is the same at every bound
    count = [0]
    real = weights._Basis._reduce

    def counting(self, vec):
        count[0] += 1
        return real(self, vec)

    monkeypatch.setattr(weights._Basis, "_reduce", counting)
    for kind in "BD":
        counts = []
        for bound in (20, 40, 200):
            count[0] = 0
            rep = weights.check_admissible(liealg.algebra(kind, 8),
                                           special_level(8), bound)
            assert rep["admissible"]
            counts.append(count[0])
        assert counts == counts[:1] * 3, (kind, counts)


def test_matches_reference_tester_on_grid():
    # the DFS tester and Fraction arithmetic that the integer basis replaced;
    # the reference ranks its generators with its own Echelon, so the rank
    # the basis reports as its generator count is checked too
    seen = {"inadmissible": 0, "violations": 0, "low_rank": 0,
            "root_fails_twice": 0, "stepped_progression": 0}
    for kind, l in (("B", 2), ("B", 3), ("B", 4), ("B", 5),
                    ("D", 3), ("D", 4), ("D", 5)):
        alg = liealg.algebra(kind, l)
        # every fourth level n/d in [-(h + 1), 1] with d <= 4
        h = alg.dual_coxeter
        levels = sorted({Fraction(n, d) for d in (1, 2, 3, 4)
                         for n in range(-d * (h + 1), d + 1)})[::4]
        # bound 1 leaves most levels short of full rank; bound 200 is taken
        # at two levels, where the reference is fast enough
        cases = [(level, bound) for level in levels for bound in (1, 2, 5)]
        if l == 4:
            cases += [(special_level(4), 200), (Fraction(-4, 3), 200)]
        for level, bound in cases:
            weight = weights.vacuum_weight(l, level)
            got = weights.check_admissible(alg, level, bound)
            want = helpers.reference_check_admissible(alg, weight, bound)
            assert got == want, (kind, l, level, bound)
            rank = got["condition_ii"]["rank"]
            assert rank == len(got["condition_ii"]["generators"])
            seen["inadmissible"] += not got["admissible"]
            seen["violations"] += bool(got["condition_i"]["violations"])
            seen["low_rank"] += rank < l + 1
            failing = [re.sub(r"^\d+d\+?", "", v["root"])
                       for v in got["condition_i"]["violations"]]
            seen["root_fails_twice"] += len(set(failing)) < len(failing)
            seen["stepped_progression"] += _stepped(alg, level, bound)
    assert all(seen.values()), seen


def _stepped(alg, level, bound):
    # some finite root pairs integrally at two modes <= bound that are
    # more than one apart, and at none between them
    slope = level + alg.dual_coxeter
    if slope <= 0:
        return False
    rho = alg.rho()
    for k, root in enumerate(alg.weights[:2 * alg.npos]):
        n = liealg.root_norm(root)
        q = 2 * sum(r * a for r, a in zip(rho, root)) / Fraction(n)
        modes = [m for m in range(int(k >= alg.npos), bound + 1)
                 if (q + m * 2 * slope / n).denominator == 1]
        if len(modes) > 1 and modes[1] - modes[0] > 1:
            return True
    return False


def test_mode_zero_generators_are_independent():
    # check_admissible tests every mode-zero candidate first, so the mode-zero
    # generators it keeps are simple coroots of a root system
    for kind, l in (("B", 2), ("B", 3), ("D", 3), ("D", 4)):
        alg = liealg.algebra(kind, l)
        for n in range(-12, 5):
            for bound in (2, 5):
                rep = weights.check_admissible(alg, Fraction(n, 2), bound)
                ech = linalg.Echelon()
                for g in rep["condition_ii"]["generators"]:
                    if g["mode"] == 0:
                        vec = weights.AffineRoot(tuple(g["finite"]), 0) \
                            .coroot_vector()
                        assert ech.add(dict(enumerate(vec))), (kind, l, n)


@pytest.mark.parametrize("kind, l, level, labels", [
    ("B", 2, Fraction(-1), ["1-2", "2", "1d-1+2"]),
    ("B", 4, Fraction(-5, 2), ["1-2", "2-3", "3-4", "4", "1d-1"]),
    ("D", 4, Fraction(-5, 2), ["1-2", "2-3", "3+4", "3-4", "2d-1+2"]),
])
def test_generator_lists_pinned(kind, l, level, labels):
    # the order within one mode follows rho . v + big * m; in type B a short
    # coroot has mode component 2m, so the kept list depends on big
    alg = liealg.algebra(kind, l)
    rep = weights.check_admissible(alg, level, 5)
    assert [g["label"] for g in rep["condition_ii"]["generators"]] == labels


def test_d2_is_refused():
    # D_2 = A1 x A1 is not simple: its integral coroots need not form one
    # irreducible system, so one integer basis would not decide the cone
    with pytest.raises(ValueError):
        weights.check_admissible(liealg.algebra("D", 2), Fraction(-1, 2))
