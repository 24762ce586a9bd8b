"""Vacuum module mechanics: straightening, axioms, serialization."""

import json
from fractions import Fraction
from math import gcd

import pytest

import helpers
from affine_verma import (conformal, embedding, liealg, singular, verma,
                          weights, zero_modes)
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
            assert module.apply(helpers.code(module.alg, (n, x)), vac).is_zero()


def test_nonnegative_mode_monomials_rejected(module):
    # e(1-2)(0)|0> is zero in the module, so it is no canonical monomial;
    # nor is one whose mode is no int (the state schema asks for an integer
    # mode <= -1).  An index outside the basis has no int factor
    alg = module.alg
    label = liealg.root_label(alg.rm(1, 2))
    x = alg.e_index(alg.rm(1, 2))
    module.state({helpers.code(alg, ((-1, x),)): 1})
    for modes in ((0,), (-1, 0), (-2, 1)):
        with pytest.raises(ValueError):
            module.state({helpers.code(alg, [(n, x) for n in modes]): 1})
    for modes in ((0,), (-1, 0), (-2, 1), (-1.5,), (-1.0,), (Fraction(-1),)):
        obj = [{"coeff": "1",
                "monomial": [["e", label, n] for n in modes]}]
        with pytest.raises(ValueError):
            PBWState.from_obj(module, obj)


def test_central_term_on_vacuum(module):
    # f_theta(1) e_theta(-1) 1 = [f, e](0) 1 + (f, e) k 1 = k 1
    alg = module.alg
    e, f = alg.e_index(alg.theta), alg.f_index(alg.theta)
    got = module.apply(helpers.code(alg, (1, f)),
                       module.apply(helpers.code(alg, (-1, e)), module.vacuum()))
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
    # the state schema: coeff a reduced "p/q" string, an int datum for
    # role h, a root label for e and f in the text to_obj writes
    label = liealg.root_label(root)
    for coeff, factor in ((0.1, ["e", label, -1]), (1, ["e", label, -1]),
                          ("2/4", ["e", label, -1]), ("0.5", ["e", label, -1]),
                          ("1", ["h", "1", -1]), ("1", ["e", 1, -1]),
                          ("1", ["f", 1, -1]), ("1", ["x", label, -1])):
        with pytest.raises(ValueError):
            PBWState.from_obj(module, [{"coeff": coeff,
                                        "monomial": [factor]}])
    # a term is an object with exactly the keys coeff and monomial, and the
    # monomial an array
    for term in ({"monomial": []}, {"coeff": "1"}, "x", ["1", []],
                 {"coeff": "1", "monomial": [], "extra": 1},
                 {"coeff": "1", "monomial": 5},
                 {"coeff": None, "monomial": []},
                 {"coeff": "1/0", "monomial": []},
                 {"coeff": "1", "monomial": [5]},
                 {"coeff": "1", "monomial": [["e", label]]},
                 {"coeff": "1", "monomial": ["e1-"]},
                 {"coeff": "1", "monomial": [["e", "1-", -1]]},
                 {"coeff": "1", "monomial": [["e", "9", -1]]},
                 {"coeff": "1", "monomial": [["e", "01-2", -1]]},
                 {"coeff": "1", "monomial": [["e", " 1-2", -1]]},
                 {"coeff": "1", "monomial": [["e", "1-+2", -1]]},
                 {"coeff": "1", "monomial": [["e", "2+1", -1]]},
                 {"coeff": "1", "monomial": [["e", "01", -1]]}):
        with pytest.raises(ValueError):
            PBWState.from_obj(module, [term])
    # a root label the algebra lacks: type D has no short root
    if alg.kind == "D":
        with pytest.raises(ValueError):
            PBWState.from_obj(module, [{"coeff": "1",
                                        "monomial": [["e", "1", -1]]}])
    # a factor's role and datum are the str and int or str to_obj writes:
    # True, False and 1.0 are no Cartan index, a list no role or label
    for factor in (["h", True, -1], ["h", False, -1], ["h", 1.0, -1],
                   [["e"], label, -1], ["e", [label], -1]):
        with pytest.raises(ValueError):
            PBWState.from_obj(module, [{"coeff": "1", "monomial": [factor]}])
    # the document is a list of terms
    for doc in (5, None, {"coeff": "1", "monomial": []}):
        with pytest.raises(ValueError):
            PBWState.from_obj(module, doc)
    # to_obj writes one term per monomial and never a zero coeff
    for doc in ([{"coeff": "1", "monomial": []}] * 2,
                [{"coeff": "0", "monomial": []}]):
        with pytest.raises(ValueError):
            PBWState.from_obj(module, doc)
    assert PBWState.from_obj(module, [{"coeff": "1", "monomial": []}]) == \
        module.vacuum()


def test_state_arithmetic(module):
    vac = module.vacuum()
    e = module.alg.e_index(module.alg.theta)
    s = module.apply(helpers.code(module.alg, (-1, e)), vac)
    assert (s + s) == 2 * s
    assert (s - s).is_zero()
    assert (-s) == -1 * s
    assert s * Fraction(1, 3) + s * Fraction(2, 3) == s
    assert s.terms[next(iter(s.terms))] == 1


def test_float_coefficients_rejected(module):
    # 0.1 is 3602879701896397/2**55 in binary; no state takes it silently
    vac = module.vacuum()
    for product in (lambda: vac * 0.1, lambda: 0.1 * vac):
        with pytest.raises(TypeError):
            product()
    with pytest.raises(TypeError):
        module.state({(): 0.1})
    # nor does a term's coefficient, in whichever term it stands, or a
    # multiplier at a position
    alg = module.alg
    for word in ([(0.5, ((-1, 0),))], [(1, ((-1, 0),)), (0.5, ())]):
        with pytest.raises(TypeError, match="0.5"):
            module.act(helpers.terms_of(alg, word), vac)
    with pytest.raises(TypeError, match="0.5"):
        module.build([(0.5, (((helpers.code(alg, (-1, 0)), 1),),))])
    for pos in (((helpers.code(alg, (-1, 0)), 0.5),),
                ((helpers.code(alg, (-1, 1)), 1),
                 (helpers.code(alg, (1, 0)), 0.5))):
        with pytest.raises(TypeError, match="0.5"):
            module.build([(1, (pos,))])


def test_float_levels_rejected():
    # Fraction(0.1) would make the level 3602879701896397/2**55; a float
    # equal to a cached level (1.0 == 1) is refused as well, and so is a
    # bool, which Python counts as an int; a rank or a denominator that is
    # no int, or is a bool, is refused the same way
    alg = liealg.algebra("D", 4)
    assert verma.vacuum_module("D", 4, 1).level == 1
    half = Fraction(-5, 2)
    assert verma.vacuum_module("D", 4, half).level == half
    liealg.algebra("B", 1)
    for rank in (True, 1.5, 4.0, "4"):
        for make in (lambda: liealg.algebra("B", rank),
                     lambda: verma.vacuum_module("D", rank)):
            with pytest.raises(TypeError, match="rank"):
                make()
    module = verma.vacuum_module("D", 4)
    for den in (True, Fraction(1, 2), 2.0):
        with pytest.raises(TypeError, match="denominator"):
            module.state({(): 1}, den)
    for level in (0.1, 1.0, -2.5, 1 / 3, "1/2", True, False):
        for make in (lambda: verma.vacuum_module("D", 4, level),
                     lambda: verma.VermaModule(alg, level),
                     lambda: weights.check_admissible(alg, level),
                     lambda: weights.vacuum_weight(4, level),
                     lambda: conformal.central_charge(alg, level)):
            with pytest.raises(TypeError, match="level"):
                make()


def test_zero_denominator_rejected(module):
    # a state over 0 is no number; a negative denominator is normalised
    with pytest.raises(ValueError):
        module.state({(): 1}, 0)
    assert module.state({(): 1}, -2) == module.vacuum() * Fraction(-1, 2)
    assert module.state({(): 1}, -2).den == 2


def test_degree_and_weight(module, rng):
    alg = module.alg
    e = alg.e_index(alg.theta)
    s = module.apply(helpers.code(alg, (-2, e)),
                     module.apply(helpers.code(alg, (-1, e)), module.vacuum()))
    assert s.degree() == 3
    assert tuple(s.weight()) == tuple(2 * c for c in alg.theta)
    assert module.vacuum().degree() == 0

    # weight() against the coordinate-by-coordinate sum over each monomial:
    # an int tuple, None for a mixed or zero state
    def reference(state):
        seen = set()
        for mono in state.nums:
            w = [0] * alg.l
            for _, x in (verma.decode(alg, f) for f in mono):
                for i, c in enumerate(alg.weights[x]):
                    w[i] += c
            seen.add(tuple(w))
        return seen.pop() if len(seen) == 1 else None

    states = [module.vacuum(), module.zero(), singular.singular_vector(module)]
    for _ in range(60):
        t = helpers.random_state(module, rng)
        states += [t, t + module.vacuum()]
    for t in states:
        got = t.weight()
        assert got == reference(t)
        assert got is None or all(type(c) is int for c in got)
    assert module.zero().weight() is None
    assert module.vacuum().weight() == (0,) * alg.l


def test_multiple_of(module):
    alg = module.alg
    s = module.apply(helpers.code(alg, (-1, alg.e_index(alg.theta))),
                     module.vacuum())
    t = Fraction(-7, 3) * s
    assert t.multiple_of(s) == Fraction(-7, 3)
    assert s.multiple_of(module.zero()) is None
    assert module.zero().multiple_of(s) == 0
    h = module.apply(helpers.code(alg, (-1, alg.h_index(1))), module.vacuum())
    assert (s + h).multiple_of(s) is None


def test_symbolic_grammar_expansion(module):
    alg = module.alg
    E, F, H = verma.vocabulary(alg)
    h1, h2 = alg.h_index(1), alg.h_index(2)
    vac = module.vacuum()
    code = helpers.code
    # E and F are one factor; H is the Cartan coordinates of the coroot
    assert E(alg.theta) == ((code(alg, (-1, alg.e_index(alg.theta))), 1),)
    assert F(alg.theta, 0) == ((code(alg, (0, alg.f_index(alg.theta))), 1),)
    assert H(alg.rm(1, 2)) == ((code(alg, (-1, h1)), 1),
                               (code(alg, (-1, h2)), -1))
    # a product of sums is the sum over a choice of a pair at each
    # position, coeff times the chosen multipliers
    e = alg.e_index(alg.theta)
    built = module.build([(Fraction(1, 3), (E(alg.theta), H(alg.rm(1, 2),
                                                            -2)))])
    assert built == Fraction(1, 3) * module.apply(
        code(alg, (-1, e)), module.apply(code(alg, (-2, h1)), vac)) \
        - Fraction(1, 3) * module.apply(
            code(alg, (-1, e)), module.apply(code(alg, (-2, h2)), vac))
    # an H position expands into Cartan coordinates of the coroot
    built = module.build([(1, (H(alg.rm(1, 2)),))])
    direct = module.apply(code(alg, (-1, h1)), module.vacuum()) \
        - module.apply(code(alg, (-1, h2)), module.vacuum())
    assert built == direct
    # coordinate weights work in both types (not roots in type D)
    built = module.build([(1, (H(alg.rs(1)),))])
    assert built == 2 * module.apply(code(alg, (-1, h1)), module.vacuum())


@pytest.mark.parametrize("kind", ["B", "D"])
def test_formulas_share_one_factor_format(kind, monkeypatch):
    # every formula of the paper is written in verma.vocabulary: each
    # position of a term is a non-empty tuple of (factor, int) pairs, the
    # factor an int as in monomials, at a mode from -3 to 0.  The conformal terms are read where
    # their fixed states hand them to act, on a fresh module that builds
    # every fixed state anew
    module = _fresh_module(kind, 4, None)
    alg = module.alg
    formulas = [singular.flat_terms(alg)]
    if kind == "D":
        for _, params, _, lhs, rhs in zero_modes.identity_table(alg):
            formulas += [f(*p) for p in params for f in (lhs, rhs)]
    else:
        for _, _, lhs, rhs in embedding.relation_instances(alg):
            formulas += [[(1, lhs)], rhs]
        formulas.append(embedding.certificate_word(alg))
        act = verma.VermaModule.act
        recorded = len(formulas)

        def record(self, terms, state):
            formulas.append(terms)
            return act(self, terms, state)

        monkeypatch.setattr(verma.VermaModule, "act", record)
        conformal.quadratic_certificate(module)
        conformal.quadratic_relation_state(module)
        # the singular vector the certificate acts on, then both formulas
        assert len(formulas) == recorded + 3
    positions = [pos for terms in formulas for _, term in terms
                 for pos in term]
    assert len(positions) > 100
    for pos in positions:
        assert type(pos) is tuple and pos, pos
        for pair in pos:
            f, c = pair
            assert type(f) is int and type(c) is int, pair
            assert -3 <= verma.decode(alg, f)[0] <= 0, pair


def test_apply_rejects_foreign_state():
    mb = verma.vacuum_module("B", 4)
    md = verma.vacuum_module("D", 4)
    with pytest.raises(ValueError):
        mb.apply(helpers.code(mb.alg, (-1, 0)), md.vacuum())


def test_level_override():
    m = verma.vacuum_module("B", 4, level=Fraction(1))
    e = m.alg.e_index(m.alg.theta)
    f = m.alg.f_index(m.alg.theta)
    got = m.apply(helpers.code(m.alg, (1, f)),
                  m.apply(helpers.code(m.alg, (-1, e)), m.vacuum()))
    assert got == m.vacuum()


# ---- the int kernel against the Fraction reference --------------------------

LEVELS = [None, Fraction(1), Fraction(-5, 3), Fraction(7, 4)]


def _fresh_module(kind, l, level):
    level = Fraction(3 - 2 * l, 2) if level is None else level
    return verma.VermaModule(liealg.algebra(kind, l), level)


def _random_word(alg, rng, positive):
    """1-3 terms, each with `positive` positive-mode factors placed among
    0-3 negative-mode ones.  Positive-mode factors are mostly Cartan, which
    keeps the weight and so often leaves something nonzero."""
    cartan = [alg.h_index(i) for i in range(1, alg.l + 1)]
    word = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(0, 3)):
            x = rng.randrange(alg.dim)
            factors.append((-rng.randint(1, 2), x))
        for _ in range(positive):
            x = rng.choice(cartan) if rng.random() < 0.7 \
                else rng.randrange(alg.dim)
            factors.insert(rng.randint(0, len(factors)), (rng.randint(1, 2), x))
        word.append((Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)),
                     factors))
    return word


@pytest.mark.parametrize("level", LEVELS, ids=str)
@pytest.mark.parametrize("l", [4, 5])
@pytest.mark.parametrize("kind", ["B", "D"])
def test_int_kernel_matches_fraction_reference(kind, l, level, rng):
    module = _fresh_module(kind, l, level)
    alg = module.alg
    memo = {}

    def ref(word, state):
        return helpers.reference_act(module, word, state, memo)

    # the central term on its own, then stacked: f(1) f(1) on e(-1) e(-1)
    e, f = alg.e_index(alg.theta), alg.f_index(alg.theta)
    h = alg.h_index(1)
    start = ref([(1, [(-1, e), (-1, e)]), (Fraction(2, 3), [(-1, h), (-2, h)])],
                module.vacuum())
    fixed = [[(1, [(1, f)])], [(Fraction(1, 5), [(1, f), (1, f)])],
             [(1, [(2, h)]), (Fraction(-3, 2), [(1, h), (1, f), (-1, e)])]]
    for word in fixed:
        assert module.act(helpers.terms_of(alg, word), start) == \
            ref(word, start), word
    # f(1) e(-1)^2 |0> = (2k - 2) e(-1)|0>, then f(1) e(-1)|0> = k|0>
    k = module.level
    assert module.act(helpers.terms_of(alg, fixed[1]), start) == \
        Fraction(2, 5) * k * (k - 1) * module.vacuum()

    nonzero = {0: 0, 1: 0, 3: 0}
    for _ in range(12):
        state = ref(_random_word(alg, rng, 0), module.vacuum()) + start
        for positive in nonzero:
            word = _random_word(alg, rng, positive)
            got = module.act(helpers.terms_of(alg, word), state)
            assert got == ref(word, state), word
            nonzero[positive] += not got.is_zero()
            x, n = rng.randrange(alg.dim), rng.randint(-2, 2)
            assert module.apply(helpers.code(alg, (n, x)), state) == \
                ref([(1, [(n, x)])], state)
            elem = {rng.randrange(alg.dim): Fraction(rng.randint(1, 5), 3)
                    for _ in range(2)}
            assert helpers.apply_elem(module, elem, n, state) == \
                ref([(c, [(n, y)]) for y, c in elem.items()], state)
    assert all(nonzero.values()), nonzero


def _random_terms(alg, rng):
    """1-3 terms of 0-3 positions each, as the paper's displays write them:
    a multi-pair Cartan sum (an H), or one or two pairs of any index, with
    int factors and
    Fraction multipliers such as triality's 1/2; a pair keeps its
    position's mode nine times in ten; the first term comes back negated,
    or with a position that cancels, or with no positions, and one term in
    ten has an empty position."""
    cartan = [alg.h_index(i) for i in range(1, alg.l + 1)]
    mults = (1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))
    terms = []
    for _ in range(rng.randint(1, 3)):
        positions = []
        for _ in range(rng.randint(0, 3)):
            n = rng.choice((-2, -1, -1, 0, 1, 2))
            xs = rng.sample(cartan, rng.randint(2, 3)) if rng.random() < 0.4 \
                else [rng.randrange(alg.dim) for _ in range(rng.randint(1, 2))]
            positions.append(tuple(
                (helpers.code(alg, (n if rng.random() < 0.9
                                    else rng.randint(-2, 2), x)),
                 rng.choice(mults)) for x in xs))
        if rng.random() < 0.1:
            positions.insert(rng.randint(0, len(positions)), ())
        terms.append((Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)),
                       tuple(positions)))
    c, positions = terms[0]
    way = rng.randrange(3)
    if way == 0:
        terms.append((-c, positions))
    elif way == 1 and positions:
        i = rng.randrange(len(positions))
        pos = positions[i]
        positions = positions[:i] + (pos + tuple((f, -m) for f, m in pos),) \
            + positions[i + 1:]
        terms.append((c, positions))
    else:
        terms.append((c, ()))
    rng.shuffle(terms)
    return terms


@pytest.mark.parametrize("level", LEVELS, ids=str)
@pytest.mark.parametrize("kind", ["B", "D"])
def test_act_on_positions_matches_reference(kind, level, rng):
    # act takes each position's sum in one pass, with one int scale per
    # position; the reference multiplies the terms out into words and acts
    # factor by factor in Fraction.  Levels -5/3 and 7/4 make the kernel's
    # positive-mode scale 3 and 4, which belongs in a term's denominator
    # and not in its multipliers
    module = _fresh_module(kind, 4, level)
    alg = module.alg
    memo = {}
    e, h = alg.e_index(alg.theta), alg.h_index(1)
    start = helpers.reference_act(
        module, [(1, [(-1, e), (-1, e)]), (Fraction(2, 3), [(-1, h), (-2, h)])],
        module.vacuum(), memo)
    nonzero = {"positive": 0, "fraction": 0, "multi": 0}
    for _ in range(60):
        state = helpers.reference_act(module, _random_word(alg, rng, 0),
                                      module.vacuum(), memo) + start
        terms = _random_terms(alg, rng)
        got = module.act(terms, state)
        want = helpers.reference_act(module, helpers.multiply_out(alg, terms),
                                     state, memo)
        assert got == want, terms
        if not got.is_zero():
            pairs = [pair for _, positions in terms for pos in positions
                     for pair in pos]
            nonzero["positive"] += any(verma.decode(alg, f)[0] > 0
                                       for f, _ in pairs)
            nonzero["fraction"] += any(type(m) is Fraction for _, m in pairs)
            nonzero["multi"] += any(len(pos) > 1 for _, positions in terms
                                    for pos in positions)
    assert min(nonzero.values()) >= 10, nonzero


def test_act_rejects_bad_factors():
    # a factor is an int, checked while act plans the terms, before any
    # state is touched: the memo stays empty even behind a valid term that
    # would fill it.  Every int is some x(n), so the out-of-range indices
    # this test once passed (999, dim, -1 at D_4) have no factor to write
    module = _fresh_module("D", 4, None)
    alg = module.alg
    e, f = alg.e_index(alg.theta), alg.f_index(alg.theta)
    state = module.state({(helpers.code(alg, (-1, e)),): 1})
    good = (helpers.code(alg, (1, f)), 1)
    for factor in ((-1, 3), [-1, 3], -1.0, 3.0, Fraction(-1), True, False,
                   "-1", None):
        with pytest.raises(ValueError):
            module.apply(factor, state)
        # in any term and position, even one acting on the zero state
        with pytest.raises(ValueError):
            module.act([(1, ((good,),)), (1, ((good, (factor, 2)),))], state)
        with pytest.raises(ValueError):
            module.act([(1, ((good,), ((factor, 1),)))], module.zero())
        assert module._memo == {}
    assert module.act([(1, ((good,),))], state) == \
        module.level * module.vacuum()
    assert module._memo


@pytest.mark.parametrize("l", range(4, 9))
@pytest.mark.parametrize("kind", ["B", "D"])
def test_factor_codes_order_as_mode_index_pairs(kind, l):
    # x(n) is one int that sorts as (mode, index) does, decodes back to
    # it, and is negative exactly when its mode is
    alg = liealg.algebra(kind, l)
    pairs = [(n, x) for n in range(-3, 3) for x in range(alg.dim)]
    codes = [verma.encode(alg, n, x) for n, x in pairs]
    assert all(type(f) is int for f in codes)
    assert all(a < b for a, b in zip(codes, codes[1:]))
    assert [verma.decode(alg, f) for f in codes] == pairs
    assert [f < 0 for f in codes] == [n < 0 for n, _ in pairs]


def test_monomials_refuse_factors_of_other_formats(module):
    # a monomial's factor is a negative int: no nonnegative one (its mode
    # kills the vacuum), no float, no bool and no (mode, index) pair;
    # from_obj reads [role, datum, mode] lists with an int mode only
    alg = module.alg
    x = alg.e_index(alg.theta)
    f = verma.encode(alg, -1, x)
    module.state({(verma.encode(alg, -2, x), f): 1})
    for bad in (verma.encode(alg, 0, x), verma.encode(alg, 1, x), float(f),
                True, False, (-1, x)):
        for mono in ((bad,), (verma.encode(alg, -2, x), bad)):
            with pytest.raises(ValueError):
                module.state({mono: 1})
    label = liealg.root_label(alg.theta)
    PBWState.from_obj(module, [{"coeff": "1", "monomial": [["e", label, -1]]}])
    for bad in (["e", label, 0], ["e", label, 1], ["e", label, -1.0],
                ["e", label, True], ["e", label, False], ["e", label, "-1"],
                ["e", label, None], ("e", label, -1), [-1, x], (-1, x), f):
        with pytest.raises(ValueError):
            PBWState.from_obj(module, [{"coeff": "1", "monomial": [bad]}])


@pytest.mark.parametrize("l", range(2, 13))
@pytest.mark.parametrize("kind", ["B", "D"])
def test_pair_table_is_the_form(kind, l):
    # the central term reads (x, y) from one partner per basis index: e and
    # f of a root pair at 2/(alpha, alpha), H_i with itself at 1, and the
    # partner of the partner is the index itself
    alg = liealg.LieAlgebra(kind, l)
    assert len(alg.pair) == alg.dim
    for root in alg.positive_roots:
        e, f = alg.e_index(root), alg.f_index(root)
        v = Fraction(2, liealg.root_norm(root))
        assert alg.pair[e] == (f, v) and alg.pair[f] == (e, v), root
    for i in range(1, l + 1):
        assert alg.pair[alg.h_index(i)] == (alg.h_index(i), 1)
    assert all(type(v) is int for _, v in alg.pair)
    assert [alg.pair[y] for y, _ in alg.pair] == \
        [(x, v) for x, (_, v) in enumerate(alg.pair)]


def _random_mono(alg, rng, length):
    return tuple(sorted((-rng.randint(1, 3), rng.randrange(alg.dim))
                        for _ in range(length)))


def _random_factor(alg, rng, low, high):
    """A factor (mode, index) with its index drawn first."""
    x = rng.randrange(alg.dim)
    return (rng.randint(low, high), x)


@pytest.mark.parametrize("level", [None, Fraction(-5, 3)], ids=str)
@pytest.mark.parametrize("l", [6, 7, 8])
@pytest.mark.parametrize("kind", ["B", "D"])
def test_kernel_shortcuts_match_reference(kind, l, level, rng):
    # x(n) with n >= 0 and no partner in the monomial is zero and stores
    # nothing; x(n) with n < 0 and no partner among the factors it passes
    # is inserted in place and stored alone; everything else sums one
    # commutator term per passed partner (the Leibniz rule).
    # Every result is held against the Fraction reference, which has no
    # shortcut
    module = _fresh_module(kind, l, level)
    alg = module.alg
    memo = {}
    scale = module.level.denominator
    taken = {"zero": 0, "insert": 0, "recurse": 0}
    for _ in range(400):
        mono = _random_mono(alg, rng, rng.randint(1, 4))
        entry = _random_factor(alg, rng, -3, 2)
        n, x = entry
        passed = [f[1] for f in mono if n >= 0 or f < entry]
        key = helpers.code(alg, entry), helpers.code(alg, mono)
        before = len(module._memo)
        fresh = key not in module._memo
        got = tuple(module.operator_terms(*key))
        want = helpers.reference_apply_mono(module, entry, mono, memo)
        assert dict(got) == {helpers.code(alg, m): c * (scale if n > 0 else 1)
                             for m, c in want}, (entry, mono)
        if n < 0 and entry <= mono[0] or not fresh:
            continue
        if not any(alg.reach[x] & alg.held[y] for y in passed):
            if n >= 0:
                taken["zero"] += 1
                assert got == () and len(module._memo) == before
            else:
                taken["insert"] += 1
                assert got == ((helpers.code(alg, sorted(mono + (entry,))),
                                1),)
                assert len(module._memo) == before + 1
        else:
            taken["recurse"] += 1
    assert min(taken.values()) >= 30, taken
    nonzero = 0
    for _ in range(20):
        state = module.state({helpers.code(alg, _random_mono(
            alg, rng, rng.randint(0, 3))): Fraction(rng.randint(1, 9),
                                                    rng.randint(1, 4))
            for _ in range(3)})
        word = [(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3)),
                 [_random_factor(alg, rng, -3, 2)
                  for _ in range(rng.randint(1, 3))])
                for _ in range(2)]
        got = module.act(helpers.terms_of(alg, word), state)
        assert got == helpers.reference_act(module, word, state, memo), word
        nonzero += not got.is_zero()
    assert nonzero >= 5, nonzero
    # act skips the numerators a factor cancels, and it and the kernel
    # prepend a negative-mode factor that sorts first without a call: words
    # built to take each path.  x(2) sends y(-1) z(-1) to a multiple of the
    # vacuum, so two such monomials weighted against each other cancel there
    cancelled = 0
    for x in rng.sample(range(alg.dim), 12):
        images = {}
        for y in range(alg.dim):
            # z a partner of [x, y], so ([x, y], z) k is likely nonzero
            for w, _ in alg.bracket(x, y)[:1]:
                z = next(z for z in range(alg.dim) if alg.form(w, z))
                mono = tuple(sorted(((-1, y), (-1, z))))
                c = dict(helpers.reference_apply_mono(
                    module, (2, x), mono, memo)).get((), 0)
                if c:
                    images[mono] = c
            if len(images) == 2:
                break
        else:
            continue
        (a, ca), (b, cb) = images.items()
        state = module.state({helpers.code(alg, a): cb,
                              helpers.code(alg, b): -ca,
                              helpers.code(alg, _random_mono(alg, rng, 3)):
                              Fraction(1, 2)})
        word = [(1, [_random_factor(alg, rng, -2, 1), (2, x)])]
        got = module.act(helpers.terms_of(alg, word), state)
        assert got == helpers.reference_act(module, word, state, memo), word
        cancelled += 1
    assert cancelled >= 5, cancelled
    # the first factor of the monomial twice (entry == mono[0]), one at
    # mode -4 that sorts before every factor, then a zero and a positive
    # mode, whose recursion re-prepends the factors it peels
    nonzero = 0
    for _ in range(20):
        mono = _random_mono(alg, rng, rng.randint(1, 3))
        factors = [_random_factor(alg, rng, 1, 2),
                   (0, rng.randrange(alg.dim)), (-4, rng.randrange(alg.dim)),
                   mono[0], mono[0]]
        state = module.state({helpers.code(alg, mono): 3,
                              helpers.code(alg, _random_mono(alg, rng, 2)): -1})
        for word in ([(1, factors)], [(1, factors[1:])], [(2, factors[2:])]):
            got = module.act(helpers.terms_of(alg, word), state)
            assert got == helpers.reference_act(module, word, state, memo), \
                word
            nonzero += not got.is_zero()
    assert nonzero >= 20, nonzero


@pytest.mark.parametrize("level", [None, Fraction(-5, 3)], ids=str)
@pytest.mark.parametrize("l", [4, 5, 6])
@pytest.mark.parametrize("kind", ["B", "D"])
def test_leibniz_paths_match_reference(kind, l, level, rng):
    # two paths of the Leibniz sum, each classified from the input and held
    # against the peeling Fraction reference: a bracket term that sorts
    # before the last factor of its prefix, so the prefix is put back one
    # factor at a time (tied modes make it common), and a central term from
    # a form partner at mode -n that is the third factor or later
    module = _fresh_module(kind, l, level)
    alg = module.alg
    memo = {}
    scale = module.level.denominator
    taken = {"put_back": 0, "interior_central": 0}

    def check(factor, mono):
        key = helpers.code(alg, factor), helpers.code(alg, mono)
        fresh = key not in module._memo
        got = dict(module.operator_terms(*key))
        want = helpers.reference_apply_mono(module, factor, mono, memo)
        assert got == {helpers.code(alg, m): c * (scale if factor[0] > 0 else 1)
                       for m, c in want}, (factor, mono)
        return fresh

    for _ in range(300):
        mode = -rng.randint(1, 2)
        mono = tuple(sorted((mode, rng.randrange(alg.dim))
                            for _ in range(rng.randint(2, 4))))
        factor = _random_factor(alg, rng, mode, 1)
        if not check(factor, mono):
            continue
        n, x = factor
        passed = [i for i, f in enumerate(mono) if n >= 0 or f < factor]
        taken["put_back"] += any(
            mono1 and mono1[0] < mono[i - 1]
            for i in passed[1:] for z, _ in alg.bracket(x, mono[i][1])
            for mono1, _ in helpers.reference_apply_mono(
                module, (n + mono[i][0], z), mono[i + 1:], memo))
    for _ in range(60):
        n, x = rng.randint(1, 2), rng.randrange(alg.dim)
        y = next(y for y in range(alg.dim) if alg.form(x, y))
        mono = tuple(sorted([(-n, y)] + [
            (-rng.randint(n, 3), rng.randrange(alg.dim))
            for _ in range(rng.randint(2, 3))]))
        if check((n, x), mono):
            taken["interior_central"] += any(
                i >= 2 and m == -n and alg.form(x, z)
                for i, (m, z) in enumerate(mono))
    assert min(taken.values()) >= 30, taken


def test_prepends_store_nothing(fresh_caches):
    # sort-first prepends, proven zeros (a nonnegative mode with no
    # partner) and peeled suffixes store nothing: the kernel stores the
    # (factor, monomial) it is called on, not x(n) on the tails it passes
    singular.report("D", 5)
    assert len(verma.vacuum_module("D", 5)._memo) == 1438


def test_one_memo_read_per_miss(fresh_caches):
    # a miss is read once and then stored; a proven zero is answered before
    # any read.  So the keys read and missed are exactly the stored ones,
    # each missed once
    misses = {}

    class Memo(dict):
        def get(self, key):
            hit = dict.get(self, key)
            if hit is None:
                misses[key] = misses.get(key, 0) + 1
            return hit

    module = verma.vacuum_module("D", 5)
    module._memo = Memo()
    singular.report("D", 5, strict=True)
    assert len(module._memo) > 1438
    assert misses == dict.fromkeys(module._memo, 1)


@pytest.mark.parametrize("level", [Fraction(-5, 3), None], ids=str)
@pytest.mark.parametrize("kind", ["B", "D"])
def test_singular_space_from_scaled_rows(kind, level):
    # solve_singular_space builds its rows from operator_terms, so its
    # positive-mode rows arrive scaled by level.denominator; a row is one
    # operator's, so the scale is uniform and the nullspace is the Fraction one
    module = _fresh_module(kind, 4, level)
    ref = _fresh_module(kind, 4, level)
    memo = {}
    alg = ref.alg

    def reference(factor, mono):
        terms = helpers.reference_apply_mono(
            ref, verma.decode(alg, factor),
            tuple(verma.decode(alg, f) for f in mono), memo)
        return tuple(v for m, c in terms for v in (helpers.code(alg, m), c))

    ref._apply_mono = reference
    profile = singular.expected_profile(module.alg)
    for args in (profile, (2, (0,) * 4)):
        got = singular.solve_singular_space(module, *args)
        want = singular.solve_singular_space(ref, *args)
        assert [s.terms for s in got] == [s.terms for s in want], args


def _canonical(state):
    """The state, after asserting its int-over-one-denominator form."""
    assert all(type(v) is int and v for v in state.nums.values())
    assert type(state.den) is int and state.den >= 1
    assert gcd(state.den, *state.nums.values()) == 1
    return state


@pytest.mark.parametrize("level", [Fraction(-5, 2), Fraction(7, 4)], ids=str)
@pytest.mark.parametrize("kind", ["B", "D"])
def test_int_state_matches_fraction_reference(kind, level, rng):
    module = _fresh_module(kind, 4, level)
    memo = {}
    states = [helpers.random_state(module, rng) for _ in range(8)]
    states.append(module.zero())
    for a, b in zip(states, states[1:] + states[:1]):
        ra, rb = helpers.FractionState(a.terms), helpers.FractionState(b.terms)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for got, want in ((a + b, ra + rb), (a - b, ra - rb), (-a, -ra),
                          (c * a, c * ra), (a * 6, ra * 6), (0 + a, ra)):
            assert _canonical(got).terms == want.terms
        for same in ((a + b) - b, a * 6 * Fraction(1, 6), -(-a)):
            assert same == a and hash(same) == hash(a)
        assert (a == b) == (ra == rb)
        assert (c * a).multiple_of(a) == (c * ra).multiple_of(ra)
        assert (a + b).multiple_of(b) == (ra + rb).multiple_of(rb)
        for mono in sorted(ra.terms)[:2] + [(), (helpers.code(module.alg,
                                                              (-1, 0)),)]:
            assert a.terms.get(mono, 0) == ra.coefficient(mono)
        word = _random_word(module.alg, rng, rng.randint(0, 2))
        assert _canonical(module.act(helpers.terms_of(module.alg, word),
                                     a)).terms == \
            helpers.reference_act_terms(module, word, ra, memo)
        back = PBWState.from_obj(module, a.to_obj())
        assert _canonical(back) == a and back.terms == ra.terms
