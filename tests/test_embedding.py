"""Basis embedding D_l -> B_l, the nine relations, and the certificate."""

from fractions import Fraction

import pytest

import helpers
from affine_verma import embedding, liealg, singular, verma
from affine_verma.claims import verifies


@verifies("embedding-relations")
@pytest.mark.parametrize("l", [4, 5, 6])
def test_nine_relations(l):
    res = embedding.verify_relations(l)
    assert res["passed"]
    assert all(r["matches"] for r in res["relations"])
    assert {r["relation"] for r in res["relations"]} == set(range(1, 10))


@verifies("membership-certificate")
@pytest.mark.parametrize("l", [4, 5])
def test_certificate(l):
    res = embedding.verify_certificate(l)
    assert res["matches"]
    assert res["degree"] == 4


def test_certificate_word_size():
    # 20 summand groups (asserted inside), flattened to 29 terms at l=4
    alg = liealg.algebra("B", 4)
    word = embedding.certificate_word(alg)
    assert len(word) == 29
    word5 = embedding.certificate_word(liealg.algebra("B", 5))
    assert len(word5) > len(word)


def test_index_map_is_strictly_increasing():
    for l in range(4, 13):
        dalg = liealg.algebra("D", l)
        balg = liealg.algebra("B", l)
        mapping = embedding.embed_index_map(dalg, balg)
        assert len(mapping) == dalg.dim
        assert list(mapping) == sorted(set(mapping))
        # the map by name is the map role by role: e and f by root, H_i by i
        by_role = tuple(
            balg.e_index(d) if role == "e" else
            balg.f_index(d) if role == "f" else balg.h_index(d)
            for role, d in dalg.basis)
        assert mapping == by_role, l
        # labels are preserved: the D basis is the B basis minus short roots
        for di, bi in enumerate(mapping):
            assert dalg.label(di) == balg.label(bi)


def test_embed_preserves_grading_and_brackets(rng):
    dmod = verma.vacuum_module("D", 4)
    bmod = verma.vacuum_module("B", 4)
    mapping = embedding.embed_index_map(dmod.alg, bmod.alg)
    for _ in range(100):
        s = helpers.random_state(dmod, rng)
        t = embedding.embed_state(s, bmod)
        assert t.degree() == s.degree()
        # weight() is None for mixed-weight states, on both sides alike
        assert t.weight() == s.weight()
        # the embedding intertwines the module actions
        x = rng.randrange(dmod.alg.dim)
        n = rng.randint(-2, 2)
        left = embedding.embed_state(
            dmod.apply(helpers.code(dmod.alg, (n, x)), s), bmod)
        right = bmod.apply(helpers.code(bmod.alg, (n, mapping[x])), t)
        assert left == right


def test_embed_is_injective_linear(rng):
    dmod = verma.vacuum_module("D", 4)
    bmod = verma.vacuum_module("B", 4)
    s1 = helpers.random_state(dmod, rng)
    s2 = helpers.random_state(dmod, rng)
    e1 = embedding.embed_state(s1, bmod)
    e2 = embedding.embed_state(s2, bmod)
    assert embedding.embed_state(s1 + 2 * s2, bmod) == e1 + 2 * e2
    if s1 != s2:
        assert e1 != e2
    assert len(e1.terms) == len(s1.terms)


def test_embed_rejects_level_mismatch():
    dmod = verma.vacuum_module("D", 4)
    bmod = verma.vacuum_module("B", 4, level=Fraction(1))
    with pytest.raises(ValueError):
        embedding.embed_state(dmod.vacuum(), bmod)


def test_certificate_negative_control():
    # dropping the leading term of the operator word breaks the identity
    l = 4
    bmod = verma.vacuum_module("B", l)
    dmod = verma.vacuum_module("D", l)
    v_b = singular.singular_vector(bmod)
    target = embedding.embed_state(singular.singular_vector(dmod), bmod)
    word = embedding.certificate_word(bmod.alg)
    full = bmod.act(word, v_b)
    assert full == target
    partial = bmod.act(word[1:], v_b)
    assert partial != target


def test_relation_failure_carries_difference(monkeypatch):
    # a corrupted input vector must fail with a monomial diff attached
    bmod = verma.vacuum_module("B", 4)
    true_vector = singular.singular_vector(bmod)
    alg = bmod.alg
    poke = bmod.act(helpers.terms_of(alg, [(1, [
        (-1, alg.e_index(alg.rm(1, 2))), (-1, alg.e_index(alg.rp(1, 2)))])]),
        bmod.vacuum())

    monkeypatch.setattr(embedding.singular, "singular_vector",
                        lambda module: true_vector + poke)
    res = embedding.verify_relations(4)
    assert not res["passed"]
    failed = [r for r in res["relations"] if not r["matches"]]
    assert failed
    assert all(r["difference"] for r in failed)


def test_report_payload():
    rep = embedding.report(4)
    assert rep["check"] == "embedding"
    assert rep["passed"] is True
    assert len(rep["relations"]) >= 9
    assert rep["certificate"]["matches"] is True
    assert rep["certificate"]["word_terms"] == 29
