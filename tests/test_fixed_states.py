"""The module's store of fixed states: built once, shared, and freed with
the module."""

import gc
import weakref

import pytest

from affine_verma import cli, conformal, singular, verma

# (getter through the store, a fresh build of the same state)
FIXED = [
    (singular.singular_vector, singular.singular_vector.__wrapped__),
    (conformal.sugawara_vector, conformal.sugawara_vector.__wrapped__),
    (conformal.quadratic_certificate,
     conformal.quadratic_certificate.__wrapped__),
    (conformal.quadratic_relation_state,
     conformal.quadratic_relation_state.__wrapped__),
]


def test_run_all_builds_each_singular_vector_once(fresh_caches, monkeypatch):
    # one build per (kind, l), shared by the singular, embedding, conformal,
    # appendix and triality checks of the rank
    calls = []
    flat_terms = singular.flat_terms

    def counted(alg):
        calls.append((alg.kind, alg.l))
        return flat_terms(alg)

    monkeypatch.setattr(singular, "flat_terms", counted)
    assert cli.run_all(range(4, 6), 1)["passed"] is True
    assert sorted(calls) == [("B", 4), ("B", 5), ("D", 4), ("D", 5)]


def test_dropped_module_is_freed_by_reference_counting(fresh_caches):
    # the store keeps ints, not states, so no module -> state -> module
    # cycle waits for the cyclic collector
    enabled = gc.isenabled()
    gc.disable()
    try:
        module = verma.vacuum_module("B", 4)
        for get, _ in FIXED:
            get(module)
        ref = weakref.ref(module)
        del module
        verma.vacuum_module.cache_clear()
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("get, build", FIXED, ids=lambda f: f.__name__)
def test_arithmetic_leaves_the_next_state_unchanged(get, build):
    module = verma.vacuum_module("B", 4)
    first = get(module)
    built = build(module)
    assert first == built
    for other in (first + first, 3 * first, -first, first - 2 * first):
        assert other != first
    second = get(module)
    assert second == built
    assert second is not first and second.nums is not first.nums
