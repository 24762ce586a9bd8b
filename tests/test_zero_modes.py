"""The forty-row zero-mode rewrite table and the annihilation it certifies."""

from fractions import Fraction

import pytest

import helpers
from affine_verma import singular, verma, zero_modes
from affine_verma.claims import verifies


@verifies("zero-mode-table")
@pytest.mark.parametrize("l", [4, 5])
def test_table_holds(l):
    res = zero_modes.report(l)
    assert res["passed"]
    assert len(res["identities"]) == 40
    assert all(e["matches"] for e in res["identities"])


def test_instance_counts_at_rank_four():
    res = zero_modes.report(4)
    by_index = {e["index"]: e for e in res["identities"]}
    # two free indices in 3..l give 4 instances, ordered pairs give 2,
    # single-index rows give 2, fixed rows give 1
    assert by_index[1]["instances"] == 4
    assert by_index[2]["instances"] == 2
    assert by_index[7]["instances"] == 1
    assert by_index[13]["instances"] == 2
    assert by_index[27]["instances"] == 1
    assert sum(e["instances"] for e in res["identities"]) == 68


@verifies("zero-mode-table")
def test_zero_mode_kills_degree_four_vector():
    module = verma.vacuum_module("D", 4)
    alg = module.alg
    v = singular.singular_vector(module)
    out = module.apply(helpers.code(alg, (0, alg.e_index(alg.rm(1, 2)))), v)
    assert out.is_zero()


def test_tampered_row_reports_failure(monkeypatch):
    original = zero_modes.identity_table

    def tampered(alg):
        rows = list(original(alg))
        shape, params, coeff, lhs, rhs = rows[0]
        rows[0] = (shape, params, coeff, lhs,
                   lambda *a, _r=rhs: [(2 * c, f) for c, f in _r(*a)])
        return rows

    monkeypatch.setattr(zero_modes, "identity_table", tampered)
    res = zero_modes.report(4)
    assert not res["passed"]
    first = res["identities"][0]
    assert not first["matches"]
    # each instance fails, its difference the zero mode on the built left
    # side minus the built (doubled) right side
    module = verma.vacuum_module("D", 4)
    alg = module.alg
    op = helpers.code(alg, (0, alg.e_index(alg.rm(1, 2))))
    _, params, _, lhs, rhs = tampered(alg)[0]
    assert len(first["failures"]) == len(params) == 4
    for p, fail in zip(params, first["failures"]):
        assert fail["params"] == list(p)
        want = module.apply(op, module.build(lhs(*p))) - module.build(rhs(*p))
        assert fail["difference"] == want.to_obj() != []


def test_report_payload():
    rep = zero_modes.report(4)
    assert rep["check"] == "appendix"
    assert rep["type"] == "D"
    assert rep["level"] == "-5/2"
    assert rep["passed"] is True
