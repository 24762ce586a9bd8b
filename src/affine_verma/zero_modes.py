"""Action of the first raising zero mode on quartic states, as a table.

The annihilation of the degree-4 singular vector decomposes into a list of
small identities: e applied to each of its term families, where e is the
zero mode of the root vector for eps_1 - eps_2, rewrites into neighboring
families.  Each table row states one such rewrite exactly; verify_identities
recomputes both sides in the D_l vacuum module.  Together with the entered
formula the rows give a term-by-term audit trail for the cancellation, which
the end-to-end annihilation check cannot provide on its own.
"""

from . import liealg
from . import verma


def identity_table(alg):
    """Rows (shape, parameter tuples, lhs builder, rhs builder).

    Builders return term lists in verma.vocabulary for VermaModule.build;
    the zero mode is put in front of each left-side term.  The row count is
    pinned to 40 by the tests.
    """
    E, F, H = verma.vocabulary(alg)
    l = alg.l
    rm, rp, rs = alg.rm, alg.rp, alg.rs
    th = alg.theta

    def one(*factors):
        return [(1, factors)]

    def balanced(root):
        return [(1, (E(th), E(th), E(root), F(root))),
                (1, (E(th), E(th), F(root), E(root)))]

    J = range(3, l + 1)
    pairs = [(i, j) for i in J for j in J]
    pairs_ne = [(i, j) for i in J for j in J if i != j]
    pairs_jlti = [(i, j) for i in J for j in J if j < i]
    pairs_iltj = [(i, j) for i in J for j in J if i < j]
    singles = [(i,) for i in J]
    fixed = [()]
    perp = [(r,) for r in alg.positive_roots if r[0] == 0 and r[1] == 0]

    rows = [
        ("e(1-i)e(1+i)e(2-j)e(2+j)", pairs,
         lambda i, j: one(E(rm(1, i)), E(rp(1, i)), E(rm(2, j)), E(rp(2, j))),
         lambda i, j: one(E(rm(1, i)), E(rp(1, i)), E(rm(1, j)), E(rp(2, j)))
         + one(E(rm(1, i)), E(rp(1, i)), E(rp(1, j)), E(rm(2, j)))
         + one(E(rm(1, i)), E(rp(1, i)), E(th, -2))),
        ("e(1-i)e(2+i)e(1+j)e(2-j), i!=j", pairs_ne,
         lambda i, j: one(E(rm(1, i)), E(rp(2, i)), E(rp(1, j)), E(rm(2, j))),
         lambda i, j: one(E(rm(1, i)), E(rp(1, i)), E(rp(1, j)), E(rm(2, j)))
         + one(E(rm(1, i)), E(rp(2, i)), E(rp(1, j)), E(rm(1, j)))),
        ("e(1-i)e(2+i)e(1-j)e(2+j), i!=j", pairs_ne,
         lambda i, j: one(E(rm(1, i)), E(rp(2, i)), E(rm(1, j)), E(rp(2, j))),
         lambda i, j: one(E(rm(1, i)), E(rp(1, i)), E(rm(1, j)), E(rp(2, j)))
         + one(E(rm(1, i)), E(rp(2, i)), E(rm(1, j)), E(rp(1, j)))),
        ("(e(1-i)e(2+i))^2", singles,
         lambda i: one(E(rm(1, i)), E(rp(2, i)), E(rm(1, i)), E(rp(2, i))),
         lambda i: [(2, (E(rm(1, i)), E(rm(1, i)), E(rp(1, i)), E(rp(2, i))))]
         + one(E(th, -2), E(rm(1, i)), E(rp(1, i)))),
        ("e(1+i)e(2-i)e(1+j)e(2-j), i!=j", pairs_ne,
         lambda i, j: one(E(rp(1, i)), E(rm(2, i)), E(rp(1, j)), E(rm(2, j))),
         lambda i, j: one(E(rp(1, i)), E(rm(1, i)), E(rp(1, j)), E(rm(2, j)))
         + one(E(rp(1, i)), E(rm(2, i)), E(rp(1, j)), E(rm(1, j)))),
        ("(e(1+i)e(2-i))^2", singles,
         lambda i: one(E(rp(1, i)), E(rm(2, i)), E(rp(1, i)), E(rm(2, i))),
         lambda i: [(2, (E(rp(1, i)), E(rp(1, i)), E(rm(1, i)), E(rm(2, i))))]
         + one(E(th, -2), E(rp(1, i)), E(rm(1, i)))),
        ("e(t)e(1+j)e(2-i)f(j-i), j<i", pairs_jlti,
         lambda i, j: one(E(th), E(rp(1, j)), E(rm(2, i)), F(rm(j, i))),
         lambda i, j: one(E(th), E(rp(1, j)), E(rm(1, i)), F(rm(j, i)))),
        ("e(t)e(1+j)e(2-i)e(i-j), i<j", pairs_iltj,
         lambda i, j: one(E(th), E(rp(1, j)), E(rm(2, i)), E(rm(i, j))),
         lambda i, j: one(E(th), E(rp(1, j)), E(rm(1, i)), E(rm(i, j)))),
        ("e(t)e(1-j)e(2-i)e(i+j), i!=j", pairs_ne,
         lambda i, j: one(E(th), E(rm(1, j)), E(rm(2, i)), E(rp(i, j))),
         lambda i, j: one(E(th), E(rm(1, j)), E(rm(1, i)), E(rp(i, j)))),
        ("e(t)e(2+i)e(1+j)f(i+j), i!=j", pairs_ne,
         lambda i, j: one(E(th), E(rp(2, i)), E(rp(1, j)), F(rp(i, j))),
         lambda i, j: one(E(th), E(rp(1, i)), E(rp(1, j)), F(rp(i, j)))),
        ("e(t)e(2+i)e(1-j)e(j-i), j<i", pairs_jlti,
         lambda i, j: one(E(th), E(rp(2, i)), E(rm(1, j)), E(rm(j, i))),
         lambda i, j: one(E(th), E(rp(1, i)), E(rm(1, j)), E(rm(j, i)))),
        ("e(t)e(2+i)e(1-j)f(i-j), i<j", pairs_iltj,
         lambda i, j: one(E(th), E(rp(2, i)), E(rm(1, j)), F(rm(i, j))),
         lambda i, j: one(E(th), E(rp(1, i)), E(rm(1, j)), F(rm(i, j)))),
        ("e(t)f(1-2)e(1-i)e(1+i)", singles,
         lambda i: one(E(th), F(rm(1, 2)), E(rm(1, i)), E(rp(1, i))),
         lambda i: one(E(th), E(rp(1, i)), E(rm(1, i), -2))
         + one(E(th), E(rm(1, i)), E(rp(1, i), -2))
         + one(E(th), E(rm(1, i)), E(rp(1, i)), H(rm(1, 2)))),
        ("e(t)e(1-2)e(2-i)e(2+i)", singles,
         lambda i: one(E(th), E(rm(1, 2)), E(rm(2, i)), E(rp(2, i))),
         lambda i: one(E(th), E(rm(1, 2)), E(rm(1, i)), E(rp(2, i)))
         + one(E(th), E(rm(1, 2)), E(th, -2))
         + one(E(th), E(rm(1, 2)), E(rp(1, i)), E(rm(2, i)))),
        ("e(t)e(1+i)e(2-i)h(i)", singles,
         lambda i: one(E(th), E(rp(1, i)), E(rm(2, i)), H(rs(i))),
         lambda i: one(E(th), E(rp(1, i)), E(rm(1, i)), H(rs(i)))),
        ("e(t)e(1+i)e(2-i)h(1-2)", singles,
         lambda i: one(E(th), E(rp(1, i)), E(rm(2, i)), H(rm(1, 2))),
         lambda i: one(E(th), E(rp(1, i)), E(rm(1, i)), H(rm(1, 2)))
         + [(-2, (E(th), E(rm(1, 2)), E(rp(1, i)), E(rm(2, i))))]
         + [(2, (E(th), E(rp(1, i)), E(rm(1, i), -2)))]),
        ("e(t)e(1-i)e(2+i)h(i)", singles,
         lambda i: one(E(th), E(rm(1, i)), E(rp(2, i)), H(rs(i))),
         lambda i: one(E(th), E(rm(1, i)), E(rp(1, i)), H(rs(i)))),
        ("e(t)e(1-i)e(2+i)h(1-2)", singles,
         lambda i: one(E(th), E(rm(1, i)), E(rp(2, i)), H(rm(1, 2))),
         lambda i: one(E(th), E(rm(1, i)), E(rp(1, i)), H(rm(1, 2)))
         + [(-2, (E(th), E(rm(1, 2)), E(rm(1, i)), E(rp(2, i))))]
         + [(2, (E(th), E(rm(1, i)), E(rp(1, i), -2)))]),
        ("e(t)e(1+i)(-2)e(2-i)", singles,
         lambda i: one(E(th), E(rp(1, i), -2), E(rm(2, i))),
         lambda i: one(E(th), E(rp(1, i), -2), E(rm(1, i)))),
        ("e(t)e(1-i)(-2)e(2+i)", singles,
         lambda i: one(E(th), E(rm(1, i), -2), E(rp(2, i))),
         lambda i: one(E(th), E(rm(1, i), -2), E(rp(1, i)))),
        ("e(t)(-2)e(1+i)e(2-i)", singles,
         lambda i: one(E(th, -2), E(rp(1, i)), E(rm(2, i))),
         lambda i: one(E(th, -2), E(rp(1, i)), E(rm(1, i)))),
        ("e(t)(-2)e(1-i)e(2+i)", singles,
         lambda i: one(E(th, -2), E(rm(1, i)), E(rp(2, i))),
         lambda i: one(E(th, -2), E(rm(1, i)), E(rp(1, i)))),
        ("e(t)e(1+i)e(2-i)(-2)", singles,
         lambda i: one(E(th), E(rp(1, i)), E(rm(2, i), -2)),
         lambda i: one(E(th), E(rp(1, i)), E(rm(1, i), -2))),
        ("e(t)e(1-i)e(2+i)(-2)", singles,
         lambda i: one(E(th), E(rm(1, i)), E(rp(2, i), -2)),
         lambda i: one(E(th), E(rm(1, i)), E(rp(1, i), -2))),
        ("e(t)(-2)e(t)h(1-2)", fixed,
         lambda: one(E(th, -2), E(th), H(rm(1, 2))),
         lambda: [(-2, (E(th, -2), E(th), E(rm(1, 2))))]),
        ("e(t)(-2)e(t)h(1)", fixed,
         lambda: one(E(th, -2), E(th), H(rs(1))),
         lambda: [(-2, (E(th, -2), E(th), E(rm(1, 2))))]),
        ("e(t)(-2)^2", fixed,
         lambda: one(E(th, -2), E(th, -2)),
         lambda: []),
        ("e(t)e(t)(-3)", fixed,
         lambda: one(E(th), E(th, -3)),
         lambda: []),
        ("e(t)^2 (ef+fe)(1-2)", fixed,
         lambda: balanced(rm(1, 2)),
         lambda: [(2, (E(th), E(th), E(rm(1, 2)), H(rm(1, 2)))),
                  (2, (E(th), E(th), E(rm(1, 2), -2)))]),
        ("e(t)^2 (ef+fe)(2-i)", singles,
         lambda i: balanced(rm(2, i)),
         lambda i: [(2, (E(th), E(th), E(rm(1, i)), F(rm(2, i)))),
                    (-1, (E(th), E(th), E(rm(1, 2), -2)))]),
        ("e(t)^2 (ef+fe)(2+i)", singles,
         lambda i: balanced(rp(2, i)),
         lambda i: [(2, (E(th), E(th), E(rp(1, i)), F(rp(2, i)))),
                    (-1, (E(th), E(th), E(rm(1, 2), -2)))]),
        ("e(t)^2 (ef+fe)(1-i)", singles,
         lambda i: balanced(rm(1, i)),
         lambda i: [(-2, (E(th), E(th), E(rm(1, i)), F(rm(2, i)))),
                    (1, (E(th), E(th), E(rm(1, 2), -2)))]),
        ("e(t)^2 (ef+fe)(1+i)", singles,
         lambda i: balanced(rp(1, i)),
         lambda i: [(-2, (E(th), E(th), E(rp(1, i)), F(rp(2, i)))),
                    (1, (E(th), E(th), E(rm(1, 2), -2)))]),
        ("e(t)^2 (ef+fe)(t)", fixed,
         lambda: balanced(th),
         lambda: []),
        ("e(t)^2 (ef+fe)(a), a perp", perp,
         lambda r: balanced(r),
         lambda r: []),
        ("e(t)^2 h(1-2)^2", fixed,
         lambda: one(E(th), E(th), H(rm(1, 2)), H(rm(1, 2))),
         lambda: [(-4, (E(th), E(th), E(rm(1, 2)), H(rm(1, 2)))),
                  (-4, (E(th), E(th), E(rm(1, 2), -2)))]),
        ("e(t)^2 h(1)^2", fixed,
         lambda: one(E(th), E(th), H(rs(1)), H(rs(1))),
         lambda: [(-4, (E(th), E(th), E(rm(1, 2)), H(rs(1)))),
                  (-4, (E(th), E(th), E(rm(1, 2), -2)))]),
        ("e(t)^2 h(1-2)h(1+2)", fixed,
         lambda: one(E(th), E(th), H(rm(1, 2)), H(rp(1, 2))),
         lambda: [(-2, (E(th), E(th), E(rm(1, 2)), H(rp(1, 2))))]),
        ("e(t)^2 h(1-i)h(1+i)", singles,
         lambda i: one(E(th), E(th), H(rm(1, i)), H(rp(1, i))),
         lambda i: [(-1, (E(th), E(th), E(rm(1, 2)), H(rs(1)))),
                    (-1, (E(th), E(th), E(rm(1, 2), -2)))]),
        ("e(t)^2 h(1+2)(-2)", fixed,
         lambda: one(E(th), E(th), H(rp(1, 2), -2)),
         lambda: []),
    ]
    assert len(rows) == 40
    return rows


def _param_obj(p):
    if isinstance(p, tuple):
        return liealg.root_label(p)
    return p


def verify_identities(l):
    """Recompute every table row in the D_l vacuum module: the zero mode
    on the left side minus the right side, in one act, must be zero."""
    module = verma.vacuum_module("D", l)
    alg = module.alg
    op = ((verma.encode(alg, 0, alg.e_index(alg.rm(1, 2))), 1),)
    entries = []
    passed = True
    for index, (shape, params, lhs, rhs) in enumerate(identity_table(alg), 1):
        failures = []
        for p in params:
            diff = module.build([(c, (op,) + pos) for c, pos in lhs(*p)]
                                + [(-c, pos) for c, pos in rhs(*p)])
            if not diff.is_zero():
                failures.append({
                    "params": [_param_obj(v) for v in p],
                    "difference": diff.to_obj(),
                })
        passed = passed and not failures
        entry = {
            "index": index,
            "shape": shape,
            "instances": len(params),
            "matches": not failures,
        }
        if failures:
            entry["failures"] = failures
        entries.append(entry)
    return {"identities": entries, "passed": passed}


def report(l):
    res = verify_identities(l)
    return {
        "check": "appendix",
        "type": "D",
        "l": l,
        "level": str(verma.special_level(l)),
        "identities": res["identities"],
        "passed": res["passed"],
    }
