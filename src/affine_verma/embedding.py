"""Embedding of the type D vacuum module into the type B one of equal rank.

The D_l root vectors sit inside B_l verbatim (the positive roots of D_l are
the long positive roots of B_l), so a canonical monomial translates to a
canonical monomial and states map over coefficient by coefficient.  On top
of that, this module verifies two facts at level -l + 3/2: nine identities
expressing zero-mode lowering words applied to the degree-2 singular vector
in closed form, and the certificate identity W.v = embed(v'), where W is an
explicit operator combination, v the degree-2 vector and v' the degree-4
one.  The certificate shows the degree-4 vector lies in the submodule the
degree-2 vector generates.
"""

from fractions import Fraction

from . import liealg
from . import singular
from . import verma


# ---- the module map ----------------------------------------------------------


def embed_index_map(dalg, balg):
    """Basis index translation D_l -> B_l by factor name, strictly increasing
    (AssertionError otherwise): embed_state needs that order to keep every
    translated monomial canonical."""
    if dalg.kind != "D" or balg.kind != "B" or dalg.l != balg.l:
        raise ValueError("map goes from D_l to B_l at equal rank")
    out = tuple(balg.name_index[n] for n in dalg.names)
    if any(a >= b for a, b in zip(out, out[1:])):
        raise AssertionError("index map must preserve the basis order")
    return out


def embed_state(state, bmodule):
    """Reinterpret a D-module state inside the B module, monomial by monomial."""
    dalg = state.module.alg
    if state.module.level != bmodule.level:
        raise ValueError("levels differ")
    imap = embed_index_map(dalg, bmodule.alg)
    return bmodule.state({
        tuple(verma.encode(bmodule.alg, n, imap[x])
              for n, x in (verma.decode(dalg, f) for f in mono)): v
        for mono, v in state.nums.items()}, state.den)


# ---- the nine zero-mode identities --------------------------------------------


def relation_instances(alg):
    """Expanded instances of the nine identities, ordered and tagged.

    Yields (index, tag, lhs_factors, rhs_terms): applying the lhs factors to
    the degree-2 singular vector must equal build(rhs_terms) exactly.  The
    parameterized identities contribute one instance per index value.
    """
    E, F, H = verma.vocabulary(alg)
    l = alg.l
    rm, rp, rs = alg.rm, alg.rp, alg.rs
    q = Fraction
    half = q(1, 2)
    deep = q(2 * l - 3, 2)

    def balanced(c, root):
        return [(c, (E(root), F(root))), (c, (F(root), E(root)))]

    out = []

    out.append((1, "f(1)(0)",
                (F(rs(1), 0),),
                [(half, (E(rs(1)), H(rs(1))))]
                + [(1, (E(rp(1, j)), F(rs(j)))) for j in range(2, l + 1)]
                + [(1, (E(rm(1, j)), E(rs(j)))) for j in range(2, l + 1)]
                + [(-deep, (E(rs(1), -2),))]))

    for i in range(2, l + 1):
        out.append((2, "f(1-%d)(0)" % i,
                    (F(rm(1, i), 0),),
                    [(-half, (E(rs(1)), E(rs(i))))]
                    + [(1, (E(rp(1, j)), F(rm(j, i)))) for j in range(2, i)]
                    + [(-1, (E(rm(1, j)), E(rp(j, i)))) for j in range(2, i)]
                    + [(-1, (H(rm(1, i)), E(rp(1, i))))]
                    + [(1, (E(rp(1, j)), E(rm(i, j)))) for j in range(i + 1, l + 1)]
                    + [(1, (E(rm(1, j)), E(rp(i, j)))) for j in range(i + 1, l + 1)]
                    + [(deep, (E(rp(1, i), -2),))]))

    out.append((3, "f(1)(0)f(1-2)(0)",
                (F(rs(1), 0), F(rm(1, 2), 0)),
                [(half, (E(rs(2)), H(rs(2)))),
                 (-1, (E(rp(1, 2)), F(rs(1)))),
                 (1, (E(rs(1)), F(rm(1, 2))))]
                + [(1, (E(rm(2, j)), E(rs(j)))) for j in range(3, l + 1)]
                + [(1, (E(rp(2, j)), F(rs(j)))) for j in range(3, l + 1)]
                + [(-q(2 * l - 5, 2), (E(rs(2), -2),))]))

    out.append((4, "f(1)(0)^2",
                (F(rs(1), 0), F(rs(1), 0)),
                balanced(half, rs(1))
                + [(-half, (H(rs(1)), H(rs(1))))]
                + [t for j in range(2, l + 1) for t in balanced(q(1), rs(j))]
                + [t for j in range(2, l + 1) for t in balanced(q(-1), rp(1, j))]
                + [t for j in range(2, l + 1) for t in balanced(q(-1), rm(1, j))]))

    for i in range(2, l + 1):
        others = [j for j in range(2, l + 1) if j != i]
        out.append((5, "f(1-%d)(0)f(1+%d)(0)" % (i, i),
                    (F(rm(1, i), 0), F(rp(1, i), 0)),
                    balanced(-q(1, 4), rs(i))
                    + balanced(q(1, 4), rs(1))
                    + [(1, (H(rm(1, i)), H(rp(1, i))))]
                    + [t for j in others for t in balanced(half, rp(1, j))]
                    + [t for j in others for t in balanced(half, rm(1, j))]
                    + [t for j in range(2, i) for t in balanced(-half, rm(j, i))]
                    + [t for j in others for t in balanced(-half, rp(i, j))]
                    + [t for j in range(i + 1, l + 1)
                       for t in balanced(-half, rm(i, j))]))

    for i in range(3, l + 1):
        out.append((6, "f(1+%d)(0)" % i,
                    (F(rp(1, i), 0),),
                    [(-half, (E(rs(1)), F(rs(i))))]
                    + [(1, (E(rp(1, j)), F(rp(j, i)))) for j in range(2, i)]
                    + [(-1, (E(rm(1, j)), E(rm(j, i)))) for j in range(2, i)]
                    + [(-1, (H(rp(1, i)), E(rm(1, i))))]
                    + [(-1, (E(rp(1, j)), F(rp(i, j)))) for j in range(i + 1, l + 1)]
                    + [(-1, (E(rm(1, j)), F(rm(i, j)))) for j in range(i + 1, l + 1)]
                    + [(deep, (E(rm(1, i), -2),))]))

    for i in range(3, l + 1):
        out.append((7, "f(1-%d)(0)f(1-2)(0)" % i,
                    (F(rm(1, i), 0), F(rm(1, 2), 0)),
                    [(-half, (E(rs(2)), E(rs(i)))),
                     (-1, (H(rm(2, i)), E(rp(2, i)))),
                     (-1, (F(rm(1, 2)), E(rp(1, i)))),
                     (-1, (E(rp(1, 2)), F(rm(1, i))))]
                    + [(1, (E(rp(2, j)), F(rm(j, i)))) for j in range(3, i)]
                    + [(-1, (E(rm(2, j)), E(rp(i, j)))) for j in range(3, i)]
                    + [(1, (E(rm(2, j)), E(rp(i, j)))) for j in range(i + 1, l + 1)]
                    + [(1, (E(rp(2, j)), E(rm(i, j)))) for j in range(i + 1, l + 1)]
                    + [(deep, (E(rp(2, i), -2),))]))

    out.append((8, "f(1-2)(0)^2",
                (F(rm(1, 2), 0), F(rm(1, 2), 0)),
                [(-half, (E(rs(2)), E(rs(2)))),
                 (-2, (F(rm(1, 2)), E(rp(1, 2))))]
                + [(2, (E(rm(2, j)), E(rp(2, j)))) for j in range(3, l + 1)]))

    for i in range(3, l + 1):
        out.append((9, "f(1-2)(0)f(1+%d)(0)" % i,
                    (F(rm(1, 2), 0), F(rp(1, i), 0)),
                    [(-half, (E(rs(2)), F(rs(i)))),
                     (-1, (H(rp(2, i)), E(rm(2, i)))),
                     (-1, (F(rm(1, 2)), E(rm(1, i)))),
                     (-1, (E(rp(1, 2)), F(rp(1, i))))]
                    + [(1, (E(rp(2, j)), F(rp(i, j)))) for j in range(3, i)]
                    + [(-1, (E(rm(2, j)), E(rm(j, i)))) for j in range(3, i)]
                    + [(-1, (E(rm(2, j)), F(rm(i, j)))) for j in range(i + 1, l + 1)]
                    + [(-1, (E(rp(2, j)), F(rp(i, j)))) for j in range(i + 1, l + 1)]
                    + [(deep, (E(rm(2, i), -2),))]))

    return out


def verify_relations(l):
    """Check every instance of the nine identities in the B_l module."""
    module = verma.vacuum_module("B", l)
    vec = singular.singular_vector(module)
    results = []
    passed = True
    for index, tag, lhs, rhs in relation_instances(module.alg):
        left = module.act([(1, lhs)], vec)
        right = module.build(rhs)
        matches = left == right
        degree = left.degree()
        passed = passed and matches and degree == 2
        entry = {
            "relation": index,
            "operator": tag,
            "degree": degree,
            "matches": matches,
        }
        if not matches:
            entry["difference"] = (left - right).to_obj()
        results.append(entry)
    return {"relations": results, "passed": passed}


# ---- the membership certificate ------------------------------------------------


def certificate_word(alg):
    """Operator combination W with W.(degree-2 vector) = degree-4 vector.

    Transcribed top to bottom from its defining display; 20 summand groups,
    a count the tests pin.
    """
    E, F, H = verma.vocabulary(alg)
    l = alg.l
    rm, rp, rs = alg.rm, alg.rp, alg.rs
    q = Fraction
    I = range(3, l + 1)

    groups = [
        [(q(2 * l + 1, 12), (E(rs(2)), E(rs(2))))],
        [(q(-(2 * l - 5), 3), (F(rm(1, 2), -1), E(rp(1, 2))))],
        [(q(2 * l + 1, 3), (E(rm(2, i)), E(rp(2, i)))) for i in I],
        [(q(-1, 2), (E(rp(1, 2)), E(rs(2)), F(rs(1), 0)))],
        [(q(1), (E(rp(1, 2)), E(rm(2, i)), F(rm(1, i), 0))) for i in I],
        [(q(-(2 * l + 1), 12), (E(rs(1)), E(rs(2)), F(rm(1, 2), 0)))],
        [(q(-(2 * l + 1) * (2 * l - 5), 12), (E(rp(1, 2), -2), F(rm(1, 2), 0)))],
        [(q(2 * l - 5, 6), (H(rm(1, 2)), E(rp(1, 2)), F(rm(1, 2), 0)))],
        [(q(-(2 * l + 1), 6), (E(rm(1, i)), E(rp(2, i)), F(rm(1, 2), 0)))
         for i in I],
        [(q(-(2 * l + 1), 6), (E(rp(1, i)), E(rm(2, i)), F(rm(1, 2), 0)))
         for i in I],
        [(q(1, 2), (E(rs(1)), E(rp(1, 2)), F(rs(1), 0), F(rm(1, 2), 0)))],
        [(q(1, 2 * l - 1), (E(rp(1, 2)), E(rp(1, 2)), F(rs(1), 0), F(rs(1), 0)))],
        [(q(-(2 * l - 5), 2 * l - 1),
          (E(rp(1, 2)), E(rp(1, 2)), F(rm(1, 2), 0), F(rp(1, 2), 0)))],
        [(q(4, 2 * l - 1),
          (E(rp(1, 2)), E(rp(1, 2)), F(rm(1, i), 0), F(rp(1, i), 0)))
         for i in I],
        [(q(1), (E(rp(1, 2)), E(rp(2, i)), F(rp(1, i), 0))) for i in I],
        [(q(-1), (E(rp(1, 2)), E(rm(1, i)), F(rm(1, i), 0), F(rm(1, 2), 0)))
         for i in I],
        [(q(2 * l + 1, 24), (E(rs(1)), E(rs(1)), F(rm(1, 2), 0), F(rm(1, 2), 0)))],
        [(q(2 * l - 5, 6),
          (E(rm(1, 2)), E(rp(1, 2)), F(rm(1, 2), 0), F(rm(1, 2), 0)))],
        [(q(2 * l + 1, 6),
          (E(rm(1, i)), E(rp(1, i)), F(rm(1, 2), 0), F(rm(1, 2), 0)))
         for i in I],
        [(q(-1), (E(rp(1, 2)), E(rp(1, i)), F(rm(1, 2), 0), F(rp(1, i), 0)))
         for i in I],
    ]
    assert len(groups) == 20
    return [t for g in groups for t in g]


def verify_certificate(l):
    """W.(degree-2 vector) against the embedded degree-4 vector, exactly."""
    bmod = verma.vacuum_module("B", l)
    dmod = verma.vacuum_module("D", l)
    word = certificate_word(bmod.alg)
    image = bmod.act(word, singular.singular_vector(bmod))
    target = embed_state(singular.singular_vector(dmod), bmod)
    matches = image == target
    out = {
        "word_terms": len(word),
        "degree": image.degree(),
        "weight": list(image.weight() or ()),
        "monomials": len(target),
        "matches": matches,
        "passed": matches and image.degree() == 4,
    }
    if not matches:
        out["difference"] = (image - target).to_obj()
    return out


def report(l):
    """Combined relation and certificate verdict for one rank."""
    relations = verify_relations(l)
    certificate = verify_certificate(l)
    return {
        "check": "embedding",
        "l": l,
        "level": str(verma.special_level(l)),
        "relations": relations["relations"],
        "certificate": certificate,
        "passed": relations["passed"] and certificate["passed"],
    }
