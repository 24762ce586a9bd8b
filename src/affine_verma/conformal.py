"""Sugawara conformal vectors and the certificates comparing them.

At level k the conformal vector is 1/(2(k + h)) sum_i a_i(-1) b_i(-1) 1
over a basis and its form-dual basis, with central charge k dim g/(k + h),
h the dual Coxeter number.  At level -l + 3/2 the B_l and D_l central
charges coincide, and the two conformal vectors differ by an element of the
submodule generated by the degree-2 singular vector.  That membership is
certified exactly: both the short-root quadratic relation and the
conformal-vector difference are rational multiples of one explicit
certificate state u, with the ratio of the two scalars forced by the
normalizations 2(k + h) = 2l + 1 and 2l - 1.
"""

from fractions import Fraction

from . import embedding
from . import liealg
from . import singular
from . import verma


def central_charge(alg, level):
    k = verma.exact_level(level)
    if k == -alg.dual_coxeter:
        raise ValueError("critical level has no conformal vector")
    return k * alg.dim / (k + alg.dual_coxeter)


def solve_level_equation(l):
    """All rational levels where the B_l and D_l central charges agree.

    Cross-multiplying c_B(k) = c_D(k) leaves k (a k + b) = 0; poles of
    either charge are excluded from the solution set.
    """
    alg_b, alg_d = liealg.algebra("B", l), liealg.algebra("D", l)
    dim_b, h_b = alg_b.dim, alg_b.dual_coxeter
    dim_d, h_d = alg_d.dim, alg_d.dual_coxeter
    a = Fraction(dim_d - dim_b)
    b = Fraction(dim_d * h_b - dim_b * h_d)
    roots = {Fraction(0)}
    if a:
        roots.add(-b / a)
    roots -= {Fraction(-h_b), Fraction(-h_d)}
    return sorted(roots)


@verma.fixed_state
def sugawara_vector(module):
    """Degree-2 Casimir state 1/(2(k + h)) sum_i a_i(-1) b_i(-1) 1, with
    b_i = x_y / (x_i, x_y) for the one partner y of x_i in alg.pair."""
    alg = module.alg
    k = module.level
    if k == -alg.dual_coxeter:
        raise ValueError("critical level has no conformal vector")
    scale = 1 / (2 * (k + alg.dual_coxeter))
    return module.build([(scale / v, (((verma.encode(alg, -1, x), 1),),
                                      ((verma.encode(alg, -1, y), 1),)))
                         for x, (y, v) in enumerate(alg.pair)])


# ---- certificates in the B module ---------------------------------------------


@verma.fixed_state
def quadratic_certificate(bmodule):
    """u = (2l f_s(0)^2 + 4 sum_i f_{e1-ei}(0) f_{e1+ei}(0)).v, v the
    degree-2 singular vector and s the first short root; u spans the
    degree-2 weight-0 slice of the submodule v generates."""
    alg = bmodule.alg
    if alg.kind != "B":
        raise ValueError("certificate lives in the type B module")
    E, F, H = verma.vocabulary(alg)
    l = alg.l
    terms = [(2 * l, (F(alg.rs(1), 0), F(alg.rs(1), 0)))]
    terms += [(4, (F(alg.rm(1, i), 0), F(alg.rp(1, i), 0)))
              for i in range(2, l + 1)]
    return bmodule.act(terms, singular.singular_vector(bmodule))


@verma.fixed_state
def quadratic_relation_state(bmodule):
    """Difference of the two sides of the short/long quadratic relation."""
    alg = bmodule.alg
    E, F, H = verma.vocabulary(alg)
    short = 2 * alg.l - 1  # the weight of the short-root side
    terms = []
    for r in alg.positive_roots:
        e, f = E(r), F(r)
        if liealg.root_norm(r) == 1:
            terms += [(short, (e, f)), (short, (f, e))]
            terms += [(-1, (H(r), H(r)))]
        else:
            terms += [(-4, (e, f)), (-4, (f, e))]
    return bmodule.build(terms)


def report(l):
    """Combined conformal verdict for one rank: the quadratic relation state
    and omega_B - embed(omega_D) as exact multiples of u, their scalars tied
    by 2(2l+1)(2l-1), and the two central charges."""
    level = verma.special_level(l)
    bmodule = verma.vacuum_module("B", l)
    dmodule = verma.vacuum_module("D", l)
    c_b = central_charge(bmodule.alg, level)
    c_d = central_charge(dmodule.alg, level)
    u = quadratic_certificate(bmodule)
    rel = quadratic_relation_state(bmodule)
    quad_scalar = rel.multiple_of(u)
    quadratic = {
        "certificate_monomials": len(u),
        "relation_monomials": len(rel),
        "degree": u.degree(),
        "scalar": None if quad_scalar is None else str(quad_scalar),
        "passed": quad_scalar is not None and quad_scalar != 0,
    }
    delta = sugawara_vector(bmodule) - embedding.embed_state(
        sugawara_vector(dmodule), bmodule)
    scalar = delta.multiple_of(u)
    ratio_ok = (
        scalar is not None and quad_scalar is not None
        and quad_scalar == scalar * 2 * (2 * l + 1) * (2 * l - 1)
    )
    equality = {
        "difference_monomials": len(delta),
        "scalar": None if scalar is None else str(scalar),
        "ratio_consistent": ratio_ok,
        "passed": scalar is not None and ratio_ok,
    }
    charges_ok = c_b == c_d == Fraction(-l * (2 * l - 3))
    levels = solve_level_equation(l)
    levels_ok = levels == sorted([Fraction(0), level])
    return {
        "check": "conformal",
        "l": l,
        "level": str(level),
        "central_charge_B": str(c_b),
        "central_charge_D": str(c_d),
        "level_equation": [str(x) for x in levels],
        "quadratic": quadratic,
        "equality": equality,
        "passed": bool(quadratic["passed"] and equality["passed"]
                       and charges_ok and levels_ok),
    }
