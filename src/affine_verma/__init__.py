"""Exact symbolic engine for type B and D affine vacuum modules.

The package realizes the finite Lie algebras of types B_l and D_l inside a
quadratic fermionic algebra, builds their level -l + 3/2 vacuum modules over
canonical ordered monomials, and machine-checks a family of finite exact
identities: explicit singular vectors, an embedding with its membership
certificate, equality of the two energy vectors, admissibility of the
vacuum weight, the D_4 triality action, and a zero-mode rewrite table.
All arithmetic is rational and exact; every check emits a JSON verdict.
"""

__version__ = "1.0.0"
