"""Clifford algebra on 2*l fermionic generators over exact rationals.

The reference the liealg contraction rule is tested against: it multiplies
the fermion monomials out instead of contracting them.

Generators a_1, ..., a_l and a*_1, ..., a*_l with defining anticommutation
relations

    {a_i, a_j} = 0,   {a*_i, a*_j} = 0,   {a_i, a*_j} = delta_ij.

Elements are finite linear combinations of reduced monomials.  A reduced
monomial is a strictly increasing tuple of generator codes, where code i-1
stands for a_i and code l+i-1 for a*_i, so the fixed generator order is
a_1 < ... < a_l < a*_1 < ... < a*_l.  The empty tuple is the unit.  Every
product is rewritten to this form by repeated swaps

    g h = -h g + {g, h}     (g > h),

which terminate because each swap removes an inversion or shortens the word.
A swap only negates and multiplies by a contraction 0 or 1, so int inputs
give int coefficients; a Fraction scalar gives Fraction ones.
"""

from fractions import Fraction


class CliffordAlgebra:
    """The Clifford algebra on a_1..a_l, a*_1..a*_l."""

    def __init__(self, l):
        self.l = l

    def contraction(self, g, h):
        # {g, h} for generator codes: 1 on dual pairs (a_i, a*_i), else 0.
        return 1 if abs(g - h) == self.l else 0

    def unit(self, coeff=1):
        return CliffordElement(self, {(): 1}) * coeff

    def zero(self):
        return CliffordElement(self, {})

    def a(self, i):
        """The generator a_i, 1-based."""
        return CliffordElement(self, {(i - 1,): 1})

    def a_star(self, i):
        """The generator a*_i, 1-based."""
        return CliffordElement(self, {(self.l + i - 1,): 1})

    def _reduce(self, word, coeff):
        """Rewrite an arbitrary generator word into reduced monomials."""
        out = {}
        stack = [(coeff, tuple(word))]
        while stack:
            c, w = stack.pop()
            for pos in range(len(w) - 1):
                g, h = w[pos], w[pos + 1]
                if g < h:
                    continue
                if g == h:
                    # g^2 = {g,g}/2 = 0 for every generator
                    break
                rest = w[:pos] + w[pos + 2:]
                stack.append((-c, w[:pos] + (h, g) + w[pos + 2:]))
                k = self.contraction(g, h)
                if k:
                    stack.append((c * k, rest))
                break
            else:
                out[w] = out.get(w, 0) + c
        return out


class CliffordElement:
    """Sparse element of a CliffordAlgebra: {reduced monomial: int|Fraction}.
    Arithmetic takes elements of one algebra, or scalars on the right of *
    and / and on the left of *."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if c}

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return self.algebra is other.algebra and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return CliffordElement(self.algebra, out)

    def __neg__(self):
        return CliffordElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            return self.__rmul__(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                for m, c in self.algebra._reduce(m1 + m2, c1 * c2).items():
                    out[m] = out.get(m, 0) + c
        return CliffordElement(self.algebra, out)

    def __rmul__(self, other):
        # scalars only; generator products go through __mul__
        other = other if isinstance(other, int) else Fraction(other)
        return CliffordElement(
            self.algebra, {m: other * c for m, c in self.terms.items()})

    def __truediv__(self, other):
        return self * (Fraction(1) / Fraction(other))

    def commutator(self, other):
        return self * other - other * self

    def anticommutator(self, other):
        return self * other + other * self

    def degrees(self):
        return sorted({len(m) for m in self.terms})
