"""Exact sparse linear algebra over the rationals.

Rows are sparse {column: value} dicts.  Elimination is fraction-free: rows
are cleared to integers up front, and each step updates one working row in
place: with a and b its entry and the pivot's in the pivot column and g
their gcd, it scales the row by b / g and subtracts a / g times the pivot
row.  No rounding can occur, dividing by g keeps the integers small, and a
row is made primitive once, when it is stored.  Pivots are chosen as the
smallest column index of the incoming row, which makes echelon forms (and
therefore nullspace bases) deterministic.  Solving, nullspaces and the
integer cone basis of weights all run on the one Echelon accumulator; there
is no other elimination loop.

Nullspace bases do not depend on row order or repeated rows: the pivot
columns depend on the row space alone, and each basis vector is the one
kernel vector on its free column and the pivots below it.  So nullspace adds
rows sparsest first, which cuts fill-in.
"""

from fractions import Fraction
from math import gcd, lcm


def clear_denominators(row):
    """{col: Fraction|int} -> a new {col: int} without zero entries, scaled
    by the lcm of denominators; int entries are read as they are, with no
    Fraction."""
    row = {c: v for c, v in row.items() if v}
    mult = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (mult // v.denominator) for c, v in row.items()}


class Echelon:
    """Online fraction-free row echelon accumulator."""

    def __init__(self):
        self.rows = {}  # pivot column -> integer row with positive pivot

    def reduce(self, row):
        """Reduce a {col: Fraction|int} row against the accumulated rows,
        inserting nothing: the integer row left, whose smallest column holds
        no pivot, or {} if the row is in their span.  The row left is a new
        dict; the argument and the stored rows are never written to."""
        row = clear_denominators(row)
        while row:
            col = min(row)
            piv = self.rows.get(col)
            if piv is None:
                return row
            a, b = row[col], piv[col]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b != 1:
                for c in row:
                    row[c] *= b
            for c, v in piv.items():
                w = row.get(c, 0) - v * a
                if w:
                    row[c] = w
                else:
                    del row[c]
        return row

    def add(self, row):
        """Reduce a row and insert what is left, primitive with a positive
        pivot.  Returns True if the row added a new pivot."""
        row = self.reduce(row)
        if row:
            col = min(row)
            g = gcd(*row.values())
            g = g if row[col] > 0 else -g
            if g != 1:
                row = {c: v // g for c, v in row.items()}
            self.rows[col] = row
        return bool(row)

    @property
    def rank(self):
        return len(self.rows)

    def nullspace(self, ncols):
        """Basis of the right nullspace as primitive integer vectors.

        One vector per free column, in column order; each vector's first
        nonzero entry is positive.  Back-substitution runs on int: a pivot
        that does not divide the partial sum s first scales the partial
        vector by piv // gcd(s, piv), a positive factor.
        """
        pivots = sorted(self.rows)
        pivot_set = set(pivots)
        basis = []
        for free in range(ncols):
            if free in pivot_set:
                continue
            x = {free: 1}
            for p in reversed(pivots):
                if p >= free:
                    continue
                rowp = self.rows[p]
                s = 0
                for c, v in rowp.items():
                    if c != p and c in x:
                        s += v * x[c]
                if s:
                    piv = rowp[p]
                    if s % piv:
                        k = piv // gcd(s, piv)
                        x = {c: v * k for c, v in x.items()}
                        s *= k
                    x[p] = -s // piv
            ints = [x.get(c, 0) for c in range(ncols)]
            g = gcd(*ints)
            g = g if next(v for v in ints if v) > 0 else -g
            basis.append([v // g for v in ints] if g != 1 else ints)
        return basis


def nullspace(rows, ncols):
    """Right nullspace of the matrix whose rows are {col: value} dicts."""
    ech = Echelon()
    for row in sorted(rows, key=len):
        if row:
            ech.add(row)
    return ech.nullspace(ncols)


def solve_exact(columns, target):
    """Coordinates x with sum_j x[j] columns[j] = target, all exact.

    columns and target are dense same-length vectors.  Returns None when
    the system is inconsistent; raises when the solution is not unique.
    The target enters as an extra column m; a pivot there means the target
    is outside the span of the columns.
    """
    m = len(columns)
    ech = Echelon()
    for i, t in enumerate(target):
        row = {j: col[i] for j, col in enumerate(columns)}
        row[m] = -t
        ech.add(row)
    if m in ech.rows:
        return None
    if ech.rank < m:
        raise ValueError("solution is not unique")
    (vec,) = ech.nullspace(m + 1)
    return [Fraction(v, vec[m]) for v in vec[:m]]
