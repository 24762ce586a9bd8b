"""Exact sparse linear algebra over the rationals.

Rows are sparse {column: value} dicts.  Elimination is fraction-free: rows
are cleared to integers up front, and each step updates one working row in
place: with a and b its entry and the pivot's in the pivot column and g
their gcd, it scales the row by b / g and subtracts a / g times the pivot
row.  No rounding can occur, dividing by g keeps the integers small, and a
row is made primitive once, when it is stored.  Pivots are chosen as the
smallest column index of the incoming row, which makes echelon forms (and
therefore nullspace bases) deterministic.  Solving, nullspaces and the
integer cone basis of weights all run on the one Echelon accumulator.

Nullspace bases do not depend on row order or repeated rows: the pivot
columns depend on the row space alone, and each basis vector is the one
kernel vector on its free column and the pivots below it.  So nullspace is
free to change the system before Echelon sees it.  It first reads the rows
a*x_i + b*x_j = 0 into classes of columns that are fixed multiples of one
another (the first step of structured Gaussian elimination): that pass only
substitutes, and Echelon still does all elimination, on the longer rows
rewritten over the classes, sparsest first, which cuts fill-in.  The
classes are numbered by their last column, so Echelon's nullspace of that
system, mapped back through the class weights, is the canonical basis as
it stands: a kernel vector's last nonzero column is the last column of its
last class.
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
            basis.append(_primitive([x.get(c, 0) for c in range(ncols)]))
        return basis


def _primitive(vec):
    """A nonzero int vector over the gcd of its entries, first nonzero entry
    positive."""
    g = gcd(*vec)
    g = g if next(v for v in vec if v) > 0 else -g
    return [v // g for v in vec] if g != 1 else vec


def _fold(rows, ncols):
    """One class pass over {col: value} rows.

    A row a*x_i + b*x_j = 0 only ties x_i to x_j, so it merges their
    weighted union-find classes: every column of a class is a fixed nonzero
    multiple of one class variable.  A one-term row, or a cycle whose ratios
    disagree, makes its class zero.  Returns the longer rows rewritten over
    the live classes, the number of live classes, and per column c the pair
    (k, w) with x_c = w * y_k, w an int, 0 for a column of a zero class.
    """
    parent = list(range(ncols))
    num = [1] * ncols  # x_c = num[c] / den[c] * x_parent[c]
    den = [1] * ncols
    zeros = []
    long_rows = []

    def find(c):
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        for x in reversed(path):
            p = parent[x]
            if p != c:
                num[x] *= num[p]
                den[x] *= den[p]
                parent[x] = c
        return c

    for row in rows:
        if row and not (0 <= min(row) and max(row) < ncols):
            bad = next(c for c in row if not 0 <= c < ncols)
            raise ValueError("column %r is outside range(%d)" % (bad, ncols))
        cols = [c for c, v in row.items() if v]
        if len(cols) > 2:
            long_rows.append(row)
        elif len(cols) == 1:
            zeros.append(cols[0])
        elif cols:
            i, j = cols
            a, b = row[i], row[j]
            ri, rj = find(i), find(j)
            # the row over the roots, a*x_ri + b*x_rj = 0, with a and b ints
            a, b = (a.numerator * b.denominator * num[i] * den[j],
                    b.numerator * a.denominator * num[j] * den[i])
            if ri == rj:
                if a + b:
                    zeros.append(i)
                continue
            g = gcd(a, b)
            parent[ri] = rj
            num[ri], den[ri] = -b // g, a // g
    roots = [find(c) for c in range(ncols)]
    dead = {roots[c] for c in zeros}
    # w is num/den times the lcm of den over the class; pop puts each class
    # back at the end, so the classes are numbered by their last column
    scale = {}
    for c, r in enumerate(roots):
        if r not in dead:
            scale[r] = lcm(scale.pop(r, 1), den[c])
    index = {r: k for k, r in enumerate(scale)}
    weight = [(index[r], num[c] * (scale[r] // den[c])) if r in index
              else (0, 0) for c, r in enumerate(roots)]
    system = []
    for row in long_rows:
        new = {}
        for c, v in row.items():
            k, w = weight[c]
            if w:
                new[k] = new.get(k, 0) + v * w
        system.append(new)
    return system, len(index), weight


def nullspace(rows, ncols):
    """Right nullspace of the matrix whose rows are {col: value} dicts.

    One class pass (see _fold) takes out the rows with fewer than three
    terms; Echelon eliminates the others, rewritten over the classes,
    sparsest first.  Its kernel, mapped back to the columns, is already the
    canonical basis of Echelon.nullspace: the classes are numbered by their
    last column, so the free columns are the last columns of the free
    classes, and each vector is the one kernel vector on its free column.
    """
    system, nclasses, weight = _fold(rows, ncols)
    ech = Echelon()
    for row in sorted(system, key=len):
        ech.add(row)
    return [_primitive([w * y[k] for k, w in weight])
            for y in ech.nullspace(nclasses)]


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
