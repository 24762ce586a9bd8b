"""Orthogonal Lie algebras of types B_l and D_l realized inside a Clifford algebra.

The Cartan subalgebra and root vectors are the quadratic (for type B also
linear) Clifford expressions

    H_i          = :a_i a*_i:
    e_{ei-ej}    = :a_i a*_j:      f_{ei-ej} = :a_j a*_i:      (i < j)
    e_{ei+ej}    = :a_i a_j:       f_{ei+ej} = :a*_j a*_i:     (i < j)
    e_{ei}       = a_i             f_{ei}    = a*_i            (type B only)

and every structure constant below is obtained by multiplying these out in
the Clifford algebra and decomposing the result back into the basis; none is
entered by hand; the build runs on the doubled realizations 2 :xy: = xy - yx,
which are integral, so it never leaves int.  Roots live in the
epsilon-coordinate lattice (tuples of l integers), the invariant form is
normalized so that long roots have square length 2, and the basis is
enumerated in a frozen order: all e_alpha by the fixed positive-root order,
then all f_alpha in the same root order, then H_1, ..., H_l.  The downstream
loop-module straightening depends on this order staying put.
"""

from fractions import Fraction
from functools import lru_cache

from . import clifford


def _root_minus(l, i, j):
    # ei - ej, requires i < j so the root is positive
    if not 1 <= i < j <= l:
        raise ValueError("ei-ej needs 1 <= i < j <= l")
    r = [0] * l
    r[i - 1] = 1
    r[j - 1] = -1
    return tuple(r)


def _root_plus(l, i, j):
    if i > j:
        i, j = j, i
    if not 1 <= i < j <= l:
        raise ValueError("ei+ej needs distinct indices in 1..l")
    r = [0] * l
    r[i - 1] = 1
    r[j - 1] = 1
    return tuple(r)


def _root_short(l, i):
    if not 1 <= i <= l:
        raise ValueError("index out of range")
    r = [0] * l
    r[i - 1] = 1
    return tuple(r)


def root_norm(root):
    """(alpha, alpha) in the normalization with long roots of square length 2."""
    return sum(c * c for c in root)


def coroot_ints(coeffs, norm):
    """The ints 2 c / norm over coeffs, the coroot coordinates of a root of
    that norm; ValueError if one does not divide."""
    if any(2 * c % norm for c in coeffs):
        raise ValueError("2 * %r / %s is not integral" % (tuple(coeffs), norm))
    return tuple(2 * c // norm for c in coeffs)


def root_label(root):
    """Compact label: "1-2" for e1-e2, "1+2" for e1+e2, "3" for e3."""
    pos = [i + 1 for i, c in enumerate(root) if c == 1]
    neg = [i + 1 for i, c in enumerate(root) if c == -1]
    if len(pos) == 2 and not neg:
        return "%d+%d" % (pos[0], pos[1])
    if len(pos) == 1 and len(neg) == 1:
        return "%d-%d" % (pos[0], neg[0])
    if len(pos) == 1 and not neg:
        return "%d" % pos[0]
    raise ValueError("not a positive root of B_l/D_l: %r" % (root,))


def parse_root_label(label, l):
    if "-" in label:
        i, j = label.split("-")
        return _root_minus(l, int(i), int(j))
    if "+" in label:
        i, j = label.split("+")
        return _root_plus(l, int(i), int(j))
    return _root_short(l, int(label))


class LieAlgebra:
    """Type B_l or D_l with Clifford-derived structure constants.

    Use the module-level factory algebra(kind, l); instances are cached and
    treated as immutable.
    """

    def __init__(self, kind, l):
        if kind not in ("B", "D"):
            raise ValueError("kind must be 'B' or 'D'")
        if l < 1 or (kind == "D" and l < 2):
            raise ValueError("rank too small for type %s" % kind)
        self.kind = kind
        self.l = l
        self.cliff = clifford.CliffordAlgebra(l)

        self.positive_roots = []
        for i in range(1, l + 1):
            for j in range(i + 1, l + 1):
                self.positive_roots.append(_root_minus(l, i, j))
        for i in range(1, l + 1):
            for j in range(i + 1, l + 1):
                self.positive_roots.append(_root_plus(l, i, j))
        if kind == "B":
            for i in range(1, l + 1):
                self.positive_roots.append(_root_short(l, i))
        self.npos = len(self.positive_roots)
        self.dim = 2 * self.npos + l

        if kind == "B":
            self.simple_roots = [_root_minus(l, i, i + 1) for i in range(1, l)]
            self.simple_roots.append(_root_short(l, l))
            self.dual_coxeter = 2 * l - 1
        else:
            self.simple_roots = [_root_minus(l, i, i + 1) for i in range(1, l)]
            if l >= 2:
                self.simple_roots.append(_root_plus(l, l - 1, l))
            self.dual_coxeter = 2 * l - 2
        self.theta = _root_plus(l, 1, 2) if l >= 2 else _root_short(l, 1)

        # frozen basis order: e-block, f-block, Cartan
        self.basis = [("e", r) for r in self.positive_roots]
        self.basis += [("f", r) for r in self.positive_roots]
        self.basis += [("h", i) for i in range(1, l + 1)]
        self._e_index = {r: i for i, r in enumerate(self.positive_roots)}
        self._f_index = {r: self.npos + i for i, r in enumerate(self.positive_roots)}

        self._brackets = self._build_bracket_table()

    # ---- basis bookkeeping -------------------------------------------------

    def rm(self, i, j):
        return _root_minus(self.l, i, j)

    def rp(self, i, j):
        return _root_plus(self.l, i, j)

    def rs(self, i):
        return _root_short(self.l, i)

    def e_index(self, root):
        return self._e_index[tuple(root)]

    def f_index(self, root):
        return self._f_index[tuple(root)]

    def h_index(self, i):
        if not 1 <= i <= self.l:
            raise ValueError("Cartan index out of range")
        return 2 * self.npos + i - 1

    def label(self, idx):
        role, datum = self.basis[idx]
        if role == "h":
            return "H%d" % datum
        return "%s(%s)" % (role, root_label(datum))

    def weight(self, idx):
        role, datum = self.basis[idx]
        if role == "e":
            return datum
        if role == "f":
            return tuple(-c for c in datum)
        return (0,) * self.l

    # ---- realization and structure constants -------------------------------

    def _realize(self, role, datum):
        """Twice the basis element, 2 :xy: = xy - yx, with int coefficients."""
        A = self.cliff
        if role == "h":
            return A.a(datum).commutator(A.a_star(datum))
        pos = [i + 1 for i, c in enumerate(datum) if c == 1]
        neg = [i + 1 for i, c in enumerate(datum) if c == -1]
        if len(pos) == 1 and len(neg) == 1:
            i, j = pos[0], neg[0]
            if role == "e":
                return A.a(i).commutator(A.a_star(j))
            return A.a(j).commutator(A.a_star(i))
        if len(pos) == 2:
            i, j = pos
            if role == "e":
                return A.a(i).commutator(A.a(j))
            return A.a_star(j).commutator(A.a_star(i))
        (i,) = pos
        if self.kind != "B":
            raise ValueError("short roots only exist in type B")
        return 2 * (A.a(i) if role == "e" else A.a_star(i))

    def realization(self, idx):
        """The basis element x_idx as a Clifford element."""
        return self._realize(*self.basis[idx]) * Fraction(1, 2)

    def _decompose(self, x):
        """Write a Clifford element in the Lie basis; reject anything outside it.
        int coefficients stay int: the unit constant is tracked doubled."""
        out = {}
        scalar2 = 0
        l = self.l
        # reduced monomials map one-to-one onto basis elements
        for mono, c in x.terms.items():
            if len(mono) == 0:
                scalar2 += 2 * c
            elif len(mono) == 1:
                if self.kind != "B":
                    raise ValueError("linear term in type D decomposition")
                (g,) = mono
                if g < l:
                    out[self._e_index[_root_short(l, g + 1)]] = c
                else:
                    out[self._f_index[_root_short(l, g - l + 1)]] = c
            elif len(mono) == 2:
                g, h = mono
                if h < l:
                    out[self._e_index[_root_plus(l, g + 1, h + 1)]] = c
                elif g >= l:
                    # a*_i a*_j (i<j) is -f_{ei+ej}
                    out[self._f_index[_root_plus(l, g - l + 1, h - l + 1)]] = -c
                else:
                    i, j = g + 1, h - l + 1
                    if i < j:
                        out[self._e_index[_root_minus(l, i, j)]] = c
                    elif i > j:
                        out[self._f_index[_root_minus(l, j, i)]] = c
                    else:
                        # a_i a*_i = H_i + 1/2
                        out[self.h_index(i)] = c
                        scalar2 += c
            else:
                raise ValueError("degree > 2 term in decomposition")
        if scalar2:
            raise ValueError("element is not in the Lie algebra span")
        return out

    def _build_bracket_table(self):
        """Row i maps j to the nonzero [x_i, x_j] as sorted (index, coeff) pairs.

        [x_i, x_j] has weight w_i + w_j and the basis carries only the roots
        and 0, so pairs whose weight sum is neither bracket to zero and are
        not commuted; the Clifford algebra fixes every sign of the rest.
        The doubled realizations give 4 [x_i, x_j] in int arithmetic; every
        structure constant is stored as an int, and one that is not (a
        decomposed coefficient not divisible by 4) raises ValueError.
        """
        n = self.dim
        weights = [self.weight(i) for i in range(n)]
        carried = set(weights)
        doubled = [self._realize(role, datum) for role, datum in self.basis]
        table = [{} for _ in range(n)]
        for i in range(n):
            xi = doubled[i]
            for j in range(i + 1, n):
                w = tuple(a + b for a, b in zip(weights[i], weights[j]))
                if w not in carried:
                    continue
                dec = self._decompose(xi.commutator(doubled[j]))
                if any(c % 4 for c in dec.values()):
                    raise ValueError("[x_%d, x_%d] = %r / 4 has a non-integer "
                                     "coefficient" % (i, j, dec))
                if dec:
                    items = tuple((k, c // 4) for k, c in sorted(dec.items()))
                    table[i][j] = items
                    table[j][i] = tuple((k, -c) for k, c in items)
        return table

    def bracket(self, i, j):
        """[x_i, x_j] as a sparse tuple of (basis index, coefficient)."""
        return self._brackets[i].get(j, ())

    def bracket_elem(self, x, y):
        """Bracket of sparse elements {index: coeff}."""
        out = {}
        for i, ci in x.items():
            row = self._brackets[i]
            for j, cj in y.items():
                for k, c in row.get(j, ()):
                    out[k] = out.get(k, Fraction(0)) + ci * cj * c
        return {k: c for k, c in out.items() if c}

    # ---- invariant form ----------------------------------------------------

    def form(self, i, j):
        """Invariant bilinear form with (theta, theta) = 2.

        (H_i, H_j) = delta_ij, (e_alpha, f_alpha) = 2/(alpha, alpha), all
        other basis pairs vanish.
        """
        ri, di = self.basis[i]
        rj, dj = self.basis[j]
        if ri == "h" and rj == "h":
            return 1 if di == dj else 0
        if ri == "h" or rj == "h":
            return 0
        if ri != rj and di == dj:
            # root norms are 1 and 2, so the value is the int 2 or 1
            return 2 // root_norm(di)
        return 0

    def dual_basis(self):
        """Pairs (i, b) with form(x_i, b) = 1 and form(x_j, b) = 0 for j != i."""
        pairs = []
        for idx, (role, datum) in enumerate(self.basis):
            if role == "e":
                dual = {self._f_index[datum]: Fraction(root_norm(datum), 2)}
            elif role == "f":
                dual = {self._e_index[datum]: Fraction(root_norm(datum), 2)}
            else:
                dual = {idx: Fraction(1)}
            pairs.append((idx, dual))
        return pairs

    # ---- Cartan data ---------------------------------------------------------

    def coroot_coords(self, root):
        """Closed form h_alpha = sum_i (2 c_i / (alpha,alpha)) H_i."""
        return {
            self.h_index(i + 1): c
            for i, c in enumerate(coroot_ints(root, root_norm(root))) if c
        }

    def cartan_pairing(self, beta, root):
        """<beta, h_alpha> = 2 (beta, alpha) / (alpha, alpha) for a weight beta."""
        dot = sum(Fraction(b) * a for b, a in zip(beta, root))
        return 2 * dot / root_norm(root)

    def rho(self):
        """Finite Weyl vector, half the sum of the positive roots."""
        acc = [Fraction(0)] * self.l
        for r in self.positive_roots:
            for i, c in enumerate(r):
                acc[i] += c
        return tuple(c / 2 for c in acc)

    def cartan_matrix(self):
        return [
            [self.cartan_pairing(b, a) for b in self.simple_roots]
            for a in self.simple_roots
        ]

    # ---- dump ----------------------------------------------------------------

    def to_dump(self):
        """Plain-data description: basis, bracket table, invariant form, roots."""
        brackets = []
        for i, row in enumerate(self._brackets):
            for j in sorted(row):
                brackets.append([i, j, [[k, str(c)] for k, c in row[j]]])
        form = []
        for i in range(self.dim):
            for j in range(i, self.dim):
                c = self.form(i, j)
                if c:
                    form.append([i, j, str(c)])
        return {
            "type": self.kind,
            "l": self.l,
            "dim": self.dim,
            "dual_coxeter": self.dual_coxeter,
            "basis": [
                {"index": i, "label": self.label(i),
                 "weight": list(self.weight(i))}
                for i in range(self.dim)
            ],
            "positive_roots": [root_label(r) for r in self.positive_roots],
            "simple_roots": [root_label(r) for r in self.simple_roots],
            "theta": root_label(self.theta),
            "brackets": brackets,
            "form": form,
        }

    def __repr__(self):
        return "LieAlgebra(%s_%d)" % (self.kind, self.l)


@lru_cache(maxsize=None)
def algebra(kind, l):
    """Cached construction of the type B_l / D_l algebra."""
    return LieAlgebra(kind, l)
