"""Orthogonal Lie algebras of types B_l and D_l realized by fermion bilinears.

The Cartan subalgebra and root vectors are the quadratic (for type B also
linear) fermion monomials

    H_i          = :a_i a*_i:
    e_{ei-ej}    = :a_i a*_j:      f_{ei-ej} = :a_j a*_i:      (i < j)
    e_{ei+ej}    = :a_i a_j:       f_{ei+ej} = :a*_j a*_i:     (i < j)
    e_{ei}       = a_i             f_{ei}    = a*_i            (type B only)

where {a_i, a*_j} = delta_ij, all other anticommutators vanish, and
:xy: = (xy - yx) / 2.  Each positive root is built beside the codes of its
e and f, as displayed.  Each basis element is a single signed monomial,
so every structure constant follows from the single-contraction rule for
commutators of fermion monomials, in int arithmetic, computed for a pair
when it is first asked for; none is entered by hand.  A contraction needs a
dual pair of codes, so the codes alone name the partners, the pairs whose
bracket or form can be nonzero.  The tests hold the rule against a
reference that multiplies the same monomials out in the Clifford algebra
(tests/clifford.py).

Roots live in the epsilon-coordinate lattice (tuples of l integers), the
invariant form is normalized so that long roots have square length 2, and
the basis is enumerated in a frozen order: all e_alpha by the fixed
positive-root order, then all f_alpha in the same root order, then
H_1, ..., H_l.  The downstream loop-module straightening depends on this
order staying put.  Each per-index fact is one table in that order, built
once and read by index: weights (alpha, -alpha, 0), codes, names (read by
label) and the form, pair, built in closed form, as the form pairs each
basis element with exactly one other, e_alpha with f_alpha at
2/(alpha, alpha) and H_i with itself at 1; form reads it.
"""

from fractions import Fraction
from functools import lru_cache


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


class LieAlgebra:
    """Type B_l or D_l with structure constants from the contraction rule.

    Use the module-level factory algebra(kind, l); instances are cached and
    treated as immutable.
    """

    def __init__(self, kind, l):
        if kind not in ("B", "D"):
            raise ValueError("kind must be 'B' or 'D'")
        if not isinstance(l, int) or isinstance(l, bool):
            raise TypeError("rank %r is no int" % (l,))
        if l < 1 or (kind == "D" and l < 2):
            raise ValueError("rank too small for type %s" % kind)
        self.kind = kind
        self.l = l

        # each positive root with the (sign, codes) of its e and f, where
        # x = sign :psi_p psi_q: (p < q) or sign psi_p, psi_i = a_{i+1} and
        # psi_{l+i} = a*_{i+1}; f_{ei+ej} = :a*_j a*_i: = -:a*_i a*_j:
        roots = [(self.rm(i + 1, j + 1), (1, (i, l + j)), (1, (j, l + i)))
                 for i in range(l) for j in range(i + 1, l)]
        roots += [(self.rp(i + 1, j + 1), (1, (i, j)), (-1, (l + i, l + j)))
                  for i in range(l) for j in range(i + 1, l)]
        if kind == "B":
            roots += [(self.rs(i + 1), (1, (i,)), (1, (l + i,)))
                      for i in range(l)]
        self.positive_roots, e_codes, f_codes = map(list, zip(*roots))
        self.npos = len(self.positive_roots)
        self.dim = 2 * self.npos + l

        if kind == "B":
            self.simple_roots = [self.rm(i, i + 1) for i in range(1, l)]
            self.simple_roots.append(self.rs(l))
            self.dual_coxeter = 2 * l - 1
        else:
            self.simple_roots = [self.rm(i, i + 1) for i in range(1, l)]
            self.simple_roots.append(self.rp(l - 1, l))
            self.dual_coxeter = 2 * l - 2
        self.theta = self.rp(1, 2) if l >= 2 else self.rs(1)

        # frozen basis order: e-block, f-block, Cartan
        self.weights = (*self.positive_roots,
                        *(tuple(-c for c in r) for r in self.positive_roots),
                        *((0,) * l for _ in range(l)))
        self._e_index = {r: i for i, r in enumerate(self.positive_roots)}
        # (role, text) per basis index, the name a state's factor is written
        # under (root label for e and f, i for H_i); name_index inverts it
        labels = [root_label(r) for r in self.positive_roots]
        self.names = [*(("e", t) for t in labels), *(("f", t) for t in labels),
                      *(("h", i) for i in range(1, l + 1))]
        self.name_index = {name: x for x, name in enumerate(self.names)}

        # H_{i+1} = :a_{i+1} a*_{i+1}:
        self._signed_codes = [*e_codes, *f_codes,
                              *((1, (i, l + i)) for i in range(l))]
        self._code_index = {c: (k, sgn)
                            for k, (sgn, c) in enumerate(self._signed_codes)}
        # the code contracting with code p; g(p, r) = 1 exactly for r = dual[p]
        self._dual = [p + l if p < l else p - l for p in range(2 * l)]
        # partners: x_j is one of x_i when reach[i] & held[j], that is when
        # x_j holds the dual of a code of x_i or both are single fermions
        # (bit p is code p, bit 2l a single fermion); [x_i, x_j] and
        # (x_i, x_j) vanish on every other pair
        self.held = [sum(1 << p for p in c) | (len(c) == 1) << 2 * l
                     for _, c in self._signed_codes]
        self.reach = [sum(1 << self._dual[p] for p in c)
                      | (len(c) == 1) << 2 * l for _, c in self._signed_codes]
        # (i, j) -> bracket(i, j), filled on demand
        self._brackets = {}
        # pair[x] = (y, (x, y)) for the one y the form pairs x with: e and f
        # of one root at 2/(alpha, alpha), the int 1 or 2, H_i with itself at 1
        n, norms = self.npos, [2 // root_norm(r) for r in self.positive_roots]
        self.pair = (*((n + i, v) for i, v in enumerate(norms)),
                     *enumerate(norms), *((x, 1) for x in range(2 * n, self.dim)))

    # ---- basis bookkeeping -------------------------------------------------

    def rm(self, i, j):
        # ei - ej, requires i < j so the root is positive
        if not 1 <= i < j <= self.l:
            raise ValueError("ei-ej needs 1 <= i < j <= l")
        r = [0] * self.l
        r[i - 1] = 1
        r[j - 1] = -1
        return tuple(r)

    def rp(self, i, j):
        if i > j:
            i, j = j, i
        if not 1 <= i < j <= self.l:
            raise ValueError("ei+ej needs distinct indices in 1..l")
        r = [0] * self.l
        r[i - 1] = 1
        r[j - 1] = 1
        return tuple(r)

    def rs(self, i):
        if not 1 <= i <= self.l:
            raise ValueError("index out of range")
        r = [0] * self.l
        r[i - 1] = 1
        return tuple(r)

    def e_index(self, root):
        try:
            return self._e_index[tuple(root)]
        except KeyError:
            raise ValueError("%r is no positive root of %s_%d"
                             % (tuple(root), self.kind, self.l)) from None

    def f_index(self, root):
        return self.npos + self.e_index(root)

    def h_index(self, i):
        if not 1 <= i <= self.l:
            raise ValueError("Cartan index out of range")
        return 2 * self.npos + i - 1

    def label(self, idx):
        role, text = self.names[idx]
        return "H%d" % text if role == "h" else "%s(%s)" % (role, text)

    # ---- fermionic codes and structure constants ---------------------------

    def _rule(self, i, j):
        """[x_i, x_j] as sorted (index, coeff) pairs, () when it vanishes.

        Every basis element is one signed fermion monomial, so each bracket
        follows from the single-contraction rule with g(p, q) = {psi_p, psi_q}
        (1 on a dual pair, else 0):

            [:pq:, :rs:] = g(q,r) :ps: - g(q,s) :pr: - g(p,r) :qs: + g(p,s) :qr:
            [:pq:, psi_r] = g(q,r) psi_p - g(p,r) psi_q
            [psi_p, psi_r] = 2 :pr:

        with :qp: = -:pq: and :pp: = 0.  Every structure constant is an int.
        """
        si, ci = self._signed_codes[i]
        sj, cj = self._signed_codes[j]
        if len(ci) == len(cj) == 1:
            terms = [(2, ci + cj)]
        else:
            # Leibniz: [:pq:, y] puts [:pq:, psi_r] on each factor psi_r of
            # y; sign is -1 when :pq: is x_j, as [x_i, x_j] = -[x_j, x_i]
            sign, (p, q), y = (1, ci, cj) if len(ci) == 2 else (-1, cj, ci)
            dp, dq = self._dual[p], self._dual[q]
            terms = []
            for k, r in enumerate(y):
                if r == dq:
                    terms.append((sign, y[:k] + (p,) + y[k + 1:]))
                elif r == dp:
                    terms.append((-sign, y[:k] + (q,) + y[k + 1:]))
            if not terms:
                return ()
        out = {}
        for c, mono in terms:
            if len(mono) == 2 and mono[0] >= mono[1]:
                if mono[0] == mono[1]:
                    continue
                c, mono = -c, mono[::-1]
            k, s = self._code_index[mono]
            out[k] = out.get(k, 0) + si * sj * s * c
        return tuple((k, c) for k, c in sorted(out.items()) if c)

    def bracket(self, i, j):
        """[x_i, x_j] as a sparse tuple of (basis index, coefficient)."""
        items = self._brackets.get((i, j))
        if items is None:
            items = self._brackets[i, j] = self._rule(i, j)
        return items

    def bracket_elem(self, x, y):
        """Bracket of sparse elements {index: coeff}."""
        out = {}
        for i, ci in x.items():
            for j, cj in y.items():
                for k, c in self.bracket(i, j):
                    out[k] = out.get(k, 0) + ci * cj * c
        return {k: c for k, c in out.items() if c}

    # ---- invariant form ----------------------------------------------------

    def form(self, i, j):
        """Invariant bilinear form with (theta, theta) = 2, read from pair:
        (H_i, H_j) = delta_ij, (e_alpha, f_alpha) = 2/(alpha, alpha), all
        other basis pairs vanish."""
        y, v = self.pair[i]
        return v if y == j else 0

    # ---- Cartan data ---------------------------------------------------------

    def coroot_coords(self, root):
        """Closed form h_alpha = sum_i (2 c_i / (alpha,alpha)) H_i."""
        return {
            self.h_index(i + 1): c
            for i, c in enumerate(coroot_ints(root, root_norm(root))) if c
        }

    def rho(self):
        """Finite Weyl vector, half the sum of the positive roots."""
        return tuple(Fraction(sum(c), 2) for c in zip(*self.positive_roots))

    def cartan_matrix(self):
        """Row i, column j holds the int <alpha_j, h_alpha_i>."""
        return [
            [sum(x * y for x, y in zip(coroot_ints(a, root_norm(a)), b))
             for b in self.simple_roots]
            for a in self.simple_roots
        ]

    # ---- dump ----------------------------------------------------------------

    def to_dump(self):
        """Plain-data description: basis, nonzero brackets, invariant form,
        roots."""
        # one rule call per partner pair i < j, and row j gets its cells below
        # the diagonal before its own pass, so every row comes out sorted;
        # j comes from one shared list, as range would build an int per cell
        rows = [[] for _ in range(self.dim)]
        held, index = self.held, list(range(self.dim))
        for i, reach in enumerate(self.reach):
            for j in [j for j in index[i + 1:] if reach & held[j]]:
                items = self._rule(i, j)
                if items:
                    rows[i].append((j, [[k, str(c)] for k, c in items]))
                    rows[j].append((i, [[k, str(-c)] for k, c in items]))
        brackets = [[i, j, items] for i, row in enumerate(rows)
                    for j, items in row]
        form = [[i, j, str(v)] for i, (j, v) in enumerate(self.pair) if j >= i]
        return {
            "type": self.kind,
            "l": self.l,
            "dim": self.dim,
            "dual_coxeter": self.dual_coxeter,
            "basis": [
                {"index": i, "label": self.label(i), "weight": list(w)}
                for i, w in enumerate(self.weights)
            ],
            "positive_roots": [root_label(r) for r in self.positive_roots],
            "simple_roots": [root_label(r) for r in self.simple_roots],
            "theta": root_label(self.theta),
            "brackets": brackets,
            "form": form,
        }

    def __repr__(self):
        return "LieAlgebra(%s_%d)" % (self.kind, self.l)


# typed, so a bool is not served the algebra of its int
@lru_cache(maxsize=None, typed=True)
def algebra(kind, l):
    """Cached construction of the type B_l / D_l algebra."""
    return LieAlgebra(kind, l)
