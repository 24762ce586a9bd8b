"""Level-k vacuum modules over the affinization, as spaces of PBW monomials.

States live in U(g[t^-1] t^-1) applied to a vacuum vector killed by all
nonnegative modes.  The loop generator x(n), x a basis index of the finite
algebra, is the int factor n * dim + x (see encode) everywhere: in the
paper's formulas (see vocabulary), in the runs of a word, the memo and a
canonical monomial, a tuple of negative factors sorted ascending as
(mode, index) would be.  A factor is straightened by the Leibniz rule

    x(n) y_1...y_k|0> = sum_i y_1...y_{i-1} [x(n), y_i] y_{i+1}...y_k|0>
                        + y_1...y_p x(n) y_{p+1}...y_k|0>      (n < 0 only)
    [x(n), y(m)] = [x,y](n+m) + n delta_{n+m,0} (x,y) k

summed over the factors x(n) passes: the p that sort before x(n) for
n < 0, all k for n >= 0, where x(n) kills the vacuum.  The central term
never fires between two negative modes, and only partners contract (see
LieAlgebra.reach): a term needs a partner y_i, and x(n) with n >= 0 and no
partner in the monomial is zero.  A bracket term is one factor on the
suffix, its prefix put back factor by factor where it does not sort first;
each acts on fewer factors than x(n) did, so the recursion ends.  Results
are memoized per module, keyed by (factor, monomial), but for a
negative-mode factor that sorts first, prepended in place without a call,
and the products proven zero, which are not stored.

The paper's displays are products of sums (h(1-2)(-1) is H_1 - H_2); act
takes them as written, one pass over the state per position, and never
multiplies them out.  Straightening and state arithmetic run on int: a
state is int numerators over one denominator (see PBWState), and Fraction
is built only where a scalar leaves the module (multiple_of, to_obj,
terms).  There is no floating point anywhere.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache, wraps
from math import gcd, lcm

from . import liealg


def encode(alg, mode, index):
    """x(n), basis index x at mode n, as the int factor n * dim + x."""
    return mode * alg.dim + index


def decode(alg, factor):
    """(mode, index) of an int factor, the inverse of encode."""
    return divmod(factor, alg.dim)


def vocabulary(alg):
    """E, F, H over alg: the paper's e_root(mode), f_root(mode) and coroot
    h_vec(mode) = sum_i (2 c_i/(vec,vec)) H_i, each as the sum it puts at one
    position of a term (coeff, (position, ...)), a tuple of (factor, int)
    pairs: one for E and F, the sorted coroot_coords for H.  Roots and
    vectors are epsilon-coordinate tuples; mode defaults to -1."""
    def E(root, mode=-1):
        return ((encode(alg, mode, alg.e_index(root)), 1),)

    def F(root, mode=-1):
        return ((encode(alg, mode, alg.f_index(root)), 1),)

    def H(vec, mode=-1):
        return tuple((encode(alg, mode, x), c)
                     for x, c in sorted(alg.coroot_coords(vec).items()))

    return E, F, H


def fixed_state(make):
    """Decorator: make(module) through module.derived, built once per module."""
    return wraps(make)(lambda module: module.derived(make))


class VermaModule:
    """Vacuum module at a fixed level over the affinization of one algebra,
    with a store of fixed states: derived(make) builds make(self) once and
    keeps its int numerators and denominator, not the state, which would
    point back here and make a cycle only the cyclic collector frees."""

    def __init__(self, alg, level):
        self.alg = alg
        self.level = exact_level(level)
        self._knum, self._kden = self.level.numerator, self.level.denominator
        self._memo = {}
        self._derived = {}

    def __repr__(self):
        return "VermaModule(%s_%d, k=%s)" % (self.alg.kind, self.alg.l, self.level)

    def vacuum(self):
        return PBWState(self, {(): 1})

    def zero(self):
        return PBWState(self, {})

    def derived(self, make):
        """An equal new state make(self) per call, built on first use."""
        if make not in self._derived:
            state = make(self)
            self._derived[make] = state.nums, state.den
        return PBWState(self, *self._derived[make])

    def state(self, terms, den=1):
        """State sum terms[m] / den * m from {monomial: coeff}, coeff an int
        or a Fraction (TypeError otherwise: a float's binary value is not
        exact), den a nonzero int; monomials must be canonical (sorted
        tuples of factors, each a negative int, so its mode is too)."""
        if den == 0:
            raise ValueError("denominator 0")
        out = {}
        for mono, c in terms.items():
            mono = tuple(mono)
            if not all(type(f) is int and f < 0 for f in mono) \
                    or list(mono) != sorted(mono):
                raise ValueError("monomial %r is not canonical" % (mono,))
            if not isinstance(c, (int, Fraction)):
                raise TypeError("coefficient %r is no int or Fraction" % (c,))
            out[mono] = c
        d = lcm(*(c.denominator for c in out.values()))
        return PBWState(self, {mono: c.numerator * (d // c.denominator)
                               for mono, c in out.items()}, d * den)

    # ---- the straightening kernel -------------------------------------------

    def operator_terms(self, factor, mono):
        """The (monomial, coeff) terms of a factor x(n) applied to a
        canonical monomial, with the int coefficients of _apply_mono: scaled
        by level.denominator when n > 0.  The scale depends on n alone, so a
        linear system with one row per (factor, monomial) keeps its
        solutions."""
        flat = self._apply_mono(factor, mono)
        return zip(flat[::2], flat[1::2])

    def _apply_mono(self, factor, mono):
        """A factor x(n) on a canonical monomial by the Leibniz rule (see
        the module docstring), as the flat tuple (monomial, coeff, ...): one
        object per memo entry rather than one per term, read in place as
        zip(it, it) over one iterator it (operator_terms slices it).  A
        sort-first prepend and a nonnegative mode with no partner are
        answered before the memo is read; a miss goes to _straighten."""
        if factor < 0 and (not mono or factor <= mono[0]):
            return ((factor,) + mono, 1)
        if factor >= 0:
            dim = self.alg.dim
            reach, held = self.alg.reach[factor % dim], self.alg.held
            for f in mono:
                if reach & held[f % dim]:
                    break
            else:
                # x(n) commutes past every factor and kills the vacuum
                return ()
        hit = self._memo.get((factor, mono))
        return self._straighten(factor, mono) if hit is None else hit

    def _straighten(self, factor, mono):
        """_apply_mono past the memo read; the result is stored.  Coefficients
        are int: exact for n <= 0, and for n > 0 times level.denominator,
        since a central term ends the positive-mode operator, contributing
        n (x,y) level.numerator, and a bracket that lowers the mode to
        n + m <= 0 is scaled to match.  A passed partner y_i gives z(n+m_i)
        on the suffix per z in [x, y_i], with the prefix prepended where it
        sorts first, else put back by _apply_run: each call is on fewer
        factors than mono (a factor on L gives at most L + 1)."""
        alg, dim = self.alg, self.alg.dim
        n, x = divmod(factor, dim)
        reach, held = alg.reach[x], alg.held
        pair, form = alg.pair[x]
        p = len(mono) if n >= 0 else bisect_left(mono, factor)
        acc = {} if n >= 0 else {mono[:p] + (factor,) + mono[p:]: 1}
        for i in range(p):
            m, y = divmod(mono[i], dim)
            if not reach & held[y]:
                continue
            # [x(n), y(m)] = [x,y](n+m) + n delta_{n+m,0} (x,y) k
            prefix, suffix = mono[:i], mono[i + 1:]
            scale = self._kden if n > 0 >= n + m else 1
            back = {}
            for z, cz in alg.bracket(x, y):
                cz *= scale
                it = iter(self._apply_mono((n + m) * dim + z, suffix))
                for mono1, c1 in zip(it, it):
                    if not prefix or not mono1 or prefix[-1] <= mono1[0]:
                        mono1 = prefix + mono1
                        acc[mono1] = acc.get(mono1, 0) + cz * c1
                    else:
                        back[mono1] = back.get(mono1, 0) + cz * c1
            if back:
                put_back = self._apply_run([((f, 1),) for f in prefix], back)
                for mono1, c1 in put_back.items():
                    acc[mono1] = acc.get(mono1, 0) + c1
            if y == pair and n > 0 and n + m == 0:
                mono1 = prefix + suffix
                acc[mono1] = acc.get(mono1, 0) + n * form * self._knum
        flat = []
        for mono1, c in acc.items():
            if c:
                flat += mono1, c
        result = self._memo[factor, mono] = tuple(flat)
        return result

    def _apply_run(self, run, cur):
        """A run of positions, tuples of (factor, int) pairs (a term as act
        plans it, or a prefix the kernel puts back, one pair each), applied
        rightmost first to cur, {monomial: int} with the scales of
        _apply_mono, in one pass per position: a negative factor that sorts
        first is prepended in place, the memo is read here for the others
        (_apply_mono reads it for a nonnegative one) and _straighten called
        only on a miss, and a numerator a position cancels is skipped."""
        memo = self._memo
        for pos in reversed(run):
            nxt = {}
            for factor, c in pos:
                for mono, v in cur.items():
                    if not v:
                        continue
                    cv = c * v
                    if factor < 0 and (not mono or factor <= mono[0]):
                        mono1 = (factor,) + mono
                        nxt[mono1] = nxt.get(mono1, 0) + cv
                        continue
                    hit = memo.get((factor, mono)) if factor < 0 \
                        else self._apply_mono(factor, mono)
                    it = iter(self._straighten(factor, mono) if hit is None
                              else hit)
                    for mono1, c1 in zip(it, it):
                        nxt[mono1] = nxt.get(mono1, 0) + cv * c1
            cur = nxt
        return cur

    # ---- public operations ---------------------------------------------------

    def apply(self, factor, state):
        """Act by the loop generator x(n), the int factor, on a state."""
        return self.act([(1, (((factor, 1),),))], state)

    def act(self, terms, state):
        """Apply terms [(coeff, (position, ...)), ...] to a state, a position
        the (factor, multiplier) pairs summed there (see vocabulary),
        rightmost first, one _apply_run pass each.  coeff and multipliers
        are int or Fraction (TypeError otherwise), factors int (ValueError
        otherwise).  One scale per position makes its multipliers int:
        their denominators' lcm, times level.denominator where a mode is
        positive (the kernel scales those results by it).  It goes into the
        term's denominator, and the result is int numerators over the lcm
        of those times the state's."""
        if state.module is not self:
            raise ValueError("state belongs to a different module")
        dim, kden = self.alg.dim, self._kden
        plans = []
        for c, positions in terms:
            if not isinstance(c, (int, Fraction)):
                raise TypeError("coefficient %r is no int or Fraction" % (c,))
            den, run = c.denominator, []
            for pos in positions:
                s = 0  # stays 0 while pos holds int multipliers at modes <= 0
                for f, m in pos:
                    if type(f) is not int:
                        raise ValueError("bad factor %r" % (f,))
                    if type(m) is not int or f >= dim:
                        if not isinstance(m, (int, Fraction)):
                            raise TypeError("multiplier %r is no int or Fraction" % (m,))
                        s = lcm(s or 1, m.denominator * (kden if f >= dim else 1))
                if s:
                    pos = tuple((f, m.numerator * (s // (m.denominator * (
                        kden if f >= dim else 1)))) for f, m in pos)
                    den *= s
                run.append(pos)
            plans.append((c.numerator, den, run))
        out_den = lcm(*(den for _, den, _ in plans))
        out = {}
        for num, den, run in plans:
            mult = num * (out_den // den)
            for mono, v in self._apply_run(run, state.nums).items():
                if v:
                    out[mono] = out.get(mono, 0) + mult * v
        return PBWState(self, out, out_den * state.den)

    def build(self, terms):
        """The state a display denotes: its terms acted on the vacuum."""
        return self.act(terms, self.vacuum())


class PBWState:
    """Sparse element of a VermaModule: sum nums[m] / den * m over canonical
    monomials m, with int numerators over one int denominator.

    The form is canonical (den >= 1, no zero numerator, gcd(den, *nums) ==
    1), so == and hash compare ints.  Fraction is built only for callers:
    terms, multiple_of, to_obj and repr.  Treated as immutable; all
    arithmetic returns new states.
    """

    __slots__ = ("module", "nums", "den")

    def __init__(self, module, nums, den=1):
        nums = {m: v for m, v in nums.items() if v}
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {m: v // g for m, v in nums.items()}
            den //= g
        self.module = module
        self.nums = nums
        self.den = den

    @property
    def terms(self):
        """{monomial: Fraction}, a copy for reading."""
        return {m: Fraction(v, self.den) for m, v in self.nums.items()}

    def is_zero(self):
        return not self.nums

    def __len__(self):
        return len(self.nums)

    def __eq__(self, other):
        if not isinstance(other, PBWState):
            return NotImplemented
        return (self.module is other.module and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((frozenset(self.nums.items()), self.den))

    def __add__(self, other):
        if other == 0:
            return self
        if not isinstance(other, PBWState) or other.module is not self.module:
            raise ValueError("can only add states of the same module")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {m: a * v for m, v in self.nums.items()}
        for m, v in other.nums.items():
            out[m] = out.get(m, 0) + b * v
        return PBWState(self.module, out, den)

    __radd__ = __add__

    def __neg__(self):
        return PBWState(self.module, {m: -v for m, v in self.nums.items()},
                        self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        p = scalar.numerator
        return PBWState(self.module, {m: p * v for m, v in self.nums.items()},
                        self.den * scalar.denominator)

    __rmul__ = __mul__

    def degree(self):
        """Common conformal degree sum(-modes), or None if mixed or zero."""
        alg = self.module.alg
        degs = {-sum(decode(alg, f)[0] for f in m) for m in self.nums}
        if len(degs) == 1:
            return degs.pop()
        return None

    def weight(self):
        """Common finite h-weight as an epsilon tuple, or None if mixed or zero."""
        alg = self.module.alg
        weights = {f: alg.weights[decode(alg, f)[1]]
                   for f in {f for m in self.nums for f in m}}
        zero = (0,) * alg.l
        seen = {tuple(map(sum, zip(zero, *[weights[f] for f in m])))
                for m in self.nums}
        return seen.pop() if len(seen) == 1 else None

    def multiple_of(self, other):
        """The scalar s with self == s*other, or None if there is none."""
        if not isinstance(other, PBWState) or other.module is not self.module:
            raise ValueError("states of different modules")
        if other.is_zero():
            return None
        mono = min(other.nums)
        s = Fraction(self.nums.get(mono, 0) * other.den,
                     other.nums[mono] * self.den)
        return s if self == s * other else None

    # ---- serialization -------------------------------------------------------

    def to_obj(self):
        """JSON-ready form: list of {coeff, monomial}, deterministically sorted.

        Each factor is encoded [role, root-label-or-Cartan-index, mode], its
        name in alg.names followed by its mode.
        """
        alg = self.module.alg
        out = []
        for mono in sorted(self.nums):
            enc = [[*alg.names[x], n] for n, x in (decode(alg, f) for f in mono)]
            out.append({"coeff": str(Fraction(self.nums[mono], self.den)),
                        "monomial": enc})
        return out

    @classmethod
    def from_obj(cls, module, obj):
        """Inverse of to_obj.  ValueError on a document that is no list, a
        term that is no dict with exactly the keys coeff and monomial, a
        coeff that is no reduced "p/q" string, a factor that is no list
        [role, datum, int mode] whose (role, datum) is the name to_obj
        writes for a basis index (alg.names, so "01-2", "2+1" and True are
        refused), and a monomial that is no canonical list."""
        if not isinstance(obj, list):
            raise ValueError("state %r is no list" % (obj,))
        alg = module.alg
        terms = {}
        for item in obj:
            if not (isinstance(item, dict)
                    and item.keys() == {"coeff", "monomial"}
                    and isinstance(item["monomial"], list)
                    and isinstance(item["coeff"], str)):
                raise ValueError("bad term %r" % (item,))
            mono = []
            for factor in item["monomial"]:
                role, datum, n = (factor if type(factor) is list and len(
                    factor) == 3 and type(factor[2]) is int else (None,) * 3)
                # the type guard keeps True and 1.0 from reading as H_1 and
                # a list from raising TypeError in the lookup
                idx = (alg.name_index.get((role, datum)) if type(role) is str
                       and type(datum) in (int, str) else None)
                if idx is None:
                    raise ValueError("bad factor %r" % (factor,))
                mono.append(encode(alg, n, idx))
            mono = tuple(mono)
            try:
                coeff = Fraction(item["coeff"])
            except ZeroDivisionError:
                coeff = None
            if str(coeff) != item["coeff"]:
                raise ValueError("coeff %r is no reduced fraction string"
                                 % (item["coeff"],))
            terms[mono] = terms.get(mono, 0) + coeff
        return module.state(terms)

    def __repr__(self):
        if not self.nums:
            return "0"
        alg = self.module.alg
        bits = []
        for mono in sorted(self.nums):
            fac = " ".join("%s(%d)" % (alg.label(x), n)
                           for n, x in (decode(alg, f) for f in mono))
            bits.append("%s * %s|0>" % (Fraction(self.nums[mono], self.den),
                                        fac + " " if fac else ""))
        return " + ".join(bits)


def special_level(l):
    """The level -l + 3/2 at which the paper's identities hold."""
    return Fraction(3 - 2 * l, 2)


def exact_level(level):
    """Fraction(level); TypeError unless level is an int or a Fraction, as a
    float's binary value is not exact."""
    if not isinstance(level, (int, Fraction)):
        raise TypeError("level %r is no int or Fraction" % (level,))
    return Fraction(level)


# typed, so a float equal to a cached int or Fraction level is not served
@lru_cache(maxsize=None, typed=True)
def vacuum_module(kind, l, level=None):
    """Cached module; level defaults to special_level(l)."""
    if level is None:
        level = special_level(l)
    return VermaModule(liealg.algebra(kind, l), level)
