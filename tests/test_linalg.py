"""Exact rational linear algebra: elimination, nullspaces, solving."""

from collections import Counter
from fractions import Fraction

import pytest

from math import gcd

import helpers
from affine_verma import linalg
from affine_verma.linalg import Echelon, clear_denominators, nullspace, \
    solve_exact


def test_clear_denominators():
    row = {0: Fraction(1, 2), 3: Fraction(-2, 3)}
    cleared = clear_denominators(row)
    assert cleared == {0: 3, 3: -4}
    assert clear_denominators({}) == {}
    assert clear_denominators({0: Fraction(4, 2), 1: 3}) == {0: 2, 1: 3}


def test_clear_denominators_builds_no_fraction_for_int_rows(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("Fraction built for an int row")

    monkeypatch.setattr(linalg, "Fraction", no_fraction)
    cleared = clear_denominators({0: 3, 1: 0, 4: -4})
    assert cleared == {0: 3, 4: -4}
    assert all(type(v) is int for v in cleared.values())


def test_echelon_drops_zero_entries():
    dense, sparse = Echelon(), Echelon()
    dense.add({0: 0, 1: Fraction(0), 2: Fraction(3, 2), 3: -1, 4: 0})
    sparse.add({2: Fraction(3, 2), 3: -1})
    assert dense.rows == sparse.rows == {2: {2: 3, 3: -2}}
    assert not dense.add({0: 0, 1: Fraction(0)})
    assert dense.rows == sparse.rows


def test_echelon_reduce_leaves_accumulator_unchanged(rng):
    for _ in range(100):
        ech = Echelon()
        for _ in range(rng.randint(0, 4)):
            ech.add({c: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for c in range(5) if rng.random() < 0.6})
        before = {p: dict(row) for p, row in ech.rows.items()}
        row = {c: rng.randint(-4, 4) for c in range(5)}
        left = ech.reduce(row)
        assert ech.rows == before
        # what is left differs from the row by the row space, and its
        # smallest column is free
        assert not left or min(left) not in ech.rows
        probe = Echelon()
        for r in list(before.values()) + [left]:
            probe.add(r)
        assert probe.add(row) is False
        # add inserts exactly what reduce leaves, up to a positive scale
        assert ech.add(row) == bool(left)
        if left:
            col = min(left)
            inserted = ech.rows[col]
            assert all(inserted[c] * left[col] == v * inserted[col]
                       for c, v in left.items())
            assert set(inserted) == set(left)
        else:
            assert ech.rows == before


def test_nullspace_known_kernel():
    # x + y + z = 0, x - z = 0  =>  kernel spanned by (1, -2, 1)
    rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 2: -1}]
    basis = nullspace(rows, 3)
    assert basis == [[1, -2, 1]]


def test_nullspace_full_rank_is_empty():
    rows = [{0: 2}, {1: 3}, {2: -1}]
    assert nullspace(rows, 3) == []


def test_nullspace_zero_map():
    basis = nullspace([], 2)
    assert basis == [[1, 0], [0, 1]]


def test_nullspace_vectors_are_primitive_and_signed():
    # kernel direction (-2/3, 1) must come out integer, primitive,
    # first nonzero entry positive
    rows = [{0: Fraction(3), 1: Fraction(2)}]
    basis = nullspace(rows, 2)
    assert basis == [[2, -3]]


def test_nullspace_members_annihilate(rng):
    for trial in range(20):
        ncols = rng.randint(2, 6)
        rows = []
        for _ in range(rng.randint(1, 5)):
            rows.append({
                j: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for j in range(ncols) if rng.random() < 0.7
            })
        rank = Echelon()
        for r in rows:
            rank.add(dict(r))
        basis = nullspace(rows, ncols)
        assert len(basis) == ncols - rank.rank
        for vec in basis:
            for row in rows:
                assert sum(row.get(j, 0) * vec[j] for j in range(ncols)) == 0


def test_nullspace_ignores_row_order(rng):
    # nullspace adds rows sparsest first; the basis must be the one of the
    # given order, whatever the order, with zero and repeated rows mixed in
    for trial in range(60):
        ncols = rng.randint(1, 9)
        rows = []
        for _ in range(rng.randint(0, 5)):
            row = {}
            for c in rng.sample(range(ncols), rng.randint(1, min(3, ncols))):
                v = rng.randint(-5, 5)
                row[c] = Fraction(v, rng.randint(1, 4)) if trial % 2 else v
            rows.append(row)
        # rank-deficient: sums of earlier rows, copies and zero rows
        for _ in range(rng.randint(1, 3)):
            if rows:
                a, b = rng.choice(rows), rng.choice(rows)
                rows.append({c: a.get(c, 0) + b.get(c, 0)
                             for c in set(a) | set(b)})
                rows.append(dict(rng.choice(rows)))
            rows.append({})
            rows.append({rng.randrange(ncols): 0})
        ech = Echelon()
        for row in rows:
            if row:
                ech.add(row)
        want = ech.nullspace(ncols)
        assert nullspace(rows, ncols) == want
        for _ in range(3):
            rng.shuffle(rows)
            assert nullspace(rows, ncols) == want
            assert nullspace(iter(rows), ncols) == want


def test_nullspace_rejects_columns_outside_range():
    # a column past ncols, or a negative one, names no unknown of the system
    for rows, ncols, col in (([{0: 1, 5: 2}], 3, "5"), ([{2: 1}], 2, "2"),
                             ([{0: 1}, {-1: 1, 1: 2}], 2, "-1"),
                             ([{0: 1, 3: 0}], 3, "3")):
        with pytest.raises(ValueError, match="column %s " % col):
            nullspace(rows, ncols)


def _class_rich_rows(rng, ncols, stats):
    """A random system made mostly of two-term rows: chains, cycles whose
    closing ratio agrees or disagrees, one-term rows and a few longer rows,
    with explicit zero entries and Fraction entries mixed in; some columns
    are left out of every row."""
    def entry():
        v = rng.choice((-3, -2, -1, 1, 2, 3, 4))
        return Fraction(v, rng.randint(2, 5)) if rng.random() < 0.3 else v

    used = rng.sample(range(ncols), rng.randint(1, ncols))
    rows = []
    for _ in range(rng.randint(1, 4)):
        chain = rng.sample(used, rng.randint(1, len(used)))
        ratio = Fraction(1)  # x_chain[t] = ratio * x_chain[0]
        for a, b in zip(chain, chain[1:]):
            u, v = entry(), entry()
            rows.append({a: u, b: v})
            ratio *= Fraction(-u) / v
        if len(chain) > 2 and rng.random() < 0.5:
            # x_last - r * x_first = 0 closes the cycle
            agrees = rng.random() < 0.5
            stats["cycle", agrees] += 1
            rows.append({chain[-1]: 1, chain[0]: -ratio * (1 if agrees else 2)})
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.3:
            rows.append({rng.choice(used): entry()})
    for _ in range(rng.randint(0, 3)):
        cols = rng.sample(range(ncols), min(ncols, rng.randint(3, 5)))
        rows.append({c: entry() for c in cols})
    for row in rows:
        if rng.random() < 0.2:
            row[rng.randrange(ncols)] = 0 if rng.random() < 0.5 else Fraction(0)
    rng.shuffle(rows)
    return rows


def test_class_pass_matches_plain_elimination(rng):
    # nullspace folds the two-term rows into classes before Echelon; its
    # basis is the one of Echelon alone and of the reference kernel, on
    # systems rich in chains and cycles, with kernels of every dimension
    stats = Counter()
    for _ in range(400):
        ncols = rng.randint(1, 12)
        rows = _class_rich_rows(rng, ncols, stats)
        ech, ref = Echelon(), helpers.ReferenceEchelon()
        for row in rows:
            ech.add(row)
            ref.add(row)
        want = ech.nullspace(ncols)
        assert nullspace(rows, ncols) == want == ref.nullspace(ncols)
        assert nullspace(iter(rows), ncols) == want
        stats["dimension", min(len(want), 2)] += 1
    assert all(stats[key] >= 20 for key in (
        ("dimension", 0), ("dimension", 1), ("dimension", 2),
        ("cycle", True), ("cycle", False))), stats


def test_echelon_rank():
    e = Echelon()
    e.add({0: Fraction(1), 1: Fraction(1)})
    e.add({0: Fraction(2), 1: Fraction(2)})
    assert e.rank == 1
    e.add({1: Fraction(5)})
    assert e.rank == 2
    e.add({})
    assert e.rank == 2


def test_solve_exact():
    cols = [[1, 1], [0, 1]]
    target = [3, 5]
    assert solve_exact(cols, target) == [Fraction(3), Fraction(2)]
    # inconsistent target
    assert solve_exact([[1, 0]], [0, 1]) is None
    # dependent columns make coordinates non-unique
    with pytest.raises(ValueError):
        solve_exact([[1, 0], [2, 0]], [2, 0])
    # dependent and inconsistent is inconsistent first
    assert solve_exact([[1, 0], [2, 0]], [0, 1]) is None
    # Fraction entries, more equations than unknowns
    half = Fraction(1, 2)
    assert solve_exact([[half, 0, 1], [0, Fraction(2, 3), 0]],
                       [Fraction(1, 4), 2, half]) == [half, Fraction(3)]


def _fraction_back_substitution(ech, ncols):
    """The Fraction back-substitution the int one replaced."""
    pivots = sorted(ech.rows)
    basis = []
    for free in range(ncols):
        if free in ech.rows:
            continue
        x = {free: Fraction(1)}
        for p in reversed(pivots):
            if p >= free:
                continue
            rowp = ech.rows[p]
            s = sum((v * x[c] for c, v in rowp.items() if c != p and c in x),
                    Fraction(0))
            if s:
                x[p] = -s / rowp[p]
        vec = [x.get(c, Fraction(0)) for c in range(ncols)]
        mult = 1
        for v in vec:
            mult = mult * v.denominator // gcd(mult, v.denominator)
        ints = [int(v * mult) for v in vec]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        ints = [v // g for v in ints]
        if next(v for v in ints if v) < 0:
            ints = [-v for v in ints]
        basis.append(ints)
    return basis


def test_int_back_substitution_matches_fraction(rng):
    # pivots above 1 that do not divide the partial sums force the rescale
    for _ in range(300):
        ncols = rng.randint(2, 8)
        ech = Echelon()
        for _ in range(rng.randint(1, ncols)):
            ech.add({c: Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
                     for c in rng.sample(range(ncols), rng.randint(1, ncols))})
        got = ech.nullspace(ncols)
        assert all(type(v) is int for vec in got for v in vec)
        assert got == _fraction_back_substitution(ech, ncols)


# large primes and prime powers: pairwise coprime, so neither the pivot
# gcds nor the row contents divide them out
_LARGE = (2**61 - 1, 2**31 - 1, 10**9 + 7, 998244353, 3**40, 5**27)


def _random_rows(rng, ncols, fractions, large):
    def entry():
        v = rng.randint(-6, 6) or 1
        if large and rng.random() < 0.4:
            v *= rng.choice(_LARGE)
        if not fractions:
            return v
        d = rng.choice(_LARGE) if large and rng.random() < 0.2 else 1
        return Fraction(v, d * rng.randint(1, 6))

    rows = []
    for _ in range(rng.randint(0, 2 * ncols)):
        if rows and rng.random() < 0.2:
            # a combination of earlier rows, so some rows reduce to {}
            a, b = rng.choice(rows), rng.choice(rows)
            k = rng.randint(-3, 3)
            rows.append({c: a.get(c, 0) + k * b.get(c, 0)
                         for c in set(a) | set(b)})
        else:
            rows.append({c: entry() for c in
                         rng.sample(range(ncols), rng.randint(1, min(ncols, 5)))})
    return rows


@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("large", [False, True])
def test_reduce_matches_reference_kernel(rng, fractions, large):
    # the in-place kernel against the one that built a new row and took its
    # content gcd at every step: residuals agree up to a positive scale, and
    # stored rows and nullspace bases are identical
    for _ in range(120):
        ncols = rng.randint(1, 10)
        rows = _random_rows(rng, ncols, fractions, large)
        ech, ref = Echelon(), helpers.ReferenceEchelon()
        for row in rows:
            given = dict(row)
            stored = {p: dict(r) for p, r in ech.rows.items()}
            got, want = ech.reduce(row), ref.reduce(row)
            assert set(got) == set(want)
            if got:
                col = min(got)
                assert got[col] * want[col] > 0
                assert all(v * want[col] == want[c] * got[col]
                           for c, v in got.items())
            assert ech.add(row) == ref.add(row)
            assert ech.rows == ref.rows
            # neither the caller's row nor a stored row is written to
            assert row == given
            assert all(ech.rows[p] == r for p, r in stored.items())
            assert all(r is not row for r in ech.rows.values())
        assert ech.nullspace(ncols) == ref.nullspace(ncols)
        ref = helpers.ReferenceEchelon()
        for row in sorted(rows, key=len):
            if row:
                ref.add(row)
        assert nullspace(rows, ncols) == ref.nullspace(ncols)
