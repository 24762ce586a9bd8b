"""Reference work that the benchmark's times are normalized by.

Every time the benchmark reports is measured seconds times
REFERENCE_S / (time of this work measured next to it, in the same process).
The 2-core host the benchmark was written on changes speed by 15-30 % from
one minute to the next; this work slows with it, so the ratio stays put.

The work is fixed pure Python in the verifier's style: sparse
Fraction-valued dicts keyed by sorted tuples, and building and comparing
tuples the way monomial enumeration does.  It uses nothing
from affine_verma, so no change to the package moves it, and it allocates
little, so it does not show in the workload's peak RSS.
"""

from fractions import Fraction
from time import perf_counter


def _fraction_products():
    terms = {(i % 5, i % 7, i % 11): Fraction(i + 1, i % 6 + 1)
             for i in range(50)}
    acc = {}
    for m1, c1 in terms.items():
        for m2, c2 in terms.items():
            key = tuple(sorted(m1 + m2))
            acc[key] = acc.get(key, 0) + c1 * c2
    return acc


def _tuple_scan():
    out = []
    base = tuple(range(6))
    bound = base + (8, 2)
    for i in range(40000):
        t = base + (i % 17, i % 5)
        if t < bound:
            out.append(t[:4])
    return out


PARTS = (_fraction_products, _tuple_scan)
REFERENCE_S = 0.03


def seconds():
    """Time of the reference work: each part best of two, summed."""
    total = 0.0
    for part in PARTS:
        best = None
        for _ in range(2):
            t0 = perf_counter()
            part()
            t = perf_counter() - t0
            best = t if best is None else min(best, t)
        total += best
    return total


def timed(fn):
    """Run fn() between two reference timings; returns (result, measured
    seconds, scale that turns measured into normalized seconds)."""
    before = seconds()
    t0 = perf_counter()
    result = fn()
    elapsed = perf_counter() - t0
    return result, elapsed, scale(before, seconds())


def scale(before, after):
    return REFERENCE_S / ((before + after) / 2)
