"""``quantile_midpoint`` against an exact oracle in rational arithmetic.

The oracle takes the rank h = q * n and any midpoint as ``Fraction``s: a
whole h in [1, n) gives the midpoint of ranks h and h + 1, any other h the
value at rank ceil(h), clamped to [1, n]. For q = r / n rounded to float64,
the quantile meant is the rank boundary r, which q * n misses by a few
units in the last place; the function's rank tolerance must still find it,
for n in the tens of thousands too, where one unit exceeds 1e-12."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fld.stats import quantile_midpoint


def quantile_oracle(values, q: Fraction) -> float:
    x = sorted(float(v) for v in values)  # floats compare exactly
    n, h = len(x), q * len(values)
    if h.denominator == 1 and 1 <= h < n:
        return float((Fraction(x[h.numerator - 1]) + Fraction(x[h.numerator])) / 2)
    return x[min(max(math.ceil(h), 1), n) - 1]


finite = st.floats(-1e300, 1e300, allow_nan=False)


@settings(max_examples=150)
@given(values=st.lists(finite, min_size=1, max_size=40),
       q=st.floats(0.0, 1.0, exclude_min=True))
def test_quantile_matches_the_exact_oracle(values, q):
    h = Fraction(q) * len(values)
    # away from a rank boundary, or on one exactly: within the rank
    # tolerance of a boundary the function takes the boundary, as meant
    assume(h.denominator == 1 or abs(h - round(h)) > 1e-9 * h)
    assert quantile_midpoint(np.array(values), q) == quantile_oracle(values, Fraction(q))


@settings(max_examples=60)
@given(n=st.integers(2, 40_000), data=st.data(), seed=st.integers(0, 2**31))
def test_quantile_finds_the_rank_boundary_that_q_names(n, data, seed):
    r = data.draw(st.integers(1, n - 1))
    # the boundaries q * n misses in float64 are the ones the tolerance is for
    r = next((s for s in range(r, n) if s / n * n != s), r)
    # ranks r and r + 1 of 0..n-1 hold r - 1 and r
    values = np.random.default_rng(seed).permutation(n).astype(np.float64)
    assert quantile_midpoint(values, r / n) == r - 0.5
