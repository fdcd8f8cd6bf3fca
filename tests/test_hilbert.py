"""Hilbert numerators of monomial ideals against brute-force counts."""

import gc
import itertools
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from charclass.hilbert import dimension_degree, numerator


@st.composite
def monomial_ideals(draw):
    """(gens, nvars): 0-4 exponent tuples in 1-4 variables, exponents < 4."""
    nvars = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return draw(st.lists(exps, max_size=4)), nvars


def _standard_monomials(gens, nvars, d):
    """Number of degree-d monomials that no generator divides."""
    count = 0
    for head in itertools.product(range(d + 1), repeat=nvars - 1):
        if sum(head) <= d:
            m = head + (d - sum(head),)
            count += not any(all(a >= b for a, b in zip(m, g)) for g in gens)
    return count


def _series(num, nvars, d):
    """Coefficient of t^d in num(t) / (1 - t)^nvars."""
    return sum(c * comb(d - i + nvars - 1, nvars - 1) for i, c in enumerate(num) if i <= d)


@settings(max_examples=300, deadline=None)
@given(monomial_ideals())
def test_series_counts_standard_monomials(ideal):
    gens, nvars = ideal
    num = numerator(gens, nvars)
    top = sum(max((g[j] for g in gens), default=0) for j in range(nvars)) + 2
    for d in range(top + 1):
        assert _series(num, nvars, d) == _standard_monomials(gens, nvars, d), d


@given(st.integers(1, 6), st.integers(1, 6))
def test_pure_powers_dimension_degree(a, b):
    # (x^a, y^b) in k[x, y, z]: a line's worth of a*b points, dim 1, degree a*b
    assert dimension_degree([(a, 0, 0), (0, b, 0)], 3) == (1, a * b)


def test_dimension_degree_leaves_no_reference_cycle():
    gens = [(2, 0, 0), (1, 1, 0), (0, 2, 1), (0, 0, 3)]
    gc.collect()
    gc.disable()
    try:
        assert dimension_degree(gens, 3) == (1, 1)  # the point [0:1:0]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_coprime_mixed_generators():
    # (xy, zw) in k[x, y, z, w]: a complete intersection of two quadrics,
    # N(t) = (1 - t^2)^2 through the pivot recursion
    assert numerator([(1, 1, 0, 0), (0, 0, 1, 1)], 4) == [1, 0, -2, 0, 1]
