"""The pairwise contraction helpers against the np.einsum expressions they
replace, over random shapes and entries."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from weakf.sampling import pair_form, sup_gnorm

# float64 sums of at most 10 x 10 products: the rounding error of either
# order is a few hundred ulps of the sum of absolute terms
TOL = 1e-12

leading = st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple)


@st.composite
def grid_arrays(draw, *shapes):
    """Arrays of the given shapes with seeded entries on a 1e-5 grid in
    [-10, 10]: no product of three underflows, so the relative error model
    holds (subnormal entries fall outside it)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [rng.integers(-10**6, 10**6, size=shape, endpoint=True) / 1e5
            for shape in shapes]


@st.composite
def bilinear_operands(draw):
    lead, m = draw(leading), draw(st.integers(1, 10))
    rows = draw(st.integers(1, 44)), draw(st.integers(1, 44))
    return draw(grid_arrays(lead + (m, m), (rows[0], m), (rows[1], m)))


@st.composite
def gnorm_operands(draw):
    m = draw(st.integers(1, 10))
    trailing = tuple(draw(st.lists(st.integers(1, 44), min_size=0, max_size=2)))
    res, a = draw(grid_arrays((m, *trailing), (m, m)))
    return res, a @ a.T + np.eye(m)


@settings(max_examples=200, deadline=None)
@given(bilinear_operands())
def test_pair_form_matches_einsum(ops):
    t, X, Y = ops
    ref = np.einsum("...ab,Aa,Bb->...AB", t, X, Y)
    scale = np.einsum("...ab,Aa,Bb->...AB", abs(t), abs(X), abs(Y))
    got = pair_form(t, X, Y)
    assert got.shape == ref.shape
    assert np.all(abs(got - ref) <= TOL * scale)


@settings(max_examples=200, deadline=None)
@given(gnorm_operands())
def test_sup_gnorm_matches_einsum(ops):
    res, g0 = ops
    ref = np.sqrt(max(np.einsum("k...,kl,l...->...", res, g0, res).max(), 0.0))
    scale = np.einsum("k...,kl,l...->...", abs(res), abs(g0), abs(res)).max()
    assert abs(sup_gnorm(res, g0) ** 2 - ref**2) <= TOL * scale
