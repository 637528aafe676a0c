"""The pairwise contraction helpers against the np.einsum and np.tensordot
expressions they replace, over random shapes and entries; the g-norm of a
residual lowered by the Cholesky factor against the g-weighted sum; the
batched draw of the random test vectors against one draw per vector; and the
Cholesky test basis against the Gram-Schmidt of the coordinate frame."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from report_digests import CONFIGS

import oracles
from weakf import catalog
from weakf.fstructure import PackFrame
from weakf.sampling import (
    N_RANDOM_PAIRS,
    N_RANDOM_TRIPLES,
    cholesky_basis,
    cholesky_factor,
    lead_dot,
    pair_form,
    point_rng,
    random_units,
    sup_norm,
    unit_rows,
    worst,
)

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


@st.composite
def lead_operands(draw):
    c = draw(st.integers(1, 10))
    trailing = tuple(draw(st.lists(st.integers(1, 10), min_size=0, max_size=3)))
    return draw(grid_arrays(draw(leading) + (c,), (c, *trailing)))


@settings(max_examples=200, deadline=None)
@given(lead_operands())
def test_lead_dot_matches_tensordot(ops):
    a, t = ops
    ref = np.tensordot(a, t, 1)
    got = lead_dot(a, t)
    assert got.shape == ref.shape
    assert np.all(abs(got - ref) <= TOL * np.tensordot(abs(a), abs(t), 1))


@settings(max_examples=200, deadline=None)
@given(gnorm_operands())
def test_sup_gnorm_matches_einsum(ops):
    # the route every g-norm in src/ takes: lower by u, then sup_norm
    res, g0 = ops
    ref = np.sqrt(max(np.einsum("k...,kl,l...->...", res, g0, res).max(), 0.0))
    scale = np.einsum("k...,kl,l...->...", abs(res), abs(g0), abs(res)).max()
    got = sup_norm(lead_dot(cholesky_factor(g0), res))
    assert abs(got ** 2 - ref**2) <= TOL * scale
    assert abs(oracles.sup_gnorm(res, g0) ** 2 - ref**2) <= TOL * scale


def test_nan_propagates_through_the_reducers():
    # a NaN anywhere is the result: Python's max would keep it only first
    for values in ((math.nan, 1.0), (1.0, math.nan), (0.0, math.nan, 2.0)):
        assert math.isnan(worst(values))
        assert math.isnan(sup_norm(np.array(values)[None]))
    assert worst((1e-20, 3.0, 2.0)) == 3.0


# -- random test vectors --------------------------------------------------------------

seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(1, 10), st.integers(1, 64))
def test_batched_draw_equals_one_draw_per_vector(seed, m, count):
    draws = [np.random.default_rng(seed) for _ in range(3)]
    batched = draws[0].standard_normal((count, m))
    sequential = np.array([draws[1].standard_normal(m) for _ in range(count)])
    # the same normals bit for bit, and the generators end in the same state
    assert batched.tobytes() == sequential.tobytes()
    assert draws[0].bit_generator.state == draws[1].bit_generator.state
    # random_units normalizes exactly that draw (a stack of one point)
    g0 = np.eye(m)
    assert random_units(g0[None], [draws[2]], count)[0].tobytes() == \
        unit_rows(sequential, g0).tobytes()
    assert draws[2].bit_generator.state == draws[1].bit_generator.state


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(1, 10))
def test_random_units_are_g_unit(seed, m):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (m, m))
    g0 = np.eye(m) + a @ a.T       # eigenvalues in [1, 1 + m^2]
    units = random_units(g0[None], [rng], 40)[0]
    assert units.shape == (40, m)
    assert np.abs(((units @ g0) * units).sum(1) - 1.0).max() <= 1e-14


def _one_draw_per_vector(g0, rng):
    """The random test vectors drawn and normalized one at a time."""
    def unit():
        v = rng.standard_normal(g0.shape[0])
        return v / math.sqrt(v @ g0 @ v)
    pairs = [unit() for _ in range(2 * N_RANDOM_PAIRS)]
    return np.array(pairs), np.array(
        [[unit() for _ in range(3)] for _ in range(N_RANDOM_TRIPLES)])


def test_frame_draws_continue_after_the_test_vectors(all_packs):
    for cat in all_packs:
        pack = cat.obj
        for index, p in enumerate(pack.chart.sample(3, seed=5)):
            fr = PackFrame(pack, p, seed=5, index=index)
            tv = fr.tv
            rng = point_rng(5, index)
            pairs, triples = _one_draw_per_vector(fr.g0, rng)
            nb = tv.n_basis + len(fr.xi0)
            assert np.abs(tv.vectors[nb:] - pairs).max() <= 1e-15
            assert np.abs(tv.triples - triples).max() <= 1e-15
            # the frame's later draws are those the reference draws next
            coeff = rng.standard_normal((4, fr.d_basis.shape[0]))
            ref = unit_rows(coeff @ fr.d_basis, fr.g0)
            assert fr.random_d_units(4).tobytes() == ref.tobytes()


# -- test basis ---------------------------------------------------------------------


def _assert_gram_schmidt(g0, u=None):
    """The rows of L^-1 for g0 = L L^T are the Gram-Schmidt of e_1..e_m, and
    u = L^T is upper triangular with g0 = u^T u."""
    u = cholesky_factor(g0) if u is None else u
    assert not np.tril(u, -1).any()
    assert np.abs(u.T @ u - g0).max() <= TOL * np.abs(g0).max()
    basis, ref = cholesky_basis(u), oracles.orthonormal_basis(g0)
    assert np.abs(basis - ref).max() <= TOL * max(1.0, np.abs(ref).max())
    assert np.abs(basis @ g0 @ basis.T - np.eye(len(g0))).max() <= TOL


def test_cholesky_basis_is_the_coordinate_gram_schmidt():
    # on the metric of every report configuration, on the ambient metric of
    # the embedded ones, and on the sheared flat packs, whose metric is not
    # diagonal (every catalog metric is)
    frames = [fr for config in CONFIGS for fr in oracles.config_frames(config, 2)]
    for params in ({}, {"n": 1, "s": 2}):
        pack = oracles.sheared_pack(catalog.flat_pack(**params).obj)
        frames += [PackFrame(pack, p) for p in pack.chart.sample(2, seed=3)]
    for fr in frames:
        # the frame's test basis is built from the factor it lowers by
        _assert_gram_schmidt(fr.g0, fr.u)
        assert fr.tv.basis.tobytes() == cholesky_basis(fr.u).tobytes()
        ap = oracles.ambient_of(fr)
        if ap is not None:
            _assert_gram_schmidt(ap.gbar0, ap.ubar)
            assert ap.basis.tobytes() == cholesky_basis(ap.ubar).tobytes()
    assert any(np.abs(fr.g0 - np.diag(np.diag(fr.g0))).max() > 0.1
               for fr in frames)


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(1, 10))
def test_cholesky_basis_on_random_metrics(seed, m):
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, (m, m))
    _assert_gram_schmidt(np.eye(m) + a @ a.T)    # eigenvalues in [1, 1 + m^2]
