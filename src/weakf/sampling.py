"""Deterministic sampling of points and test vectors.

Residuals of pointwise tensor identities are measured against a fixed test
set at each sampled point: a g-orthonormalized coordinate basis, any
distinguished vectors supplied by the caller (the Reeb frame of a pack),
and 16 seeded random unit pairs. Everything is derived from explicit seeds
so two runs with the same configuration produce identical numbers.

The set-up functions take a stack of points on a leading axis (one metric,
one generator and one row per point) and give each row bitwise what the
point alone would get; ``lead_dot`` contracts at one point or at each point
of a stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

N_RANDOM_PAIRS = 16
N_RANDOM_TRIPLES = 8
N_CHAIN_UNITS = 4


def point_rng(seed, index):
    """Independent generator for sample point ``index`` of a run; the
    entropy's trailing 0 keeps every draw as it was pinned."""
    return np.random.default_rng([int(seed), int(index), 0])


def transposed(a):
    """``a`` with its last two axes swapped: the transpose of a matrix, or
    of each matrix of a stack."""
    return np.swapaxes(a, -1, -2)


def _g_dot(u, g0, v):
    """g0(u, v) for each row of the stacks u[P, m], g0[P, m, m], v[P, m],
    as the matrix products u @ g0 @ v of each point alone."""
    return (u[:, None] @ g0 @ v[:, :, None])[:, 0, 0]


def gram_schmidt(g0, vectors, floor):
    """In-order Gram-Schmidt of the candidates ``vectors[P, n, m]`` with
    respect to ``g0[P, m, m]``, at each point of the stack.

    Each candidate is made g0-orthogonal to the candidates kept before it,
    in order, and normalized; it is kept when its remainder's g0-norm
    exceeds ``floor``. Returns ``(units, kept)``: units[P, n, m] holds the
    normalized remainders (zero where not kept), kept[P, n] the keep masks.
    """
    units = np.zeros(vectors.shape)
    kept = np.zeros(vectors.shape[:2], dtype=bool)
    for j in range(vectors.shape[1]):
        v = vectors[:, j]
        for t in range(j):
            u = units[:, t]
            v = np.where(kept[:, t, None], v - _g_dot(u, g0, v)[:, None] * u, v)
        q = _g_dot(v, g0, v)
        kept[:, j] = keep = q > floor * floor
        units[:, j] = np.where(keep[:, None], v, 0.0) / np.sqrt(
            np.where(keep, q, 1.0))[:, None]
    return units, kept


def cholesky_factor(g0):
    """The upper triangular u with g0 = u^T u (of each metric of a stack).

    Lowering by u turns g0-norms into Euclidean ones: g0(v, v) = |u v|^2.
    """
    return transposed(np.linalg.cholesky(g0))


def cholesky_basis(u):
    """The rows of L^-1 for the Cholesky factor L = u^T of g0 = L L^T: a
    g0-orthonormal basis.

    It is the Gram-Schmidt of the coordinate frame from one factorization:
    row k of L^-1 lies in the span of e_1..e_k.
    """
    return np.linalg.inv(transposed(u))


def unit_rows(vecs, g0):
    """The rows of ``vecs`` scaled to g0-norm 1 (at each point of a stack)."""
    return vecs / np.sqrt(((vecs @ g0) * vecs).sum(-1))[..., None]


@dataclass(frozen=True)
class TestVectors:
    """Test vectors at a point (rows); with a leading point axis on every
    array, at each point of a stack."""

    vectors: np.ndarray      # (nv, m): m basis rows, distinguished, random units
    triples: np.ndarray      # (nt, 3, m) extra random triples for 3-forms
    factor: np.ndarray       # (m, m): upper u with g0 = u^T u; basis = u^-T
    chain: np.ndarray        # (N_CHAIN_UNITS, m - s): see build_test_vectors

    @property
    def basis(self):
        return self.vectors[..., : self.vectors.shape[-1], :]

    def row(self, k):
        """The test vectors of point ``k`` of a stack."""
        return replace(self, vectors=self.vectors[k], triples=self.triples[k],
                       factor=self.factor[k], chain=self.chain[k])


def build_test_vectors(g0, rng, distinguished):
    """Basis + distinguished vectors + 2 * N_RANDOM_PAIRS random units at
    each point of the stack g0[P, m, m]: ``rng`` holds one generator per
    point, and ``distinguished[P, s, m]`` the caller's vectors.

    The factorization comes first: it is what may raise, and a generator
    draws only once it has passed. Each generator then makes its one draw:
    the random units and triples (scaled to g0-norm 1), then ``chain``, the
    coefficients of the curvature chain's N_CHAIN_UNITS units on a basis of
    the complement of the distinguished vectors.
    """
    u = cholesky_factor(g0)
    count, s, m = distinguished.shape
    npair, nrand = 2 * N_RANDOM_PAIRS, 2 * N_RANDOM_PAIRS + 3 * N_RANDOM_TRIPLES
    draws = np.stack([r.standard_normal(nrand * m + N_CHAIN_UNITS * (m - s))
                      for r in rng])
    rand = unit_rows(draws[:, :nrand * m].reshape(count, nrand, m), g0)
    return TestVectors(
        vectors=np.concatenate([cholesky_basis(u), distinguished,
                                rand[:, :npair]], axis=1),
        triples=rand[:, npair:].reshape(count, N_RANDOM_TRIPLES, 3, m),
        factor=u,
        chain=draws[:, nrand * m:].reshape(count, N_CHAIN_UNITS, m - s),
    )


def pair_form(t, X, Y):
    """r[..., A, B] = sum_ab X[..., A, a] t[..., a, b] Y[..., B, b].

    X and Y hold vectors as rows, and the leading axes of ``t``, ``X`` and
    ``Y`` broadcast; the contraction is two matrix products.
    """
    return X @ t @ transposed(Y)


def lead_dot(a, t, lead=0):
    """r[..., j...] = sum_c a[..., c] t[c, j...]: the last axis of ``a``
    against the first axis of ``t``, as one matrix product.

    With ``lead`` leading axes that ``a`` and ``t`` share, such as a point
    axis, the contraction is made at each of their entries.
    """
    head = t.shape[:lead]
    r = a @ t.reshape(head + (t.shape[lead], -1))
    return r.reshape(a.shape[:-1] + t.shape[lead + 1:])


def sup_norm(low, lead=0):
    """Max Euclidean norm over the axis ``lead`` of ``low[..., k, ...]``;
    with ``lead`` leading axes, such as a point axis, one max for each of
    their entries.

    On a vector residual lowered by the Cholesky factor of g0 (``low = u
    res``, see :func:`cholesky_factor`) it is the max g0-norm over the
    trailing test axes. The one einsum builds only the squared norms, so the
    residual is the only array of its size. A g0-weighted sum would hold two
    more, and above glibc's 128 KiB mmap threshold each is a fresh mapping
    that faults in every page it touches.
    """
    r = low.reshape(low.shape[:lead + 1] + (-1,))
    top = np.sqrt(np.einsum("...ki,...ki->...i", r, r).max(-1))
    return top if lead else float(top)


def sup_abs(res, lead=0):
    """Max absolute entry of ``res``; with ``lead`` leading axes, one each."""
    top = np.abs(res).reshape(res.shape[:lead] + (-1,)).max(-1)
    return top if lead else float(top)

