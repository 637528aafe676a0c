"""Deterministic sampling of points and test vectors.

Residuals of pointwise tensor identities are measured against a fixed test
set at each sampled point: a g-orthonormalized coordinate basis, any
distinguished vectors supplied by the caller (the Reeb frame of a pack),
and 16 seeded random unit pairs. Everything is derived from explicit seeds
so two runs with the same configuration produce identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

N_RANDOM_PAIRS = 16
N_RANDOM_TRIPLES = 8


def point_rng(seed, index, tag=0):
    """Independent generator for sample point ``index`` of a run."""
    return np.random.default_rng([int(seed), int(index), int(tag)])


def orthonormal_basis(g0, vectors=None, against=(), floor=None):
    """Gram-Schmidt of ``vectors`` (rows; the coordinate frame by default)
    with respect to ``g0``.

    Each vector is made g0-orthogonal to the rows of ``against`` and to the
    rows kept before it, then normalized. With a ``floor``, a vector whose
    remainder has norm at most ``floor`` is dropped. Returns the kept rows.
    """
    basis = list(against)
    start = len(basis)
    for v in np.eye(len(g0)) if vectors is None else vectors:
        for u in basis:
            v = v - (u @ g0 @ v) * u
        q = v @ g0 @ v
        if floor is None or q > floor * floor:
            basis.append(v / math.sqrt(q))
    return np.array(basis[start:])


def cholesky_factor(g0):
    """The upper triangular u with g0 = u^T u.

    Lowering by u turns g0-norms into Euclidean ones: g0(v, v) = |u v|^2.
    """
    return np.linalg.cholesky(g0).T


def cholesky_basis(u):
    """The rows of L^-1 for the Cholesky factor L = u^T of g0 = L L^T: a
    g0-orthonormal basis.

    It is the Gram-Schmidt of the coordinate frame, ``orthonormal_basis(g0)``,
    from one factorization: row k of L^-1 lies in the span of e_1..e_k.
    """
    return np.linalg.inv(u.T)


def unit_rows(vecs, g0):
    """The rows of ``vecs`` scaled to g0-norm 1."""
    return vecs / np.sqrt(((vecs @ g0) * vecs).sum(1))[:, None]


def random_units(g0, rng, count):
    """``count`` seeded g0-unit vectors (rows), from one draw of the same
    normals, in the same order, as ``count`` draws of one vector each."""
    return unit_rows(rng.standard_normal((count, g0.shape[0])), g0)


@dataclass(frozen=True)
class TestVectors:
    """Stacked test vectors at a point (rows), with index bookkeeping."""

    vectors: np.ndarray      # (nv, m): basis rows, distinguished, random units
    n_basis: int
    triples: np.ndarray      # (nt, 3, m) extra random triples for 3-forms
    factor: np.ndarray       # (m, m): upper u with g0 = u^T u; basis = u^-T

    @property
    def basis(self):
        return self.vectors[: self.n_basis]


def build_test_vectors(g0, rng, distinguished=None):
    """Basis + distinguished vectors + 2 * N_RANDOM_PAIRS random units."""
    u = cholesky_factor(g0)
    basis = cholesky_basis(u)
    rows = [basis]
    if distinguished is not None and len(distinguished):
        rows.append(np.asarray(distinguished, dtype=float))
    npair = 2 * N_RANDOM_PAIRS
    rand = random_units(g0, rng, npair + 3 * N_RANDOM_TRIPLES)
    rows.append(rand[:npair])
    return TestVectors(
        vectors=np.vstack(rows),
        n_basis=basis.shape[0],
        triples=rand[npair:].reshape(N_RANDOM_TRIPLES, 3, -1),
        factor=u,
    )


def pair_form(t, X, Y):
    """r[..., A, B] = sum_ab X[..., A, a] t[..., a, b] Y[B, b].

    X and Y hold vectors as rows, and the leading axes of ``t`` and ``X``
    broadcast; the contraction is two matrix products.
    """
    return X @ t @ Y.T


def lead_dot(a, t):
    """r[..., j...] = sum_c a[..., c] t[c, j...]: the last axis of ``a``
    against the first axis of ``t``, as one matrix product."""
    r = a @ t.reshape(t.shape[0], -1)
    return r.reshape(a.shape[:-1] + t.shape[1:])


def sup_norm(low):
    """Max Euclidean norm over the leading axis of ``low[k, ...]``.

    On a vector residual lowered by the Cholesky factor of g0 (``low = u
    res``, see :func:`cholesky_factor`) it is the max g0-norm over the
    trailing test axes. The one einsum builds only the squared norms, so the
    residual is the only array of its size. A g0-weighted sum would hold two
    more, and above glibc's 128 KiB mmap threshold each is a fresh mapping
    that faults in every page it touches.
    """
    r = low.reshape(len(low), -1)
    return float(np.sqrt(np.einsum("ki,ki->i", r, r).max()))


def sup_abs(res):
    return float(np.abs(res).max())


def worst(residuals):
    """The largest of ``residuals``, and NaN if any of them is NaN.

    Python's ``max`` keeps a NaN only when it comes first, so a NaN part
    could leave a composite check passing.
    """
    values = list(residuals)
    return math.nan if any(map(math.isnan, values)) else max(values)
