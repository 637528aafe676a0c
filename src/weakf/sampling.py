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


def cholesky_basis(g0):
    """The rows of L^-1 for g0 = L L^T: a g0-orthonormal basis.

    It is the Gram-Schmidt of the coordinate frame, ``orthonormal_basis(g0)``,
    from one factorization: row k of L^-1 lies in the span of e_1..e_k.
    """
    return np.linalg.inv(np.linalg.cholesky(g0))


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

    @property
    def basis(self):
        return self.vectors[: self.n_basis]


def build_test_vectors(g0, rng, distinguished=None):
    """Basis + distinguished vectors + 2 * N_RANDOM_PAIRS random units."""
    basis = cholesky_basis(g0)
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


def sup_gnorm(res, g0):
    """Max g-norm over the trailing test axes of ``res[k, ...]``."""
    r = res.reshape(res.shape[0], -1)
    q = ((g0 @ r) * r).sum(0)
    return float(np.sqrt(max(q.max(), 0.0)))


def sup_abs(res):
    return float(np.abs(res).max())
