"""Exact-derivative tensor calculus kernels on raw jet arrays.

Every kernel is a pure numpy function of the value and partial-derivative
arrays of fields at one chart point (see ``SmoothField.jet``), or at each
point of a stack: leading axes ``...`` broadcast (the Reeb curvature
kernel takes one leading point axis), and every row of a stacked result is
bitwise the kernel at that row's point. The set-up stacks of
``fstructure`` and ``submanifold`` assemble their tensors from them.
Field-level versions that take genuine vector fields, and finite
differences, live in the test suite as independent oracles
(``tests/oracles.py``).

Conventions, fixed once for the whole engine:

* Levi-Civita connection: ``Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il
  - d_l g_ij)``.
* Curvature: ``R(X,Y)Z = D_X D_Y Z - D_Y D_X Z - D_[X,Y] Z``; sectional
  curvature ``K(X,Y) = g(R(X,Y)Y, X) / (|X|^2 |Y|^2 - g(X,Y)^2)``.
* Exterior derivative of a one-form carries the 1/2 factor,
  ``dw(X,Y) = (1/2) {X(w(Y)) - Y(w(X)) - w([X,Y])}``; of a two-form the
  1/3 factor with the cyclic six-term co-boundary sum.
* Nijenhuis torsion of a (1,1)-tensor S:
  ``[S,S](X,Y) = S^2[X,Y] + [SX,SY] - S[SX,Y] - S[X,SY]`` (bracket mode),
  equivalently ``(S D_Y S - D_{SY} S)X - (S D_X S - D_{SX} S)Y``
  (connection mode); the two are cross-validated in the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMetricError
from .sampling import transposed

_METRIC_EIGEN_FLOOR = 1e-12


# -- kernels on raw jet arrays -------------------------------------------------


def metric_inverse(g0, p=None):
    """g0^-1, for one metric or a stack ``g0[..., m, m]`` at points
    ``p[..., m]``.

    A metric whose symmetric part has its smallest eigenvalue at or below
    1e-12 is refused with :class:`DegenerateMetricError`, naming the first
    such point of the stack.
    """
    sym = 0.5 * (g0 + transposed(g0))
    eigmin = np.linalg.eigvalsh(sym)[..., 0]
    bad = eigmin <= _METRIC_EIGEN_FLOOR
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        raise DegenerateMetricError(
            np.asarray(p)[first] if p is not None else (), eigmin[first])
    return np.linalg.inv(g0)


def _lowered_sum(g1):
    """t[..., l,i,j] = d_i g_jl + d_j g_il - d_l g_ij, with d_i g_jl =
    g1[..., j, l, i]."""
    return (
        np.einsum("...jli->...lij", g1)
        + np.einsum("...ilj->...lij", g1)
        - np.einsum("...ijl->...lij", g1)
    )


def christoffel_from_jets(ginv, g1):
    """Gamma[k,i,j] from the metric inverse ``ginv`` and partials ``g1[a,b,c]``."""
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, _lowered_sum(g1))


def reeb_curvature_kernel(ginv, gamma, g1, g2, xi):
    """r[P, i, l, j] = (R(xi_i, e_j) xi_i)^l at each point of a stack, for
    the vectors xi[P, i, m].

    ``ginv``, ``gamma`` and ``g1`` are the metric inverse, the Christoffel
    symbols and the first metric partials at the points, and ``g2[P, a, b,
    c, d]`` the second partials d_d d_c g_ab. Each is contracted with xi
    first, so no array has more than three axes of size m per vector. With
    A = Gamma(., xi) and w = A xi = Gamma(xi, xi),

      R(xi, e_j) xi = g^-1 (dg_w - (d_xi g) A + (h + k - s - s^T) / 2) e_j
                      + A A e_j - Gamma(e_j, w),

    where (dg_w)_qj = d_j g_qr w^r, h_qj = xi^c xi^d d_c d_d g_qj,
    k_qj = xi^a xi^b d_q d_j g_ab and s_qj = xi^a xi^b d_a d_j g_bq. The
    ``g2`` of a constant metric may be a broadcast view: it is never
    reshaped.
    """
    count, s, m = xi.shape
    col = xi[..., None]
    at = col[:, :, None]                                   # [P, i, 1, m, 1]
    a = (gamma[:, None] @ at)[..., 0]                      # A[P, i, l, j]
    w = a @ col                                            # [P, i, m, 1]
    gamma_w = (gamma[:, None] @ w[:, :, None])[..., 0]
    dg_w = (transposed(g1)[:, None] @ w[:, :, None])[..., 0]
    dg_xi = (g1[:, None] @ at)[..., 0]
    # the second partials with xi on their first tensor slot, [P, i, b, c, d],
    # and on their last derivative slot, [P, i, a, b, c]
    first = np.einsum("pia,pabcd->pibcd", xi, g2)
    last = (g2[:, None] @ col[:, :, None, None])[..., 0]
    k = (xi[:, :, None] @ first.reshape(count, s, m, -1)).reshape(
        count, s, m, m)
    sym = (first @ at)[..., 0]
    h = (last @ at)[..., 0]
    low = dg_w - dg_xi @ a + 0.5 * (h + k - sym - transposed(sym))
    return ginv[:, None] @ low + a @ a - gamma_w


def nabla_tensor11_kernel(gamma, t0, t1):
    """nt[i,k,j] = (D_{e_i} T)^k_j for a (1,1)-tensor with jets t0, t1."""
    return (
        np.einsum("...kji->...ikj", t1)
        + np.einsum("...kia,...aj->...ikj", gamma, t0)
        - np.einsum("...aij,...ka->...ikj", gamma, t0)
    )


def nabla_vector_kernel(gamma, x0, x1):
    """nx[..., k, a] = (D_{e_a} X)^k."""
    return x1 + np.einsum("...kab,...b->...ka", gamma, x0)


def nabla_oneform_kernel(gamma, w0, w1):
    """nw[..., i, b] = (D_{e_i} w)_b."""
    return transposed(w1) - np.einsum("...cib,...c->...ib", gamma, w0)


def lie_metric_kernel(g0, g1, x0, x1):
    """(L_X g)_ab = X^k d_k g_ab + g_kb d_a X^k + g_ak d_b X^k."""
    return (
        np.einsum("...k,...abk->...ab", x0, g1)
        + np.einsum("...kb,...ka->...ab", g0, x1)
        + np.einsum("...ak,...kb->...ab", g0, x1)
    )


def lie_tensor11_kernel(t0, t1, x0, x1):
    """(L_X T)^a_b = X^k d_k T^a_b - T^k_b d_k X^a + T^a_k d_b X^k."""
    return (
        np.einsum("...k,...abk->...ab", x0, t1)
        - np.einsum("...kb,...ak->...ab", t0, x1)
        + np.einsum("...ak,...kb->...ab", t0, x1)
    )


def d_oneform_kernel(w1):
    """dw[..., a, b] = (1/2)(d_a w_b - d_b w_a); equals the co-boundary formula."""
    return 0.5 * (transposed(w1) - w1)


def d_twoform_kernel(w1):
    """dw[a,b,c] = (1/3)(d_a w_bc + d_b w_ca + d_c w_ab)."""
    return (np.einsum("...bca->...abc", w1) + np.einsum("...cab->...abc", w1)
            + w1) / 3.0
