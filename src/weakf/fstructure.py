"""Weak metric f-structure packs and their derived tensors.

A pack bundles the tuple (f, Q, xi_1..xi_s, eta^1..eta^s, g) on a chart of
dimension 2n + s: a skew-symmetric (1,1)-tensor f of rank 2n, a self-adjoint
positive-definite (1,1)-tensor Q, an orthonormal Reeb frame xi_i spanning
ker f with dual one-forms eta^i, and a Riemannian metric g, subject to

    f^2 = -Q + sum_i eta^i (x) xi_i,      eta^i(xi_j) = delta^i_j,
    Q xi_i = xi_i,
    g(fX, fY) = g(X, QY) - sum_i eta^i(X) eta^i(Y).

``axioms_residual`` measures every defining identity and its standard
consequences over a test frame at a point. Packs are dumb containers:
nothing is validated at construction time, so deliberately broken packs can
be built for negative controls; the residual report is the verdict.

:class:`PackFrame` caches jets, Christoffel symbols and test vectors of a
pack at one point; all classifier functionals are numpy contractions of its
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

from . import calculus
from .charts import PointStacks
from .errors import DegenerateOperatorError
from .sampling import (
    build_test_vectors,
    lead_dot,
    orthonormal_basis,
    pair_form,
    point_rng,
    sup_abs,
    sup_norm,
    unit_rows,
)

_RANK_ZERO_CEIL = 1e-8
_RANK_POSITIVE_FLOOR = 1e-4
_Q_EIGEN_FLOOR = 1e-12


@dataclass(frozen=True)
class StructurePack:
    """The tuple (f, Q, xi, eta, g) on a chart of dimension 2n + s."""

    chart: object
    f: object
    Q: object
    xi: tuple
    eta: tuple
    g: object
    n: int
    s: int

    def __post_init__(self):
        if self.chart.dim != 2 * self.n + self.s:
            raise ValueError("chart dimension must equal 2n + s")
        if len(self.xi) != self.s or len(self.eta) != self.s:
            raise ValueError("need s Reeb fields and s dual one-forms")

    @property
    def dim(self):
        return self.chart.dim


def kept_per_frame(compute):
    """Keep ``compute(fr)`` on the frame ``fr``; see :meth:`PackFrame.kept`."""
    @wraps(compute)
    def once(fr):
        return fr.kept(compute.__qualname__, lambda: compute(fr))
    return once


class PackFrame:
    """All jets and test data of a pack at a single chart point.

    The fields' jets are read from ``row``, the point's row of the run's
    :class:`~weakf.charts.PointStacks` (by default a stack of this point
    alone). A pack induced on an embedded submanifold takes the point's
    ambient data as ``ambient`` (see
    :func:`weakf.submanifold.induce_structure`): its jets, g^-1 and
    curvature are read from there.
    """

    def __init__(self, pack, p, seed=0, index=0, ambient=None, row=None):
        self.pack = pack
        self.p = np.asarray(p, dtype=float)
        self.m = pack.dim
        self.ambient = ambient
        self._row = row or PointStacks([self.p]).row(0)
        self._rng = point_rng(seed, index)
        self._kept = {}

    # -- raw jets -----------------------------------------------------------

    def _jet(self, field, order):
        """(value, d1[, d2]) of ``field`` at the frame's point."""
        return self._row(field.fn, order, field.label)

    @cached_property
    def _jets(self):
        """Order-1 (value, d1) of every field at the frame's point."""
        if self.ambient is not None:
            return self.ambient.induced_jets
        pk = self.pack

        def stacked(fields):
            jets = [self._jet(x, 1) for x in fields]
            return np.array([j[0] for j in jets]), np.array([j[1] for j in jets])

        return {
            "g": self._jet(pk.g, 1),
            "f": self._jet(pk.f, 1),
            "q": self._jet(pk.Q, 1),
            "xi": stacked(pk.xi),
            "eta": stacked(pk.eta),
        }

    g0 = property(lambda self: self._jets["g"][0])
    g1 = property(lambda self: self._jets["g"][1])
    f0 = property(lambda self: self._jets["f"][0])
    f1 = property(lambda self: self._jets["f"][1])
    q0 = property(lambda self: self._jets["q"][0])
    q1 = property(lambda self: self._jets["q"][1])
    xi0 = property(lambda self: self._jets["xi"][0])
    xi1 = property(lambda self: self._jets["xi"][1])
    eta0 = property(lambda self: self._jets["eta"][0])
    eta1 = property(lambda self: self._jets["eta"][1])

    @cached_property
    def ginv(self):
        if self.ambient is not None:
            return self._jets["ginv"]
        return calculus.metric_inverse(self.g0, self.p)

    @cached_property
    def gamma(self):
        return calculus.christoffel_from_jets(self.ginv, self.g1)

    @cached_property
    def riemann(self):
        if self.ambient is not None:
            return self.ambient.induced_riemann
        g2 = self._jet(self.pack.g, 2)[2]
        return calculus.riemann_from_jets(self.ginv, self.gamma, self.g1, g2)

    # -- derived pointwise tensors -------------------------------------------

    @cached_property
    def phi0(self):
        """Fundamental two-form, phi[a,b] = g(e_a, f e_b)."""
        return self.g0 @ self.f0

    @cached_property
    def phi1(self):
        return np.einsum("akc,kb->abc", self.g1, self.f0) + np.einsum(
            "ak,kbc->abc", self.g0, self.f1
        )

    @cached_property
    def dphi(self):
        return calculus.d_twoform_kernel(self.phi1)

    @cached_property
    def deta(self):
        """deta[i,a,b] = d(eta^i)(e_a, e_b), half-normalized."""
        return calculus.d_oneform_kernel(self.eta1)

    @cached_property
    def nabla_f(self):
        return calculus.nabla_tensor11_kernel(self.gamma, self.f0, self.f1)

    @cached_property
    def nabla_q(self):
        return calculus.nabla_tensor11_kernel(self.gamma, self.q0, self.q1)

    @cached_property
    def nabla_xi(self):
        """nabla_xi[i,k,a] = (D_{e_a} xi_i)^k."""
        return calculus.nabla_vector_kernel(self.gamma, self.xi0, self.xi1)

    @cached_property
    def nabla_xi_xi(self):
        """nabla_xi_xi[i,j,k] = (D_{xi_i} xi_j)^k."""
        return (self.nabla_xi @ self.xi0.T).transpose(2, 0, 1)

    @cached_property
    def nabla_eta(self):
        """nabla_eta[i,a,b] = (D_{e_a} eta^i)_b."""
        return calculus.nabla_oneform_kernel(self.gamma, self.eta0, self.eta1)

    @cached_property
    def lie_g_xi(self):
        """lie_g_xi[i,a,b] = (L_{xi_i} g)(e_a, e_b)."""
        return calculus.lie_metric_kernel(self.g0, self.g1, self.xi0, self.xi1)

    @property
    def xibar(self):
        return self.xi0.sum(axis=0)

    @property
    def etabar(self):
        return self.eta0.sum(axis=0)

    @property
    def qtilde(self):
        return self.q0 - np.eye(self.m)

    # -- test vectors ---------------------------------------------------------

    @cached_property
    def tv(self):
        # g^-1 first: it names an indefinite metric (point and smallest
        # eigenvalue) before the Cholesky factorization raises LinAlgError
        self.ginv
        return build_test_vectors(self.g0, self._rng, distinguished=self.xi0)

    @property
    def V(self):
        """Test vectors as rows."""
        return self.tv.vectors

    @property
    def u(self):
        """The upper Cholesky factor of g0 = u^T u, from which the test
        basis is built: a vector residual lowered by it, ``lead_dot(u, C)``,
        has the g-norm as its Euclidean norm (see
        :func:`~weakf.sampling.sup_norm`)."""
        return self.tv.factor

    @cached_property
    def d_basis(self):
        """g-orthonormal basis of the contact distribution (2n rows).

        Built as the g-orthogonal complement of the Reeb span, which equals
        the intersection of the ker eta^i on any pack satisfying the
        axioms, and stays well-defined on deliberately broken packs.
        """
        reeb = orthonormal_basis(self.g0, self.xi0, floor=1e-8)
        if len(reeb) < self.pack.s:
            raise RuntimeError("Reeb fields are linearly dependent")
        rows = orthonormal_basis(self.g0, against=reeb, floor=1e-8)
        if len(rows) != 2 * self.pack.n:
            raise RuntimeError(
                f"could not build a basis of the contact distribution "
                f"(got {len(rows)} of {2 * self.pack.n} directions)"
            )
        return rows

    def random_d_units(self, count):
        """Seeded unit vectors in the contact distribution."""
        db = self.d_basis
        coeff = self._rng.standard_normal((count, db.shape[0]))
        return unit_rows(coeff @ db, self.g0)

    def kept(self, key, compute):
        """``compute()``, computed once per frame and kept under ``key``.

        This is the one keep rule: every result is kept, whatever its size,
        because the runner keeps one frame alive at a time.
        """
        if key not in self._kept:
            self._kept[key] = compute()
        return self._kept[key]

    # -- structure tensor evaluators -------------------------------------------
    #
    # Each bilinear tensor is kept as its coefficients C[k, a, b] at the
    # point; its value on test pairs is the one contraction pair_form(C, V, V).

    @cached_property
    def ff_coeff(self):
        """[f,f](e_a, e_b)^k."""
        f0, f1 = self.f0, self.f1
        # P[k,a,b] = (f e_b)^c d_c f^k_a, with f1[k,b,c] = d_c f^k_b:
        # [fX, fY]^k = (fX)^c d_c (fY)^k - (fY)^c d_c (fX)^k
        p = f1 @ f0
        # [fX, Y]^k + [X, fY]^k = X^c d_c (fY)^k - Y^c d_c (fX)^k
        r = f1.transpose(0, 2, 1) - f1
        return p.transpose(0, 2, 1) - p - lead_dot(f0, r)

    @cached_property
    def n1_coeff(self):
        """N1(e_a, e_b)^k = [f,f](e_a, e_b)^k + 2 sum_i deta^i(e_a, e_b) xi_i^k."""
        return self.ff_coeff + 2.0 * lead_dot(self.xi0.T, self.deta)

    @cached_property
    def n2_coeff(self):
        """N2[i,a,b] = 2 deta^i(f e_a, e_b) - 2 deta^i(f e_b, e_a)."""
        t = self.f0.T @ self.deta
        return 2.0 * (t - t.transpose(0, 2, 1))

    def nijenhuis_ff(self):
        """[f,f](X,Y) for all test pairs: tensor [k, A, B]."""
        return pair_form(self.ff_coeff, self.V, self.V)

    def n3(self):
        """N3[i,a,b] = (L_{xi_i} f)^a_b."""
        return calculus.lie_tensor11_kernel(self.f0, self.f1, self.xi0, self.xi1)

    def n4(self):
        """N4[i,j,A] = 2 deta^j(xi_i, X)."""
        return 2.0 * pair_form(self.deta, self.xi0, self.V).transpose(1, 0, 2)


# -- axioms ---------------------------------------------------------------------


def frame_axioms(fr):
    """:func:`axioms_residual` at the frame's point, computed once per frame.

    Returns a fresh copy of the map.
    """
    return dict(fr.kept("axioms", lambda: axioms_residual(fr)))


def q_eigen_floor(frame):
    """Smallest eigenvalue of Q's matrix in a g-orthonormal basis."""
    e = frame.tv.basis  # rows g-orthonormal
    q_mat = e @ frame.g0 @ (frame.q0 @ e.T)
    return float(np.linalg.eigvalsh(0.5 * (q_mat + q_mat.T)).min())


def axioms_residual(fr):
    """Named sup-norm residuals of every defining identity at the frame's point.

    Raises :class:`DegenerateOperatorError` when the symmetrized Q fails to
    be positive-definite, since the object then leaves the weak class.
    """
    V, u = fr.V, fr.u
    g0, f0, q0 = fr.g0, fr.f0, fr.q0
    eta0, xi0 = fr.eta0, fr.xi0
    s = fr.pack.s

    floor = q_eigen_floor(fr)
    if floor <= _Q_EIGEN_FLOOR:
        raise DegenerateOperatorError(fr.p, floor)

    res = {}
    gf = g0 @ f0
    res["f_skew"] = sup_abs(pair_form(gf + gf.T, V, V))
    gq = g0 @ q0
    res["q_selfadjoint"] = sup_abs(pair_form(gq - gq.T, V, V))
    res["q_positive"] = float(np.maximum(-floor, 0.0))   # a NaN stays
    res["eta_xi_pairing"] = sup_abs(
        np.einsum("ia,ja->ij", eta0, xi0) - np.eye(s)
    )
    res["q_fixes_xi"] = sup_norm(u @ (q0 @ xi0.T - xi0.T))
    # f^2 = -Q + sum eta^i (x) xi_i, applied to test vectors
    f2 = f0 @ f0
    corr = np.einsum("ik,ia->ka", xi0, eta0)
    res["f_squared"] = sup_norm(pair_form(f2 + q0 - corr, u, V))
    # g(fX, fY) = g(X, QY) - sum eta^i(X) eta^i(Y)
    res["compatibility"] = sup_abs(
        pair_form(f0.T @ g0 @ f0 - gq + eta0.T @ eta0, V, V))
    etaV = eta0 @ V.T
    res["f_kills_xi"] = sup_norm(pair_form(f0, u, xi0))
    res["eta_after_f"] = sup_abs(pair_form(f0, eta0, V))
    res["eta_after_q"] = sup_abs(pair_form(q0, eta0, V) - etaV)
    qf = q0 @ f0 - f0 @ q0
    res["qf_commute"] = sup_norm(pair_form(qf, u, V))
    res["eta_metric_dual"] = sup_abs(etaV - pair_form(g0.T, xi0, V))
    res["xi_orthonormal"] = sup_abs(pair_form(g0, xi0, xi0) - np.eye(s))
    res["f_rank"] = _rank_residual(fr)
    # f-invariance of D = cap ker eta^i, checked on a basis of D
    db = fr.d_basis
    res["d_f_invariant"] = sup_abs(pair_form(f0, eta0, db))
    # splitting X = (X - sum eta^i(X) xi_i) + sum eta^i(X) xi_i with D-part in D
    res["tangent_split"] = sup_abs((eta0 - eta0 @ xi0.T @ eta0) @ V.T)
    return res


def _rank_residual(fr):
    """Rank-2n check: s singular values below 1e-8, 2n above 1e-4."""
    e = fr.tv.basis
    f_mat = e @ fr.g0 @ (fr.f0 @ e.T)
    sv = np.sort(np.linalg.svd(f_mat, compute_uv=False))
    s = fr.pack.s
    if sv.size > s and sv[s] <= _RANK_POSITIVE_FLOOR:
        return 1.0
    small = float(sv[s - 1]) if s > 0 else 0.0
    return 0.0 if small <= _RANK_ZERO_CEIL else small
