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
from functools import cached_property

import numpy as np

from . import calculus
from .errors import DegenerateOperatorError
from .sampling import build_test_vectors, point_rng, sup_abs, sup_gnorm

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


class PackFrame:
    """All jets and test data of a pack at a single chart point."""

    def __init__(self, pack, p, seed=0, index=0):
        self.pack = pack
        self.p = np.asarray(p, dtype=float)
        self.m = pack.dim
        self._rng = point_rng(seed, index)

    # -- raw jets -----------------------------------------------------------

    @cached_property
    def _gjets(self):
        return self.pack.g.jet(self.p, order=1)

    @property
    def g0(self):
        return self._gjets[0]

    @property
    def g1(self):
        return self._gjets[1]

    @cached_property
    def g2(self):
        return self.pack.g.jet(self.p, order=2)[2]

    @cached_property
    def ginv(self):
        return calculus.metric_inverse(self.g0, self.p)

    @cached_property
    def gamma(self):
        return calculus.christoffel_from_jets(self.g0, self.g1, self.p)

    @cached_property
    def riemann(self):
        return calculus.riemann_from_jets(self.g0, self.g1, self.g2, self.p)

    @cached_property
    def _fjets(self):
        return self.pack.f.jet(self.p, order=1)

    @property
    def f0(self):
        return self._fjets[0]

    @property
    def f1(self):
        return self._fjets[1]

    @cached_property
    def _qjets(self):
        return self.pack.Q.jet(self.p, order=1)

    @property
    def q0(self):
        return self._qjets[0]

    @property
    def q1(self):
        return self._qjets[1]

    @cached_property
    def _xijets(self):
        jets = [x.jet(self.p, order=1) for x in self.pack.xi]
        return (
            np.array([j[0] for j in jets]),
            np.array([j[1] for j in jets]),
        )

    @property
    def xi0(self):
        return self._xijets[0]

    @property
    def xi1(self):
        return self._xijets[1]

    @cached_property
    def _etajets(self):
        jets = [e.jet(self.p, order=1) for e in self.pack.eta]
        return (
            np.array([j[0] for j in jets]),
            np.array([j[1] for j in jets]),
        )

    @property
    def eta0(self):
        return self._etajets[0]

    @property
    def eta1(self):
        return self._etajets[1]

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
        return np.array([calculus.d_oneform_kernel(w1) for w1 in self.eta1])

    @cached_property
    def nabla_f(self):
        return calculus.nabla_tensor11_kernel(self.gamma, self.f0, self.f1)

    @cached_property
    def nabla_q(self):
        return calculus.nabla_tensor11_kernel(self.gamma, self.q0, self.q1)

    @cached_property
    def nabla_xi(self):
        """nabla_xi[i,k,a] = (D_{e_a} xi_i)^k."""
        return np.array(
            [
                x1 + np.einsum("kab,b->ka", self.gamma, x0)
                for x0, x1 in zip(self.xi0, self.xi1)
            ]
        )

    @cached_property
    def nabla_eta(self):
        """nabla_eta[i,a,b] = (D_{e_a} eta^i)_b."""
        return np.array(
            [
                calculus.nabla_oneform_kernel(self.gamma, w0, w1)
                for w0, w1 in zip(self.eta0, self.eta1)
            ]
        )

    @cached_property
    def lie_g_xi(self):
        """lie_g_xi[i,a,b] = (L_{xi_i} g)(e_a, e_b)."""
        return np.array(
            [
                calculus.lie_metric_kernel(self.g0, self.g1, x0, x1)
                for x0, x1 in zip(self.xi0, self.xi1)
            ]
        )

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
        return build_test_vectors(self.g0, self._rng, distinguished=self.xi0)

    @property
    def V(self):
        """Test vectors as rows."""
        return self.tv.vectors

    @cached_property
    def d_basis(self):
        """g-orthonormal basis of the contact distribution (2n rows).

        Built as the g-orthogonal complement of the Reeb span, which equals
        the intersection of the ker eta^i on any pack satisfying the
        axioms, and stays well-defined on deliberately broken packs.
        """
        reeb = []
        for v in self.xi0:
            w = np.array(v, dtype=float)
            for u in reeb:
                w = w - (u @ self.g0 @ w) * u
            nrm = float(np.sqrt(max(w @ self.g0 @ w, 0.0)))
            if nrm < 1e-8:
                raise RuntimeError("Reeb fields are linearly dependent")
            reeb.append(w / nrm)
        rows = []
        for v in np.eye(self.m):
            w = v
            for u in reeb + rows:
                w = w - (u @ self.g0 @ w) * u
            nrm = float(np.sqrt(max(w @ self.g0 @ w, 0.0)))
            if nrm > 1e-8 and len(rows) < 2 * self.pack.n:
                rows.append(w / nrm)
        if len(rows) != 2 * self.pack.n:
            raise RuntimeError(
                f"could not build a basis of the contact distribution "
                f"(got {len(rows)} of {2 * self.pack.n} directions)"
            )
        return np.array(rows)

    def random_d_units(self, count):
        """Seeded unit vectors in the contact distribution."""
        db = self.d_basis
        coeff = self._rng.standard_normal((count, db.shape[0]))
        vecs = coeff @ db
        norms = np.sqrt(np.einsum("ak,kl,al->a", vecs, self.g0, vecs))
        return vecs / norms[:, None]

    # -- structure tensor evaluators -------------------------------------------

    def nijenhuis_ff(self, V):
        """[f,f](X,Y) for all test pairs: tensor [k, A, B]."""
        f0, f1 = self.f0, self.f1
        fV = V @ f0.T
        # [fX, fY]^k = (fX)^a d_a (fY)^k - (fY)^a d_a (fX)^k
        b1 = np.einsum("Aa,kba,Bb->kAB", fV, f1, V) - np.einsum(
            "Ba,kba,Ab->kAB", fV, f1, V
        )
        # [fX, Y]^k = -Y^a d_a (fX)^k ; [X, fY]^k = X^a d_a (fY)^k
        b2 = -np.einsum("Ba,kba,Ab->kAB", V, f1, V)
        b3 = np.einsum("Aa,kba,Bb->kAB", V, f1, V)
        return b1 - np.einsum("kl,lAB->kAB", f0, b2 + b3)

    def n1(self, V):
        """N1[k,A,B] = [f,f](X,Y) + 2 sum_i deta^i(X,Y) xi_i."""
        ff = self.nijenhuis_ff(V)
        de = np.einsum("iab,Aa,Bb->iAB", self.deta, V, V)
        return ff + 2.0 * np.einsum("iAB,ik->kAB", de, self.xi0)

    def n2(self, V):
        """N2[i,A,B] = 2 deta^i(fX, Y) - 2 deta^i(fY, X)."""
        fV = V @ self.f0.T
        t = np.einsum("iab,Aa,Bb->iAB", self.deta, fV, V)
        return 2.0 * (t - t.transpose(0, 2, 1))

    def n3(self):
        """N3[i,a,b] = (L_{xi_i} f)^a_b."""
        return np.array(
            [
                calculus.lie_tensor11_kernel(self.f0, self.f1, x0, x1)
                for x0, x1 in zip(self.xi0, self.xi1)
            ]
        )

    def n4(self, V):
        """N4[i,j,A] = 2 deta^j(xi_i, X)."""
        return 2.0 * np.einsum("jab,ia,Ab->ijA", self.deta, self.xi0, V)


# -- axioms ---------------------------------------------------------------------


def q_eigen_floor(frame):
    """Smallest eigenvalue of Q's matrix in a g-orthonormal basis."""
    e = frame.tv.basis  # rows g-orthonormal
    q_mat = np.einsum("ak,kl,bl->ab", e, frame.g0, (frame.q0 @ e.T).T)
    return float(np.linalg.eigvalsh(0.5 * (q_mat + q_mat.T)).min())


def axioms_residual(pack, p, frame=None):
    """Named sup-norm residuals of every defining identity at ``p``.

    Raises :class:`DegenerateOperatorError` when the symmetrized Q fails to
    be positive-definite, since the object then leaves the weak class.
    """
    fr = frame or PackFrame(pack, p)
    V = fr.V
    g0, f0, q0 = fr.g0, fr.f0, fr.q0
    eta0, xi0 = fr.eta0, fr.xi0
    s = pack.s

    floor = q_eigen_floor(fr)
    if floor <= _Q_EIGEN_FLOOR:
        raise DegenerateOperatorError(fr.p, floor)

    res = {}
    gf = g0 @ f0
    res["f_skew"] = sup_abs(np.einsum("Aa,ab,Bb->AB", V, gf + gf.T, V))
    gq = g0 @ q0
    res["q_selfadjoint"] = sup_abs(np.einsum("Aa,ab,Bb->AB", V, gq - gq.T, V))
    res["q_positive"] = max(0.0, -floor)
    res["eta_xi_pairing"] = sup_abs(
        np.einsum("ia,ja->ij", eta0, xi0) - np.eye(s)
    )
    res["q_fixes_xi"] = sup_gnorm(
        np.einsum("kl,il->ki", q0, xi0) - xi0.T, g0
    )
    # f^2 = -Q + sum eta^i (x) xi_i, applied to test vectors
    f2 = f0 @ f0
    corr = np.einsum("ik,ia->ka", xi0, eta0)
    res["f_squared"] = sup_gnorm(
        np.einsum("ka,Aa->kA", f2 + q0 - corr, V), g0
    )
    # g(fX, fY) = g(X, QY) - sum eta^i(X) eta^i(Y)
    lhs = np.einsum("Ak,kl,Bl->AB", V @ f0.T, g0, V @ f0.T)
    rhs = np.einsum("Aa,ab,Bb->AB", V, gq, V) - np.einsum(
        "iA,iB->AB", eta0 @ V.T, eta0 @ V.T
    )
    res["compatibility"] = sup_abs(lhs - rhs)
    res["f_kills_xi"] = sup_gnorm(np.einsum("kl,il->ki", f0, xi0), g0)
    res["eta_after_f"] = sup_abs(np.einsum("ia,ab,Ab->iA", eta0, f0, V))
    res["eta_after_q"] = sup_abs(
        np.einsum("ia,ab,Ab->iA", eta0, q0, V) - eta0 @ V.T
    )
    qf = q0 @ f0 - f0 @ q0
    res["qf_commute"] = sup_gnorm(np.einsum("ka,Aa->kA", qf, V), g0)
    res["eta_metric_dual"] = sup_abs(
        eta0 @ V.T - np.einsum("Aa,ab,ib->iA", V, g0, xi0)
    )
    res["xi_orthonormal"] = sup_abs(
        np.einsum("ia,ab,jb->ij", xi0, g0, xi0) - np.eye(s)
    )
    res["f_rank"] = _rank_residual(fr)
    # f-invariance of D = cap ker eta^i, checked on a basis of D
    db = fr.d_basis
    res["d_f_invariant"] = sup_abs(np.einsum("ia,ab,Ab->iA", eta0, f0, db))
    # splitting X = (X - sum eta^i(X) xi_i) + sum eta^i(X) xi_i with D-part in D
    dpart = V - np.einsum("iA,ik->Ak", eta0 @ V.T, xi0)
    res["tangent_split"] = sup_abs(np.einsum("ia,Aa->iA", eta0, dpart))
    return res


def _rank_residual(fr):
    """Rank-2n check: s singular values below 1e-8, 2n above 1e-4."""
    e = fr.tv.basis
    f_mat = np.einsum("ak,kl,bl->ab", e, fr.g0, (fr.f0 @ e.T).T)
    sv = np.sort(np.linalg.svd(f_mat, compute_uv=False))
    s = fr.pack.s
    if sv.size > s and sv[s] <= _RANK_POSITIVE_FLOOR:
        return 1.0
    small = float(sv[s - 1]) if s > 0 else 0.0
    return 0.0 if small <= _RANK_ZERO_CEIL else small
