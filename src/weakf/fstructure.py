"""Weak metric f-structure packs and their derived tensors.

A pack bundles the tuple (f, Q, xi_1..xi_s, eta^1..eta^s, g) on a chart of
dimension 2n + s: a skew-symmetric (1,1)-tensor f of rank 2n, a self-adjoint
positive-definite (1,1)-tensor Q, an orthonormal Reeb frame xi_i spanning
ker f with dual one-forms eta^i, and a Riemannian metric g, subject to

    f^2 = -Q + sum_i eta^i (x) xi_i,      eta^i(xi_j) = delta^i_j,
    Q xi_i = xi_i,
    g(fX, fY) = g(X, QY) - sum_i eta^i(X) eta^i(Y).

The axioms map measures every defining identity and its standard
consequences over the test vectors, once per chunk of points, and
``axioms_residual`` reads a frame's row of it. Packs are dumb containers:
nothing is validated at construction time, so deliberately broken packs can
be built for negative controls; the residual report is the verdict.

:class:`PackFrame` holds jets, Christoffel symbols and test vectors of a
pack at one point, as a row of their stacks over a chunk of points; all
classifier functionals are numpy contractions of its arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, wraps

import numpy as np

from . import calculus
from .charts import Rows, row_of
from .errors import DegenerateOperatorError
from .sampling import (
    build_test_vectors,
    gram_schmidt,
    lead_dot,
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


class _Fields:
    """The fields' order-1 jets, read from ``_jets``."""

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


class _FrameStack(_Fields):
    """The set-up of a pack's frames at the points of ``rows``.

    Every quantity is stacked on a leading point axis and built on first
    read; row k of each is bitwise the quantity of point k alone. ``rngs``
    holds each point's generator, and ``ambient`` the points' ambient stack
    when the pack is induced on an embedded submanifold: its jets and g^-1
    are read from there.
    """

    def __init__(self, pack, rows, rngs, ambient=None):
        self.pack = pack
        self.rows = rows
        self.rngs = rngs
        self.ambient = ambient

    @cached_property
    def _jets(self):
        """Order-1 (value, d1) of every field, the Reeb fields on axis 1."""
        if self.ambient is not None:
            return self.ambient.induced_jets
        pk = self.pack

        def jet(field):
            return self.rows.jet(field.fn, 1, field.label)

        def reeb(fields):
            jets = [jet(x) for x in fields]
            return tuple(np.stack(parts, axis=1) for parts in zip(*jets))

        return {"g": jet(pk.g), "f": jet(pk.f), "q": jet(pk.Q),
                "xi": reeb(pk.xi), "eta": reeb(pk.eta)}

    @cached_property
    def ginv(self):
        if self.ambient is not None:
            return self._jets["ginv"]
        return calculus.metric_inverse(self.g0, self.rows.points)

    @cached_property
    def gamma(self):
        return calculus.christoffel_from_jets(self.ginv, self.g1)

    @cached_property
    def phi0(self):
        """Fundamental two-form, phi[a,b] = g(e_a, f e_b)."""
        return self.g0 @ self.f0

    @cached_property
    def dphi(self):
        # the partials of phi, phi1[a,b,c] = d_c phi[a,b]
        phi1 = np.einsum("...akc,...kb->...abc", self.g1, self.f0) + np.einsum(
            "...ak,...kbc->...abc", self.g0, self.f1
        )
        return calculus.d_twoform_kernel(phi1)

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
        return calculus.nabla_vector_kernel(self.gamma[:, None], self.xi0,
                                            self.xi1)

    @cached_property
    def nabla_xi_xi(self):
        """nabla_xi_xi[i,j,k] = (D_{xi_i} xi_j)^k."""
        xi_t = np.swapaxes(self.xi0, 1, 2)[:, None]
        return (self.nabla_xi @ xi_t).transpose(0, 3, 1, 2)

    @cached_property
    def nabla_eta(self):
        """nabla_eta[i,a,b] = (D_{e_a} eta^i)_b."""
        return calculus.nabla_oneform_kernel(self.gamma[:, None], self.eta0,
                                             self.eta1)

    @cached_property
    def lie_g_xi(self):
        """lie_g_xi[i,a,b] = (L_{xi_i} g)(e_a, e_b)."""
        return calculus.lie_metric_kernel(self.g0[:, None], self.g1[:, None],
                                          self.xi0, self.xi1)

    @cached_property
    def tv(self):
        # g^-1 first: it names an indefinite metric (point and smallest
        # eigenvalue) before the Cholesky factorization raises LinAlgError
        self.ginv
        return build_test_vectors(self.g0, self.rngs, distinguished=self.xi0)

    @cached_property
    def d_basis(self):
        """g-orthonormal basis of the contact distribution (2n rows).

        Built as the g-orthogonal complement of the Reeb span, which equals
        the intersection of the ker eta^i on any pack satisfying the
        axioms, and stays well-defined on deliberately broken packs: the
        Gram-Schmidt of the Reeb fields, then of the coordinate frame.
        """
        count, s, m = self.xi0.shape
        n2 = 2 * self.pack.n
        frame = np.broadcast_to(np.eye(m), (count, m, m))
        units, kept = gram_schmidt(
            self.g0, np.concatenate([self.xi0, frame], axis=1), floor=1e-8)
        for reeb, rows in zip(kept[:, :s].sum(1), kept[:, s:].sum(1)):
            if reeb < s:
                raise RuntimeError("Reeb fields are linearly dependent")
            if rows != n2:
                raise RuntimeError(
                    f"could not build a basis of the contact distribution "
                    f"(got {rows} of {n2} directions)"
                )
        return units[:, s:][kept[:, s:]].reshape(count, n2, m)

    @cached_property
    def axioms(self):
        """The residuals of every defining identity, one (P,) array each,
        keyed as :func:`axioms_residual` returns them. Each is reduced to
        its rows as soon as it is formed.

        Raises :class:`DegenerateOperatorError` at the first point whose
        symmetrized Q has its smallest eigenvalue at most 1e-12.
        """
        tv, g0, f0, q0, eta0, xi0 = (self.tv, self.g0, self.f0, self.q0,
                                     self.eta0, self.xi0)
        V, u, e = tv.vectors, tv.factor, tv.basis
        s = self.pack.s

        rows_abs = partial(sup_abs, lead=1)
        rows_norm = partial(sup_norm, lead=1)
        t = partial(np.swapaxes, axis1=1, axis2=2)

        q_mat = e @ g0 @ (q0 @ t(e))
        floor = np.linalg.eigvalsh(0.5 * (q_mat + t(q_mat))).min(-1)
        bad = floor <= _Q_EIGEN_FLOOR
        if bad.any():
            k = np.argmax(bad)
            raise DegenerateOperatorError(self.rows.points[k], floor[k])

        res = {}
        gf = g0 @ f0
        res["f_skew"] = rows_abs(pair_form(gf + t(gf), V, V))
        gq = g0 @ q0
        res["q_selfadjoint"] = rows_abs(pair_form(gq - t(gq), V, V))
        res["q_positive"] = np.maximum(-floor, 0.0)     # a NaN stays
        res["eta_xi_pairing"] = rows_abs(
            np.einsum("pia,pja->pij", eta0, xi0) - np.eye(s))
        res["q_fixes_xi"] = rows_norm(u @ (q0 @ t(xi0) - t(xi0)))
        # f^2 = -Q + sum eta^i (x) xi_i, applied to test vectors
        corr = np.einsum("pik,pia->pka", xi0, eta0)
        res["f_squared"] = rows_norm(pair_form(f0 @ f0 + q0 - corr, u, V))
        # g(fX, fY) = g(X, QY) - sum eta^i(X) eta^i(Y)
        res["compatibility"] = rows_abs(
            pair_form(t(f0) @ g0 @ f0 - gq + t(eta0) @ eta0, V, V))
        eta_v = eta0 @ t(V)
        res["f_kills_xi"] = rows_norm(pair_form(f0, u, xi0))
        res["eta_after_f"] = rows_abs(pair_form(f0, eta0, V))
        res["eta_after_q"] = rows_abs(pair_form(q0, eta0, V) - eta_v)
        res["qf_commute"] = rows_norm(pair_form(q0 @ f0 - f0 @ q0, u, V))
        res["eta_metric_dual"] = rows_abs(eta_v - pair_form(t(g0), xi0, V))
        res["xi_orthonormal"] = rows_abs(pair_form(g0, xi0, xi0) - np.eye(s))
        # rank 2n: s singular values below 1e-8, 2n above 1e-4 (n, s >= 1)
        sv = np.sort(np.linalg.svd(e @ g0 @ (f0 @ t(e)), compute_uv=False))
        small = sv[:, s - 1]
        res["f_rank"] = np.where(sv[:, s] <= _RANK_POSITIVE_FLOOR, 1.0,
                                 np.where(small <= _RANK_ZERO_CEIL, 0.0, small))
        # f-invariance of D = cap ker eta^i, checked on a basis of D
        res["d_f_invariant"] = rows_abs(pair_form(f0, eta0, self.d_basis))
        # splitting X = (X - sum eta^i(X) xi_i) + sum eta^i(X) xi_i, D-part in D
        res["tangent_split"] = rows_abs((eta0 - eta0 @ t(xi0) @ eta0) @ t(V))
        return res

    # -- structure tensor coefficients -----------------------------------------
    #
    # Each bilinear tensor is kept as its coefficients C[k, a, b] at the
    # point; its value on test pairs is the one contraction pair_form(C, V, V).

    @cached_property
    def ff_coeff(self):
        """[f,f](e_a, e_b)^k."""
        f0, f1 = self.f0, self.f1
        # P[k,a,b] = (f e_b)^c d_c f^k_a, with f1[k,b,c] = d_c f^k_b:
        # [fX, fY]^k = (fX)^c d_c (fY)^k - (fY)^c d_c (fX)^k
        p = f1 @ f0[:, None]
        # [fX, Y]^k + [X, fY]^k = X^c d_c (fY)^k - Y^c d_c (fX)^k
        r = f1.transpose(0, 1, 3, 2) - f1
        return p.transpose(0, 1, 3, 2) - p - lead_dot(f0, r, lead=1)

    @cached_property
    def n1_coeff(self):
        """N1(e_a, e_b)^k = [f,f](e_a, e_b)^k + 2 sum_i deta^i(e_a, e_b) xi_i^k."""
        xi_t = np.swapaxes(self.xi0, 1, 2)
        return self.ff_coeff + 2.0 * lead_dot(xi_t, self.deta, lead=1)

    @cached_property
    def n2_coeff(self):
        """N2[i,a,b] = 2 deta^i(f e_a, e_b) - 2 deta^i(f e_b, e_a)."""
        t = np.swapaxes(self.f0, 1, 2)[:, None] @ self.deta
        return 2.0 * (t - t.transpose(0, 1, 3, 2))


class PackFrame(_Fields):
    """All jets and test data of a pack at a single chart point.

    The frame is a row of the set-up stack of its chunk of sample points
    (``row``, a :class:`~weakf.charts.Row` of the run's
    :class:`~weakf.charts.PointStacks`; by default the point alone, as
    sample ``index``): g^-1, Christoffel symbols, test vectors and the
    derived tensors are built once per chunk with a leading point axis, and
    the frame reads its row of each on first use, the axioms map included.
    The other checks are per point. A pack induced on an embedded
    submanifold takes the point's ambient data as ``ambient`` (see
    :func:`weakf.submanifold.induce_structure`): its jets, g^-1 and
    curvature are read from there.
    """

    def __init__(self, pack, p, seed=0, index=0, ambient=None, row=None):
        self.pack = pack
        self.p = np.asarray(p, dtype=float)
        self.m = pack.dim
        self.ambient = ambient
        self._row = row or Rows(self.p[None], index).row(0)
        rows = self._row.rows

        def chunk():
            rngs = [point_rng(seed, rows.start + k) for k in range(len(rows))]
            return _FrameStack(pack, rows, rngs,
                               None if ambient is None else ambient._chunk)

        # keyed by id: the stack holds the pack, so the id stays its own
        self._chunk = self._row.kept((PackFrame, id(pack), seed), chunk)
        self._rng = self._chunk.rngs[self._row.k]
        self._kept = {}

    _jets = row_of("_jets")
    ginv = row_of("ginv")
    gamma = row_of("gamma")
    phi0 = row_of("phi0")
    dphi = row_of("dphi")
    deta = row_of("deta")
    nabla_f = row_of("nabla_f")
    nabla_q = row_of("nabla_q")
    nabla_xi = row_of("nabla_xi")
    nabla_xi_xi = row_of("nabla_xi_xi")
    nabla_eta = row_of("nabla_eta")
    lie_g_xi = row_of("lie_g_xi")
    tv = row_of("tv")
    d_basis = row_of("d_basis")
    ff_coeff = row_of("ff_coeff")
    n1_coeff = row_of("n1_coeff")
    n2_coeff = row_of("n2_coeff")
    axioms = row_of("axioms")

    @cached_property
    def riemann(self):
        if self.ambient is not None:
            return self.ambient.induced_riemann
        g = self.pack.g
        g2 = self._row.jet(g.fn, 2, g.label)[2]
        return calculus.riemann_from_jets(self.ginv, self.gamma, self.g1, g2)

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

    def random_d_units(self, count):
        """Seeded unit vectors in the contact distribution."""
        db = self.d_basis
        coeff = self._rng.standard_normal((count, db.shape[0]))
        return unit_rows(coeff @ db, self.g0)

    def kept(self, key, compute):
        """``compute()``, computed once per frame and kept under ``key``.

        This is the one keep rule: every result is kept, whatever its size,
        because the runner keeps the frames of one chunk alive at a time.
        """
        if key not in self._kept:
            self._kept[key] = compute()
        return self._kept[key]

    # -- structure tensor evaluators -------------------------------------------

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


def axioms_residual(fr):
    """Named sup-norm residuals of every defining identity at the frame's point.

    The map is built once per chunk of points (:attr:`_FrameStack.axioms`)
    and this is the frame's row of it, as Python floats. Raises
    :class:`DegenerateOperatorError` when the symmetrized Q fails to be
    positive-definite at a point of the chunk: the object leaves the weak
    class.
    """
    return {key: float(v) for key, v in fr.axioms.items()}
