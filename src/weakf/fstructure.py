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
``axioms_residual`` returns it as rows over the chunk's stack; the class
parts and the Reeb-frame conditions are stacked the same way, and on an
induced pack so are the rows of the submanifold criterion that both of its
cases read. Packs are dumb containers: nothing is validated at
construction time, so deliberately broken packs can be built for negative
controls; the residual report is the verdict.

:class:`FrameStack` holds jets, Christoffel symbols and test vectors of a
pack over a chunk of points, each with a leading point axis. The runner
builds one per chunk and hands it to every check, the theorem bodies
included. A point is a stack of one: :class:`PackFrame` is the frame stack
of a single point, and no run builds one.

A residual over the test pairs is formed by :func:`_pair_rows`, which
skips, exactly, a coefficient stack that vanishes identically, such as a
constant pack's whole derivative layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import calculus
from .charts import Rows, jet_stack
from .errors import DegenerateOperatorError
from .sampling import (
    build_test_vectors,
    gram_schmidt,
    lead_dot,
    pair_form,
    point_rng,
    sup_abs,
    sup_norm,
    transposed,
)

_RANK_ZERO_CEIL = 1e-8
_RANK_POSITIVE_FLOOR = 1e-4
_Q_EIGEN_FLOOR = 1e-12

# Points per sub-chunk of a residual over the test pairs, (P, m, A, B) for a
# vector identity: 2.5 MB over a chunk on flat_pack n=4 s=2 (m = 10, 44 test
# vectors), 310 KB over 2 points. From a measured speed and peak-memory
# curve over sub-chunk sizes (see CHANGES.md): 1 point was slower, 2 not.
PAIR_CHUNK = 2

_rows_abs = partial(sup_abs, lead=1)
_rows_norm = partial(sup_norm, lead=1)


def _pair_rows(reduce, c, X, Y=None):
    """``reduce(pair_form(c, X, Y))`` of the stacks c[P, k, a, b], X[P, A, a]
    and Y[P, B, b] (Y = X by default), ``PAIR_CHUNK`` points at a time.

    A ``c`` that vanishes identically, such as a constant pack's derivative
    layer (Gamma, D f, D Q, D xi, d eta, [f,f], L_xi g), is reduced as one
    (P, k, 1, 1) block of zeros, and no test pair is formed. The rule is
    exact, with no tolerance: the test vectors are finite (non-finite jets
    are refused, and the Cholesky basis, the normalised random units and
    ``d_basis`` are finite), so each skipped entry would be +0.0 or -0.0,
    which ``sup_abs`` and ``sup_norm`` both make +0.0; a NaN in ``c`` makes
    ``c.any()`` true and keeps the full path. The test is made here, once
    per residual and chunk, not in ``pair_form``: there every sub-chunk,
    and every one of the many small contractions a run makes elsewhere,
    would pay it, which measured slower on small examples.
    """
    if not c.any():
        return reduce(np.zeros(c.shape[:2] + (1, 1)))
    Y = X if Y is None else Y
    return np.concatenate([
        reduce(pair_form(c[i:i + PAIR_CHUNK], X[i:i + PAIR_CHUNK, None],
                         Y[i:i + PAIR_CHUNK, None]))
        for i in range(0, len(c), PAIR_CHUNK)])


@dataclass(frozen=True)
class StructurePack:
    """The tuple (f, Q, xi, eta, g) on a chart of dimension 2n + s, and
    the ``submanifold`` of a pack that ``induce_structure`` induced on it."""

    chart: object
    f: object
    Q: object
    xi: tuple
    eta: tuple
    g: object
    n: int
    s: int
    submanifold: object = None

    def __post_init__(self):
        if self.chart.dim != 2 * self.n + self.s:
            raise ValueError("chart dimension must equal 2n + s")
        if len(self.xi) != self.s or len(self.eta) != self.s:
            raise ValueError("need s Reeb fields and s dual one-forms")

    @property
    def dim(self):
        return self.chart.dim


class FrameStack:
    """The set-up of a pack's frames at the points of ``rows``.

    Every quantity is stacked on a leading point axis and built on first
    read; row k of each is bitwise the quantity of point k alone. ``rngs``
    holds each point's generator, ``point_rng(seed, index)``, which only the
    test vectors ``tv`` draw from (every random number of a point, the
    curvature chain's units included, see
    :func:`~weakf.sampling.build_test_vectors`). When the pack is induced
    on an embedded submanifold, ``ambient`` is the ambient stack of the
    same rows, built here from the pack's ``submanifold``: its jets, g^-1
    and Reeb curvature are read from there. On any other pack it is None.
    """

    def __init__(self, pack, rows, seed):
        self.pack = pack
        self.rows = rows
        self.rngs = [point_rng(seed, rows.start + k) for k in range(len(rows))]
        sub = pack.submanifold
        self.ambient = None if sub is None else sub.ambient_stack(rows)

    # the fields' order-1 jets, read from _jets
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
    # built once per chunk, for the class parts and bodies that read them
    xibar = cached_property(lambda self: self.xi0.sum(axis=-2))
    etabar = cached_property(lambda self: self.eta0.sum(axis=-2))
    qtilde = cached_property(lambda self: self.q0 - np.eye(self.q0.shape[-1]))

    # the test vectors as rows, and the upper Cholesky factor of g0 = u^T u:
    # a vector residual C lowered by it, lead_dot(u, C), has its g-norm as
    # its Euclidean norm (see sup_norm), and the test basis is u^-T
    V = property(lambda self: self.tv.vectors)
    u = property(lambda self: self.tv.factor)

    @cached_property
    def _jets(self):
        """Order-1 (value, d1) of every field, the Reeb fields on axis 1."""
        if self.ambient is not None:
            return self.ambient.induced_jets
        pk = self.pack

        def jet(field):
            return jet_stack(field.fn, self.rows.points, 1, field.label)

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
        return (self.nabla_xi @ transposed(self.xi0)[:, None]).transpose(0, 3, 1, 2)

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

        q_mat = e @ g0 @ (q0 @ transposed(e))
        floor = np.linalg.eigvalsh(0.5 * (q_mat + transposed(q_mat))).min(-1)
        bad = floor <= _Q_EIGEN_FLOOR
        if bad.any():
            k = np.argmax(bad)
            raise DegenerateOperatorError(self.rows.points[k], floor[k])

        res = {}
        phi = self.phi0
        res["f_skew"] = _rows_abs(pair_form(phi + transposed(phi), V, V))
        gq = g0 @ q0
        res["q_selfadjoint"] = _rows_abs(pair_form(gq - transposed(gq), V, V))
        res["q_positive"] = np.maximum(-floor, 0.0)     # a NaN stays
        res["eta_xi_pairing"] = _rows_abs(
            np.einsum("pia,pja->pij", eta0, xi0) - np.eye(s))
        xi_t = transposed(xi0)
        res["q_fixes_xi"] = _rows_norm(u @ (q0 @ xi_t - xi_t))
        # f^2 = -Q + sum eta^i (x) xi_i, applied to test vectors
        corr = np.einsum("pik,pia->pka", xi0, eta0)
        res["f_squared"] = _rows_norm(pair_form(f0 @ f0 + q0 - corr, u, V))
        # g(fX, fY) = g(X, QY) - sum eta^i(X) eta^i(Y)
        res["compatibility"] = _rows_abs(pair_form(
            transposed(f0) @ g0 @ f0 - gq + transposed(eta0) @ eta0, V, V))
        eta_v = eta0 @ transposed(V)
        res["f_kills_xi"] = _rows_norm(pair_form(f0, u, xi0))
        res["eta_after_f"] = _rows_abs(pair_form(f0, eta0, V))
        res["eta_after_q"] = _rows_abs(pair_form(q0, eta0, V) - eta_v)
        res["qf_commute"] = _rows_norm(pair_form(q0 @ f0 - f0 @ q0, u, V))
        res["eta_metric_dual"] = _rows_abs(eta_v - pair_form(transposed(g0), xi0, V))
        res["xi_orthonormal"] = _rows_abs(pair_form(g0, xi0, xi0) - np.eye(s))
        # rank 2n: s singular values below 1e-8, 2n above 1e-4 (n, s >= 1)
        sv = np.sort(np.linalg.svd(e @ g0 @ (f0 @ transposed(e)), compute_uv=False))
        small = sv[:, s - 1]
        res["f_rank"] = np.where(sv[:, s] <= _RANK_POSITIVE_FLOOR, 1.0,
                                 np.where(small <= _RANK_ZERO_CEIL, 0.0, small))
        # f-invariance of D = cap ker eta^i, checked on a basis of D
        res["d_f_invariant"] = _rows_abs(pair_form(f0, eta0, self.d_basis))
        # splitting X = (X - sum eta^i(X) xi_i) + sum eta^i(X) xi_i, D-part in D
        res["tangent_split"] = _rows_abs((eta0 - eta0 @ xi_t @ eta0) @ transposed(V))
        return res

    @cached_property
    def worst_axiom(self):
        """Each point's largest axiom residual, NaN where any is NaN."""
        return np.maximum.reduce(list(self.axioms.values()))

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
        return self.ff_coeff + 2.0 * lead_dot(transposed(self.xi0), self.deta, lead=1)

    @cached_property
    def n2_coeff(self):
        """N2[i,a,b] = 2 deta^i(f e_a, e_b) - 2 deta^i(f e_b, e_a)."""
        t = transposed(self.f0)[:, None] @ self.deta
        return 2.0 * (t - t.transpose(0, 1, 3, 2))

    # -- class parts and Reeb-frame conditions ----------------------------------
    #
    # One row per point for each, named as the report names it and reduced
    # as soon as it is formed (the Killing rows: one per Reeb field). A
    # vector identity is lowered by u before it meets the test pairs.

    @cached_property
    def nearly_terms(self):
        """(D_X f)Y, g(fX,fY) xibar and etabar(Y) f^2 X: [P, k, a, b], read
        by the nearly-S and S-structure identities."""
        f0 = self.f0
        gff = self.xibar[:, :, None, None] * (transposed(f0) @ self.g0 @ f0)[:, None]
        ef2 = (f0 @ f0)[..., None] * self.etabar[:, None, None]
        return self.nabla_f.transpose(0, 2, 1, 3), gff, ef2

    def _vector_rows(self, c, Y=None):
        return _pair_rows(_rows_norm, lead_dot(self.u, c, lead=1), self.V, Y)

    @cached_property
    def nearly_s_defining(self):
        nf, gff, ef2 = self.nearly_terms
        return self._vector_rows(
            nf + transposed(nf) - 2.0 * gff - transposed(ef2) - ef2)

    @cached_property
    def nearly_c_defining(self):
        nf = self.nabla_f.transpose(0, 2, 1, 3)
        return self._vector_rows(nf + transposed(nf))

    @cached_property
    def s_structure_defining(self):
        nf, gff, ef2 = self.nearly_terms
        return self._vector_rows(nf - gff - ef2)

    @cached_property
    def phi_equals_deta(self):
        return _pair_rows(_rows_abs, self.deta - self.phi0[:, None], self.V)

    @cached_property
    def deta_zero(self):
        return _pair_rows(_rows_abs, self.deta, self.V)

    @cached_property
    def dphi_zero(self):
        """dPhi on the orthonormal test basis and on random triples."""
        x, y, z = np.moveaxis(self.tv.triples, 2, 0)
        extra = y[:, :, None] @ lead_dot(x, self.dphi, lead=1) @ z[..., None]
        e = self.tv.basis
        on_basis = lead_dot(e, pair_form(self.dphi, e[:, None], e[:, None]),
                            lead=1)
        return np.maximum(_rows_abs(on_basis), _rows_abs(extra))

    @cached_property
    def n1_zero(self):
        return self._vector_rows(self.n1_coeff)

    @cached_property
    def eta_n1(self):
        """eta^j(N1(e_a, e_b)), read by thm01_i and its gate."""
        return lead_dot(self.eta0, self.n1_coeff, lead=1)

    @cached_property
    def eta_circ_n1(self):
        """eta^j(N1(X, Y)) on the test pairs: a gate of thm01_i."""
        return _pair_rows(_rows_abs, self.eta_n1, self.V)

    @cached_property
    def q_equals_id(self):
        """(Q - id)X on the test vectors in the g-norm: a gate of the
        rigidity corollary."""
        return _rows_norm(pair_form(self.qtilde, self.u, self.V))

    @cached_property
    def killing(self):
        return _pair_rows(partial(sup_abs, lead=2), self.lie_g_xi, self.V)

    @cached_property
    def reeb_brackets(self):
        # xi_i^a d_a xi_j, for [xi_i, xi_j] = w[i,j] - w[j,i]
        w = lead_dot(self.xi0, self.xi1.transpose(0, 3, 1, 2), lead=1)
        return _rows_norm(lead_dot(
            self.u, (w - w.transpose(0, 2, 1, 3)).transpose(0, 3, 1, 2),
            lead=1))

    @cached_property
    def reeb_flat(self):
        # over test vectors that include the Reeb fields: it bounds the
        # totally-geodesic residual
        return _rows_abs((self.xi0 @ transposed(self.g0))[:, None] @ self.nabla_xi
                         @ transposed(self.V)[:, None])

    @cached_property
    def reeb_totally_geodesic(self):
        return _rows_abs(self.nabla_xi_xi @ transposed(self.eta0)[:, None])

    @cached_property
    def q_parallel_d(self):
        """(D_X Q)Y = 0 for Y in D, the whole vector. Open: is the paper's
        hypothesis this or its D-part, (id - sum xi_i (x) eta^i)(D_X Q)Y?
        The xi_i part forces Q = id under thm01's gates (see
        ``classifiers._thm01_ii``). On ``tests/oracles.d_homothetic_pack``
        the D-part reads <= 5.1e-15 where this reads |1 - lam| sqrt(lam),
        so a D-part gate would run thm01_ii there. PAPER.md holds only the
        abstract, so the gate stays as it is."""
        return self._vector_rows(self.nabla_q.transpose(0, 2, 1, 3),
                                 self.d_basis)

    @cached_property
    def q_parallel_expansion(self):
        # sum_i eta^i(e_b) ((Q - id) D_{e_a} xi_i)^k
        corr = ((self.qtilde[:, None] @ self.nabla_xi).transpose(0, 2, 3, 1)
                @ self.eta0[:, None])
        return self._vector_rows(self.nabla_q.transpose(0, 2, 1, 3) + corr)

    @cached_property
    def reeb_curvature(self):
        """r[P, i, l, j] = (R(xi_i, e_j) xi_i)^l, read by the Reeb-sectional
        curvature chain alone: from the metric's second-order jet, or on an
        induced pack from the Gauss equation (see
        :meth:`weakf.submanifold._AmbientStack.reeb_curvature`)."""
        if self.ambient is not None:
            return self.ambient.reeb_curvature(self.xi0)
        g = self.pack.g
        g2 = jet_stack(g.fn, self.rows.points, 2, g.label)[2]
        return calculus.reeb_curvature_kernel(self.ginv, self.gamma, self.g1,
                                              g2, self.xi0)

    @cached_property
    def thsubm_parts(self):
        """On an induced pack, the rows of the submanifold criterion that do
        not depend on its case, which both cases read (see
        :meth:`weakf.submanifold._AmbientStack.thsubm_parts`)."""
        return self.ambient.thsubm_parts(self)


class PackFrame(FrameStack):
    """The frame stack of the one point ``p``, sample ``index`` of a run:
    a point is a stack of one. No run builds one; ``nijenhuis_ff``, which
    no run calls, stays for ``bench/layertrace.py``."""

    def __init__(self, pack, p, seed=0, index=0):
        super().__init__(pack, Rows(np.asarray(p, dtype=float)[None], index),
                         seed)

    def nijenhuis_ff(self):
        """[f,f](X,Y) for all test pairs: tensor [1, k, A, B]."""
        return pair_form(self.ff_coeff, self.V[:, None], self.V[:, None])


# -- axioms ---------------------------------------------------------------------


def axioms_residual(fr):
    """Named sup-norm residuals of every defining identity on the frame
    stack ``fr``: one row over its points per key, from the map built once
    per stack (:attr:`FrameStack.axioms`).

    Raises :class:`DegenerateOperatorError` when the symmetrized Q fails to
    be positive-definite at a point of the chunk: the object leaves the
    weak class.
    """
    return dict(fr.axioms)
