"""Embedded submanifolds of weak Hermitian ambients.

An :class:`EmbeddedSubmanifold` is a chart-to-chart embedding ``iota`` with
an analytic frame of mutually orthogonal unit normals N_1..N_s, inside an
ambient chart carrying a metric gbar and a skew (1,1)-tensor fbar whose
square is negative-definite. The frame must satisfy

    gbar(fbar N_i, N_j) = 0,

and each fbar N_i must be tangent to the image; the submanifold then
inherits a weak metric f-structure

    xi_i = fbar N_i,                 eta^i = gbar(fbar N_i, .),
    f = fbar + sum_i gbar(fbar N_i, .) N_i,
    Q = -fbar^2 + sum_i gbar(fbar^2 N_i, .) N_i,

pulled back to domain-chart components. The induced fields take float
points; their first derivatives come in closed form from the ambient data
at the point (:class:`_AmbientPoint`), by the product rule, and the
curvature of the induced metric from the Gauss equation.

Second-fundamental-form conventions: ``h(X,Y)`` is the normal part of the
ambient derivative of pushed-forward fields, the shape operator is
``A_N X = -(ambient D_X N)^tangential``, and the duality
``gbar(h(X,Y), N_i) = g(A_i X, Y)`` ties the two; the unit-sphere example
with the inward position normal (h_N = +g) pins the orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import calculus
from .charts import Rows, SmoothField, jet_stack, row_of, take
from .classifiers import (
    TOL_EXACT,
    nearly_c_residual,
    nearly_s_residual,
    q_parallel_residual,
)
from .errors import HypothesisNotMet, SetupRejected
from .fstructure import StructurePack
from .sampling import (
    cholesky_basis,
    cholesky_factor,
    lead_dot,
    pair_form,
    sup_abs,
    sup_norm,
)

_FRAME_TOL = 1e-10
_TANGENCY_TOL = 1e-9


@dataclass(frozen=True)
class EmbeddedSubmanifold:
    """Embedding of a domain chart into an ambient weak Hermitian chart."""

    domain: object
    ambient: object
    ambient_metric: SmoothField
    ambient_skew: SmoothField
    embedding: object   # coords -> list of ambient components (generic)
    normals: object     # coords -> list of s ambient vectors (generic)
    n: int
    s: int

    def __post_init__(self):
        if self.domain.dim != 2 * self.n + self.s:
            raise ValueError("domain dimension must be 2n + s")
        if self.ambient.dim != 2 * self.n + 2 * self.s:
            raise ValueError("ambient dimension must be 2n + 2s")


def _product(a, b):
    """``a @ b`` for matrices stacked on axis 1 as [value, d_1, ..., d_m],
    at each point of a stack on axis 0.

    A stack of one on axis 1 holds values only.
    """
    out = a[:, :1] @ b
    out[:, 1:] += a[:, 1:] @ b[:, :1]
    return out


def _transposed(a):
    return np.swapaxes(a, -1, -2)


def _induced(jac, gbar, fbar, normals, p):
    """The induced g, g^-1, f, Q, eta and xi at the domain points ``p``.

    Every argument and result is stacked as in :func:`_product`. ``jac`` is
    the embedding's Jacobian J (d, m), ``gbar`` and ``fbar`` are the ambient
    metric and skew tensor along the image (d, d), and ``normals`` holds the
    normals as columns (d, s). Then g = J^T gbar J, f = g^-1 J^T gbar fbar J,
    Q = -g^-1 J^T gbar fbar^2 J, eta^i = (fbar N_i)^T gbar J and
    xi_i = g^-1 eta^i (both as rows, [i, a]), with d(g^-1) = -g^-1 dg g^-1.
    """
    gj = _product(gbar, jac)            # lowered frame vectors gbar J
    jg = _transposed(gj)
    g = _product(_transposed(jac), gj)
    ginv0 = calculus.metric_inverse(g[:, 0], p)[:, None]
    ginv = np.concatenate([ginv0, -ginv0 @ g[:, 1:] @ ginv0], axis=1)
    fj = _product(fbar, jac)
    eta = _product(_transposed(_product(fbar, normals)), gj)
    return {
        "g": g,
        "ginv": ginv,
        "f": _product(ginv, _product(jg, fj)),
        "q": -_product(ginv, _product(jg, _product(fbar, fj))),
        "eta": eta,
        "xi": _transposed(_product(ginv, _transposed(eta))),
    }


def _jet_of(sub, which):
    """The arguments of :meth:`~weakf.charts.Rows.jet` for one of the
    embedding's jets: the embedding at order 2, the normals at order 1, and
    the ambient metric ("gbar", and "gbar2" at order 2) and skew tensor
    along the image."""
    embedding = (sub.embedding, 2, "the embedding")
    gbar, fbar = sub.ambient_metric, sub.ambient_skew
    return {
        "embedding": embedding,
        "normals": (sub.normals, 1, "the normals"),
        "gbar": (gbar.fn, 1, gbar.label, embedding),
        "gbar2": (gbar.fn, 2, gbar.label, embedding),
        "fbar": (fbar.fn, 1, fbar.label, embedding),
    }[which]


class _Along:
    """Ambient vectors at the image, indexed by the axis after the ``_lead``
    leading point axes: v[c], v[c, ...], or v[P, c, ...] on a stack."""

    def to_domain(self, v):
        """Coordinates of tangent ambient vectors in the embedded basis."""
        return np.linalg.solve(self.g0, _transposed(self.jac) @ (self.gbar0 @ v))

    def normal_coefficients(self, v):
        """gbar(v, N_i) for each normal: an array [i, ...]."""
        return lead_dot(self.normals @ self.gbar0, v, self._lead)

    def normal_part(self, v):
        return lead_dot(_transposed(self.normals), self.normal_coefficients(v),
                        self._lead)

    def tangent_part(self, v):
        return v - self.normal_part(v)


class _AmbientStack(_Along):
    """The ambient data of the embedding at the points of ``rows``.

    Each quantity is stacked on a leading point axis and built on first
    read; row k of each is bitwise the quantity of point k alone.
    """

    _lead = 1

    def __init__(self, sub, rows):
        self.sub = sub
        self.rows = rows

    @classmethod
    def of(cls, sub, row):
        """The stack over the chunk of ``row``, built once per chunk."""
        return row.kept((cls, id(sub)), lambda: cls(sub, row.rows))

    def _jet(self, which):
        return self.rows.jet(*_jet_of(self.sub, which))

    iota = property(lambda self: self._jet("embedding")[0])
    jac = property(lambda self: self._jet("embedding")[1])
    hess = property(lambda self: self._jet("embedding")[2])
    normals = property(lambda self: self._jet("normals")[0])
    dnormals = property(lambda self: self._jet("normals")[1])
    gbar0 = property(lambda self: self._jet("gbar")[0])
    gbar1 = property(lambda self: self._jet("gbar")[1])
    fbar0 = property(lambda self: self._jet("fbar")[0])
    fbar1 = property(lambda self: self._jet("fbar")[1])
    g0 = property(lambda self: self.induced_jets["g"][0])

    @cached_property
    def ginvbar(self):
        return calculus.metric_inverse(self.gbar0, self.iota)

    @cached_property
    def gammabar(self):
        return calculus.christoffel_from_jets(self.ginvbar, self.gbar1)

    @cached_property
    def induced_jets(self):
        """Order-1 (value, d1) of the induced g, f, Q, xi and eta, and g^-1.

        Laid out as :meth:`SmoothField.jet` lays them out (the derivative
        index last; xi and eta stacked over the Reeb fields). Ambient fields
        are differentiated along the image through J.
        """
        def stacked(v, d1):
            return np.concatenate([v[:, None], np.moveaxis(d1, -1, 1)], axis=1)

        jac = self.jac[:, None]
        out = _induced(
            stacked(self.jac, self.hess),
            stacked(self.gbar0, self.gbar1 @ jac),
            stacked(self.fbar0, self.fbar1 @ jac),
            stacked(_transposed(self.normals), self.dnormals.transpose(0, 2, 1, 3)),
            self.rows.points,
        )
        jets = {k: (a[:, 0], np.moveaxis(a[:, 1:], 1, -1)) for k, a in out.items()}
        jets["ginv"] = out["ginv"][:, 0]
        return jets

    @cached_property
    def coordinate_derivative(self):
        """dxy[c, a, b]: ambient D along e_a of the pushed constant field e_b."""
        jac = self.jac[:, None]
        return self.hess + _transposed(jac) @ self.gammabar @ jac

    @cached_property
    def hn(self):
        """hn[i, a, b] = gbar(h(e_a, e_b), N_i), the second fundamental form
        of each normal on the coordinate directions."""
        return self.normal_coefficients(self.coordinate_derivative)

    @cached_property
    def shape_operators(self):
        """A[i, a, b]: the shape operator A_i X = -(ambient D_X N_i)^T of
        each normal, in domain coordinates (column b is A_i e_b)."""
        count, m, s = len(self.rows), self.sub.domain.dim, self.sub.s
        # dn[i, c, b] = (ambient D_{e_b} N_i)^c: d_b N_i^c plus the
        # Christoffel term Gammabar^c_{ae} (J e_b)^a N_i^e
        gn = (self.gammabar @ _transposed(self.normals)[:, None]).transpose(
            0, 3, 1, 2)
        dn = self.dnormals + gn @ self.jac[:, None]
        t = self.tangent_part(-dn.transpose(0, 2, 1, 3))
        a = self.to_domain(t.reshape(count, t.shape[1], -1))
        return a.reshape(count, m, s, m).transpose(0, 2, 1, 3)

    @cached_property
    def ubar(self):
        """The upper Cholesky factor of gbar0 = ubar^T ubar: an ambient
        vector residual lowered by it has the gbar-norm as its Euclidean
        norm (see :func:`~weakf.sampling.sup_norm`)."""
        return cholesky_factor(self.gbar0)

    @cached_property
    def basis(self):
        """A gbar-orthonormal basis of the ambient space at the image (rows)."""
        return cholesky_basis(self.ubar)

    @cached_property
    def nabla_fbar(self):
        """nf[be, al, ga] = ((ambient D_{e_be}) fbar)^al_ga at the image."""
        return calculus.nabla_tensor11_kernel(
            self.gammabar, self.fbar0, self.fbar1
        )


class _AmbientPoint(_Along):
    """Floating-point ambient data of the embedding at one domain point.

    The runner builds one per sample point of an embedded example and hands
    it to the point's :class:`~weakf.fstructure.PackFrame` as ``ambient``;
    the frame reads the induced pack's jets and curvature from it, and every
    submanifold check reads it from the frame. Only
    :func:`require_valid_frame` builds its own. It is a row of the ambient
    stack of its chunk of sample points (``row``, a
    :class:`~weakf.charts.Row` of the run's
    :class:`~weakf.charts.PointStacks`; by default the point alone): the
    jets of the embedding, the normals and the ambient fields along the
    image, and the quantities built from them, are stacked once per chunk.
    """

    _lead = 0

    def __init__(self, sub, p, row=None):
        self.sub = sub
        self.p = p = np.asarray(p, dtype=float)
        self._row = row or Rows(p[None]).row(0)
        self._chunk = _AmbientStack.of(sub, self._row)
        self.iota, self.jac, self.hess = self._jet("embedding")
        self.normals, self.dnormals = self._jet("normals")
        self.gbar0, self.gbar1 = self._jet("gbar")
        self.ginvbar = take(self._chunk.ginvbar, self._row.k)
        self.gammabar = take(self._chunk.gammabar, self._row.k)
        self.fbar0, self.fbar1 = self._jet("fbar")

    def _jet(self, which):
        return self._row.jet(*_jet_of(self.sub, which))

    @property
    def g0(self):
        """The induced metric at the point."""
        return self.induced_jets["g"][0]

    induced_jets = row_of("induced_jets")
    coordinate_derivative = row_of("coordinate_derivative")
    hn = row_of("hn")
    shape_operators = row_of("shape_operators")
    ubar = row_of("ubar")
    basis = row_of("basis")
    nabla_fbar = row_of("nabla_fbar")

    @cached_property
    def induced_riemann(self):
        """Riem[l,i,j,k] of the induced metric, from the Gauss equation

        g(R(X,Y)Z, W) = gbar(Rbar(X,Y)Z, W) + gbar(h(Y,Z), h(X,W))
                        - gbar(h(X,Z), h(Y,W)),

        with Rbar from a second-order jet of gbar, taken here only. No
        third derivative of the embedding is needed.
        """
        gbar2 = self._jet("gbar2")[2]
        rbar = calculus.riemann_from_jets(
            self.ginvbar, self.gammabar, self.gbar1, gbar2)
        low = lead_dot(self.gbar0, rbar)            # [w, i, j, k], lowered
        for _ in range(4):                          # each slot through J
            low = (low.reshape(len(low), -1).T @ self.jac).reshape(
                low.shape[1:] + (-1,))
        hn = self.hn.reshape(len(self.hn), -1)
        hh = (hn.T @ hn).reshape(self.hn.shape[1:] * 2)     # [a, b, c, e]
        low = low + np.einsum("jkiw->wijk", hh) - np.einsum("ikjw->wijk", hh)
        return lead_dot(self.induced_jets["ginv"], low)

    @cached_property
    def nearly_kahler_residual(self):
        """:func:`ambient_nearly_kahler_residual` at this point."""
        return ambient_nearly_kahler_residual(self)


def frame_check(ap):
    """Residuals of the normal-frame requirements at the ambient point ``ap``.

    Keys: orthonormality of the normals, orthogonality to the image, the
    skew-pairing condition gbar(fbar N_i, N_j) = 0, tangency of fbar N_i,
    skewness of fbar at the image, and the negative-definiteness margin of
    fbar^2.
    """
    res = {}
    gram = pair_form(ap.gbar0, ap.normals, ap.normals)
    res["normals_orthonormal"] = sup_abs(gram - np.eye(ap.sub.s))
    res["normals_perp_image"] = sup_abs(ap.normals @ ap.gbar0 @ ap.jac)
    fn = ap.normals @ ap.fbar0.T
    res["skew_normal_pairs"] = sup_abs(pair_form(ap.gbar0, fn, ap.normals))
    res["xi_tangent"] = sup_norm(lead_dot(ap.ubar, ap.normal_part(fn.T)))
    gf = ap.gbar0 @ ap.fbar0
    eb = ap.basis
    res["ambient_skew"] = sup_abs(pair_form(gf + gf.T, eb, eb))
    f2 = ap.fbar0 @ ap.fbar0
    f2_mat = eb @ ap.gbar0 @ (f2 @ eb.T)
    res["fbar_sq_negative"] = float(np.maximum(   # a NaN stays
        np.linalg.eigvalsh(0.5 * (f2_mat + f2_mat.T)).max(), 0.0))
    return res


def require_valid_frame(sub, p):
    res = frame_check(_AmbientPoint(sub, p))
    for key in ("normals_orthonormal", "normals_perp_image", "skew_normal_pairs"):
        if not res[key] <= _FRAME_TOL:
            raise SetupRejected(
                f"normal frame violates {key} at {tuple(np.asarray(p))}: "
                f"residual {res[key]:.3e}"
            )
    if not res["xi_tangent"] <= _TANGENCY_TOL:
        raise SetupRejected(
            f"fbar N_i has a normal component {res['xi_tangent']:.3e}: "
            "the induced Reeb fields are not tangent"
        )
    if not res["fbar_sq_negative"] <= 0.0:
        raise SetupRejected(
            "ambient skew tensor squared is not negative-definite "
            f"(margin {res['fbar_sq_negative']:.3e})"
        )
    return res


# -- induced structure -----------------------------------------------------------


def _induced_values(sub, coords):
    """Values of the induced g, g^-1, f, Q, eta and xi at a float point."""
    if not all(isinstance(c, float) for c in coords):
        raise TypeError(
            "induced fields are evaluated at float points; a PackFrame of an "
            "induced pack reads their jets from the point's _AmbientPoint")
    iota, jac = (a[0] for a in jet_stack(sub.embedding, np.array([coords]), 1,
                                         "the embedding"))
    normals = np.array(sub.normals(coords), dtype=float)
    out = _induced(jac[None, None], sub.ambient_metric.value(iota)[None, None],
                   sub.ambient_skew.value(iota)[None, None],
                   normals.T[None, None], [coords])
    return {k: a[0, 0] for k, a in out.items()}


def induce_structure(sub, validate=True):
    """Pull the ambient structure back to a weak metric f-structure pack.

    With ``validate`` the normal frame is checked at one interior point and
    the setup rejected on violation; the full residual suite is the real
    verdict.

    The induced fields give values only (:meth:`SmoothField.value`). A
    :class:`~weakf.fstructure.PackFrame` of the pack takes the point's
    :class:`_AmbientPoint` and reads every jet, g^-1 and the curvature from
    it.
    """
    if validate:
        mid = np.array([0.5 * (lo + hi) for lo, hi in sub.domain.box])
        require_valid_frame(sub, mid)

    def piece(name, *row):
        return lambda coords: _induced_values(sub, coords)[name][row]

    dom = sub.domain
    return StructurePack(
        chart=dom,
        f=SmoothField(dom, "tensor11", piece("f"), name="induced_f"),
        Q=SmoothField(dom, "tensor11", piece("q"), name="induced_Q"),
        xi=tuple(
            SmoothField(dom, "vector", piece("xi", i), name=f"induced_xi_{i + 1}")
            for i in range(sub.s)
        ),
        eta=tuple(
            SmoothField(dom, "oneform", piece("eta", i), name=f"induced_eta_{i + 1}")
            for i in range(sub.s)
        ),
        g=SmoothField(dom, "metric", piece("g"), name="induced_metric"),
        n=sub.n,
        s=sub.s,
    )


# -- second fundamental form ------------------------------------------------------


def gauss_split_residual(fr):
    """Exactness of the split ambient D = dI(induced D) + h over the frame."""
    ap = fr.ambient
    r = (ap.coordinate_derivative - lead_dot(ap.jac, fr.gamma)
         - lead_dot(ap.normals.T, ap.hn))
    return sup_norm(lead_dot(ap.ubar, r))


# -- theorem-level machinery -------------------------------------------------------


def ambient_nearly_kahler_residual(ap):
    """Sup of (D_X fbar)Y + (D_Y fbar)X over an ambient frame at the image."""
    nf = ap.nabla_fbar.transpose(1, 0, 2)
    c = lead_dot(ap.ubar, nf + nf.transpose(0, 2, 1))
    return sup_norm(pair_form(c, ap.basis, ap.basis))


def _thsubm_shared(fr):
    """The parts of :func:`thsubm_check` that do not depend on the case."""
    ap = fr.ambient
    xi0, eta0, V, hn = fr.xi0, fr.eta0, fr.V, ap.hn
    a_mats = ap.shape_operators
    hxx = pair_form(hn, xi0, xi0)       # h_{N_i}(xi_j, xi_k)
    res = {
        # g(A_i X, Y) against h_{N_i}(X, Y)
        "weingarten_duality": sup_abs(
            pair_form(a_mats.transpose(0, 2, 1) @ fr.g0 - hn, V, V)),
        "h_symmetric": sup_abs(pair_form(hn - hn.transpose(0, 2, 1), V, V)),
    }

    # tangential part of the ambient identity against the induced sum, on
    # every pair of coordinate directions (X, Y) = (e_A, e_B)
    jv = ap.jac.T
    t = pair_form(ap.nabla_fbar.transpose(1, 0, 2), jv, jv)
    lhs_t = ap.tangent_part(t + t.transpose(0, 2, 1))
    # (D_X f)Y + sum_i eta^i(X) A_i Y, then symmetrized in X and Y
    dom = fr.nabla_f.transpose(1, 0, 2) + np.einsum("iA,ikB->kAB", eta0, a_mats)
    dom = dom + dom.transpose(0, 2, 1) - 2.0 * lead_dot(xi0.T, hn)
    res["tangential_expansion"] = sup_norm(
        lead_dot(ap.ubar, lhs_t - lead_dot(ap.jac, dom)))
    return {
        "aa_symmetry": sup_abs(hxx - hxx.transpose(1, 0, 2)),
        "case_free": res,
        # the Reeb part of both displays and of their shape operators:
        # sum_jk h_{N_i}(xi_j, xi_k) eta^j(X) eta^k(Y), and xi_k eta^j
        "disp": pair_form(hxx, eta0.T, eta0.T),
        "a_disp": pair_form(hxx.transpose(0, 2, 1), xi0.T, eta0.T),
    }


def thsubm_check(fr, case, tol_exact=TOL_EXACT):
    """Hypotheses and conclusion of the induced nearly-S/C criterion.

    ``fr`` is the induced pack's frame, which holds the ambient point as
    ``fr.ambient``; the parts both cases share are computed once per frame.

    ``case="i"``: h_{N_i}(X,Y) = g(-f^2 X, Y) + sum_{j,k} h_{N_i}(xi_j,
    xi_k) eta^j(X) eta^k(Y) forces a weak nearly-S induced structure;
    ``case="ii"``: h_{N_i} supported on the Reeb directions forces weak
    nearly-C. Gated on the ambient being weak nearly Kahler along the
    image. Reported residuals:

      aa_symmetry            h_{N_i}(xi_j, xi_k) = h_{N_j}(xi_i, xi_k)
      h_display              the case hypothesis itself
      shape_display_duality  g-duality of the h-display and the A-display
      weingarten_duality     gbar(h(X,Y), N_i) = g(A_i X, Y)
      h_symmetric            h(X,Y) = h(Y,X)
      tangential_expansion   tangential ambient nearly-Kahler identity
                             against the induced-plus-shape sum
      conclusion_*           nearly-S (case i) or nearly-C (case ii)
    """
    if case not in ("i", "ii"):
        raise ValueError("case must be 'i' or 'ii'")
    gate = fr.ambient.nearly_kahler_residual
    if not gate <= tol_exact:
        raise HypothesisNotMet("thsubm", "ambient_weak_nearly_kahler", gate)
    V = fr.V
    shared = fr.kept(_thsubm_shared, lambda: _thsubm_shared(fr))
    disp, a_disp = shared["disp"], shared["a_disp"]
    if case == "i":
        f2 = fr.f0 @ fr.f0              # the display adds g(-f^2 X, Y)
        disp = disp - f2.T @ fr.g0
        a_disp = a_disp - f2
    res = {
        "aa_symmetry": shared["aa_symmetry"],
        "h_display": sup_abs(pair_form(fr.ambient.hn - disp, V, V)),
        "shape_display_duality": sup_abs(
            pair_form(a_disp.transpose(0, 2, 1) @ fr.g0 - disp, V, V)),
        **shared["case_free"],
    }
    if case == "i":
        res["conclusion_weak_nearly_S"] = nearly_s_residual(fr)
    else:
        res["conclusion_weak_nearly_C"] = nearly_c_residual(fr)
    return res


def lemma_parallel_claim(fr, tol=TOL_EXACT):
    """Gated check: the parallel-Q condition holds on the induced pack.

    Hypotheses: fbar^2 N_i is normal to the image, and the tangential part
    of (ambient D_X fbar^2) Y vanishes for Y in the contact distribution.
    Conclusion: the induced pack, whose frame is ``fr``, satisfies
    (D_X Q)Y = 0 for Y in D.
    """
    ap = fr.ambient
    f2n = ap.normals @ (ap.fbar0 @ ap.fbar0).T
    hyp1 = sup_norm(lead_dot(ap.ubar, ap.tangent_part(f2n.T)))
    if not hyp1 <= tol:
        raise HypothesisNotMet(
            "lemma_parallel_q", "fbar_sq_normal_is_normal", hyp1
        )
    # (D_X fbar^2) Y = (D_X fbar) fbar Y + fbar (D_X fbar) Y for X a
    # coordinate direction and Y in D, both pushed forward
    nf = ap.nabla_fbar.transpose(1, 0, 2)
    jx = ap.jac.T
    jy = fr.d_basis @ ap.jac.T
    t = pair_form(nf, jx, jy @ ap.fbar0.T) + lead_dot(
        ap.fbar0, pair_form(nf, jx, jy)
    )
    worst = sup_norm(lead_dot(ap.ubar, ap.tangent_part(t)))
    if not worst <= tol:
        raise HypothesisNotMet(
            "lemma_parallel_q", "tangential_nabla_fbar_sq", worst
        )
    first, second = q_parallel_residual(fr)
    return {
        "fbar_sq_normal_is_normal": hyp1,
        "tangential_nabla_fbar_sq": worst,
        "q_parallel_d": first,
        "q_parallel_expansion": second,
    }
