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
along the image (:class:`_AmbientStack`, over a chunk of points), by the
product rule, and the Reeb curvature R(xi, .)xi of the induced metric
from the Gauss equation.

The submanifold checks take the chunk's frame stack of the induced pack,
which builds the ambient stack of its points, and return one row of
residuals over the chunk's points per key, as the axioms, classes and
frames bundles do. A gated check reads its gates first and raises
:class:`~weakf.errors.HypothesisNotMet` at once if one fails at the chunk's
first point; otherwise it computes every row of its chunk before it raises
at the first row whose gate fails (:func:`~weakf.classifiers.gated_rows`).

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
from .charts import Rows, SmoothField, jet_stack
from .classifiers import TOL_EXACT, gated_rows
from .errors import InvalidExample
from .fstructure import (_RANK_POSITIVE_FLOOR, StructurePack, _pair_rows,
                         _rows_abs, _rows_norm)
from .sampling import (cholesky_basis, cholesky_factor, lead_dot, pair_form,
                       transposed)


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

    def ambient_stack(self, rows):
        """The :class:`_AmbientStack` of the embedding at ``rows``."""
        return _AmbientStack(self, rows)


def _product(a, b):
    """``a @ b`` for matrices stacked on axis 1 as [value, d_1, ..., d_m],
    at each point of a stack on axis 0.

    A stack of one on axis 1 holds values only.
    """
    out = a[:, :1] @ b
    out[:, 1:] += a[:, 1:] @ b[:, :1]
    return out


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
    jg = transposed(gj)
    g = _product(transposed(jac), gj)
    ginv0 = calculus.metric_inverse(g[:, 0], p)[:, None]
    ginv = np.concatenate([ginv0, -ginv0 @ g[:, 1:] @ ginv0], axis=1)
    fj = _product(fbar, jac)
    eta = _product(transposed(_product(fbar, normals)), gj)
    return {
        "g": g,
        "ginv": ginv,
        "f": _product(ginv, _product(jg, fj)),
        "q": -_product(ginv, _product(jg, _product(fbar, fj))),
        "eta": eta,
        "xi": transposed(_product(ginv, transposed(eta))),
    }


class _AmbientStack:
    """The ambient data of the embedding at the points of ``rows``.

    Each quantity is stacked on a leading point axis and built on first
    read; row k of each is bitwise the quantity of point k alone. Ambient
    vectors at the image are indexed by the axis after the point axis,
    v[P, c, ...]. The frame stack of an induced pack builds one over its
    own rows (:meth:`EmbeddedSubmanifold.ambient_stack`): the induced
    pack's jets, g^-1 and curvature are read from it, and the submanifold
    checks read the ambient data from there.
    """

    def __init__(self, sub, rows):
        self.sub = sub
        self.rows = rows

    # the embedding's Hessian is the induced fields' first derivative; the
    # ambient fields are taken along the image points iota
    _embedding = cached_property(lambda self: jet_stack(
        self.sub.embedding, self.rows.points, 2, "the embedding"))
    _normals = cached_property(lambda self: jet_stack(
        self.sub.normals, self.rows.points, 1, "the normals"))
    _gbar = cached_property(lambda self: jet_stack(
        self.sub.ambient_metric.fn, self.iota, 1, self.sub.ambient_metric.label))
    _fbar = cached_property(lambda self: jet_stack(
        self.sub.ambient_skew.fn, self.iota, 1, self.sub.ambient_skew.label))
    iota = property(lambda self: self._embedding[0])
    jac = property(lambda self: self._embedding[1])
    hess = property(lambda self: self._embedding[2])
    normals = property(lambda self: self._normals[0])
    dnormals = property(lambda self: self._normals[1])
    gbar0 = property(lambda self: self._gbar[0])
    gbar1 = property(lambda self: self._gbar[1])
    fbar0 = property(lambda self: self._fbar[0])
    fbar1 = property(lambda self: self._fbar[1])
    g0 = property(lambda self: self.induced_jets["g"][0])

    def to_domain(self, v):
        """Coordinates of tangent ambient vectors in the embedded basis."""
        return np.linalg.solve(self.g0, transposed(self.jac) @ (self.gbar0 @ v))

    def normal_coefficients(self, v):
        """gbar(v, N_i) for each normal: an array [P, i, ...]."""
        return lead_dot(self.normals @ self.gbar0, v, lead=1)

    def normal_part(self, v):
        return lead_dot(transposed(self.normals), self.normal_coefficients(v), lead=1)

    def tangent_part(self, v):
        return v - self.normal_part(v)

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
            stacked(transposed(self.normals), self.dnormals.transpose(0, 2, 1, 3)),
            self.rows.points,
        )
        jets = {k: (a[:, 0], np.moveaxis(a[:, 1:], 1, -1)) for k, a in out.items()}
        jets["ginv"] = out["ginv"][:, 0]
        return jets

    @cached_property
    def coordinate_derivative(self):
        """dxy[P, c, a, b]: ambient D along e_a of the pushed constant field e_b."""
        jac = self.jac[:, None]
        return self.hess + transposed(jac) @ self.gammabar @ jac

    @cached_property
    def hn(self):
        """hn[P, i, a, b] = gbar(h(e_a, e_b), N_i), the second fundamental
        form of each normal on the coordinate directions."""
        return self.normal_coefficients(self.coordinate_derivative)

    @cached_property
    def shape_operators(self):
        """A[P, i, a, b]: the shape operator A_i X = -(ambient D_X N_i)^T of
        each normal, in domain coordinates (column b is A_i e_b)."""
        count, m, s = len(self.rows), self.sub.domain.dim, self.sub.s
        # dn[i, c, b] = (ambient D_{e_b} N_i)^c: d_b N_i^c plus the
        # Christoffel term Gammabar^c_{ae} (J e_b)^a N_i^e
        gn = (self.gammabar @ transposed(self.normals)[:, None]).transpose(
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
        """nf[P, be, al, ga] = ((ambient D_{e_be}) fbar)^al_ga at the image."""
        return calculus.nabla_tensor11_kernel(
            self.gammabar, self.fbar0, self.fbar1
        )

    @cached_property
    def nearly_kahler(self):
        """The gate of :func:`thsubm_check`, one row: the sup of
        (D_X fbar)Y + (D_Y fbar)X over an ambient frame at the image."""
        nf = self.nabla_fbar.transpose(0, 2, 1, 3)
        c = lead_dot(self.ubar, nf + transposed(nf), lead=1)
        return _pair_rows(_rows_norm, c, self.basis)

    def thsubm_parts(self, st):
        """The rows of :func:`thsubm_check` that do not depend on the case,
        over ``st``, the frame stack of the induced pack, which keeps them
        (``FrameStack.thsubm_parts``) for both cases."""
        xi0, eta0, V, hn = st.xi0, st.eta0, st.V, self.hn
        xi_t, eta_t = transposed(xi0)[:, None], transposed(eta0)[:, None]
        a_mats = self.shape_operators
        hxx = pair_form(hn, xi0[:, None], xi0[:, None])    # h_{N_i}(xi_j, xi_k)
        res = {
            # g(A_i X, Y) against h_{N_i}(X, Y)
            "weingarten_duality": _pair_rows(
                _rows_abs, transposed(a_mats) @ st.g0[:, None] - hn, V),
            "h_symmetric": _pair_rows(_rows_abs, hn - transposed(hn), V),
        }

        # tangential part of the ambient identity against the induced sum, on
        # every pair of coordinate directions (X, Y) = (e_A, e_B)
        jv = transposed(self.jac)[:, None]
        t = pair_form(self.nabla_fbar.transpose(0, 2, 1, 3), jv, jv)
        lhs_t = self.tangent_part(t + transposed(t))
        # (D_X f)Y + sum_i eta^i(X) A_i Y, then symmetrized in X and Y
        dom = st.nabla_f.transpose(0, 2, 1, 3) + np.einsum(
            "piA,pikB->pkAB", eta0, a_mats)
        dom = dom + transposed(dom) - 2.0 * lead_dot(transposed(xi0), hn, lead=1)
        res["tangential_expansion"] = _rows_norm(lead_dot(
            self.ubar, lhs_t - lead_dot(self.jac, dom, lead=1), lead=1))
        return {
            "aa_symmetry": _rows_abs(hxx - hxx.transpose(0, 2, 1, 3)),
            "case_free": res,
            # the Reeb part of both displays and of their shape operators:
            # sum_jk h_{N_i}(xi_j, xi_k) eta^j(X) eta^k(Y), and xi_k eta^j
            "disp": pair_form(hxx, eta_t, eta_t),
            "a_disp": pair_form(hxx.transpose(0, 1, 3, 2), xi_t, eta_t),
        }

    def reeb_curvature(self, xi):
        """r[P, i, l, j] = (R(xi_i, e_j) xi_i)^l of the induced metric for
        the induced Reeb fields xi[P, i, m], from the Gauss equation

        g(R(X,Y)Z, W) = gbar(Rbar(X,Y)Z, W) + gbar(h(Y,Z), h(X,W))
                        - gbar(h(X,Z), h(Y,W))

        at X = Z = xi: Rbar(xibar, .) xibar of xibar = J xi from a
        second-order jet of gbar, taken here only, and h through h(xi, .).
        No third derivative of the embedding is needed.
        """
        xibar = xi @ transposed(self.jac)
        jac = self.jac[:, None]
        gbar = self.sub.ambient_metric
        rbar = calculus.reeb_curvature_kernel(
            self.ginvbar, self.gammabar, self.gbar1,
            jet_stack(gbar.fn, self.iota, 2, gbar.label)[2], xibar)
        low = transposed(jac) @ (self.gbar0[:, None] @ (rbar @ jac))
        hn = self.hn
        h_xi = (hn[:, None] @ xi[:, :, None, :, None])[..., 0]  # [P, i, n, a]
        h_xixi = (h_xi @ xi[..., None])[..., 0]                 # [P, i, n]
        low = (low + transposed(h_xi) @ h_xi
               - transposed(lead_dot(h_xixi, hn, lead=1)))
        return self.induced_jets["ginv"][:, None] @ low


class _AmbientPoint(_AmbientStack):
    """The ambient data of the embedding at the one domain point ``p``, a
    stack of one point: :func:`require_valid_frame` checks an embedding's
    normal frame on it, and an induced field's value is read from it."""

    def __init__(self, sub, p):
        super().__init__(sub, Rows(np.asarray(p, dtype=float)[None]))


def frame_check(ambient):
    """Residuals of the normal-frame requirements over the ambient stack
    ``ambient``, one row per key.

    Keys: orthonormality of the normals, orthogonality to the image, the
    skew-pairing condition gbar(fbar N_i, N_j) = 0, tangency of fbar N_i,
    skewness of fbar at the image, and the negative-definiteness margin of
    fbar^2: its largest eigenvalue plus the square of the f_rank floor, so
    that a singular fbar fails. The report's frame entries and
    :func:`require_valid_frame` both judge these rows, each against
    TOL_EXACT. It takes the ambient stack, not a frame stack, because
    require_valid_frame runs before any pack exists.
    """
    a = ambient
    res = {}
    gram = pair_form(a.gbar0, a.normals, a.normals)
    res["normals_orthonormal"] = _rows_abs(gram - np.eye(a.sub.s))
    res["normals_perp_image"] = _rows_abs(a.normals @ a.gbar0 @ a.jac)
    fn = a.normals @ transposed(a.fbar0)
    res["skew_normal_pairs"] = _rows_abs(pair_form(a.gbar0, fn, a.normals))
    res["xi_tangent"] = _rows_norm(lead_dot(
        a.ubar, a.normal_part(transposed(fn)), lead=1))
    gf = a.gbar0 @ a.fbar0
    eb = a.basis
    res["ambient_skew"] = _rows_abs(pair_form(gf + transposed(gf), eb, eb))
    f2 = a.fbar0 @ a.fbar0
    f2_mat = eb @ a.gbar0 @ (f2 @ transposed(eb))
    res["fbar_sq_negative"] = np.maximum(        # a NaN stays
        np.linalg.eigvalsh(0.5 * (f2_mat + transposed(f2_mat))).max(-1)
        + _RANK_POSITIVE_FLOOR ** 2, 0.0)
    return res


def require_valid_frame(sub, p):
    """Refuse the embedding ``sub`` unless its normal frame passes at the
    domain point ``p`` by the rule of the report's frame entries: every
    :func:`frame_check` residual at most TOL_EXACT, a NaN failing.

    The :class:`~weakf.errors.InvalidExample` names the first failing key in
    frame_check's order, the point, the residual and the tolerance.
    """
    for key, rows in frame_check(_AmbientPoint(sub, p)).items():
        if not rows[0] <= TOL_EXACT:
            raise InvalidExample(
                f"normal frame violates {key} at "
                f"{tuple(float(c) for c in p)}: residual {rows[0]:.3e} "
                f"not within tolerance {TOL_EXACT:.0e}")


# -- induced structure -----------------------------------------------------------


def induce_structure(sub, validate=True):
    """Pull the ambient structure back to a weak metric f-structure pack.

    With ``validate`` the embedding is refused with
    :class:`~weakf.errors.InvalidExample` where the report's frame entries
    fail at the box midpoint (:func:`require_valid_frame`); the full
    residual suite is the real verdict.

    The pack carries ``sub`` as its ``submanifold``, from which its frame
    stacks, and so its frames, build the :class:`_AmbientStack` of their
    points and read every jet, g^-1 and the curvature. The induced fields
    give values only (:meth:`SmoothField.value`), each read from the
    :class:`_AmbientPoint` of its point.
    """
    if validate:
        mid = np.array([0.5 * (lo + hi) for lo, hi in sub.domain.box])
        require_valid_frame(sub, mid)

    def piece(name, *row):
        def value(coords):
            if not all(isinstance(c, float) for c in coords):
                raise TypeError(
                    "induced fields are evaluated at float points; the frame "
                    "stack of an induced pack reads their jets from its "
                    "_AmbientStack")
            return _AmbientPoint(sub, coords).induced_jets[name][0][0][row]
        return value

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
        submanifold=sub,
    )


# -- second fundamental form ------------------------------------------------------


def gauss_split_residual(st):
    """Exactness of the split ambient D = dI(induced D) + h, one row over
    ``st``, the frame stack of the induced pack."""
    a = st.ambient
    r = (a.coordinate_derivative - lead_dot(a.jac, st.gamma, lead=1)
         - lead_dot(transposed(a.normals), a.hn, lead=1))
    return _rows_norm(lead_dot(a.ubar, r, lead=1))


# -- theorem-level machinery -------------------------------------------------------


def thsubm_check(st, case, tol_exact=TOL_EXACT):
    """Hypotheses and conclusion of the induced nearly-S/C criterion, one row
    per key over ``st``, the frame stack of the induced pack, whose
    ``ambient`` is the ambient stack of its points; the parts both cases
    share are kept by the stack.

    ``case="i"``: h_{N_i}(X,Y) = g(-f^2 X, Y) + sum_{j,k} h_{N_i}(xi_j,
    xi_k) eta^j(X) eta^k(Y) forces a weak nearly-S induced structure;
    ``case="ii"``: h_{N_i} supported on the Reeb directions forces weak
    nearly-C. Gated on the ambient being weak nearly Kahler along the
    image (see :func:`~weakf.classifiers.gated_rows`). Reported residuals:

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

    def rows():
        V, shared = st.V, st.thsubm_parts
        disp, a_disp = shared["disp"], shared["a_disp"]
        if case == "i":
            f2 = st.f0 @ st.f0          # the display adds g(-f^2 X, Y)
            disp = disp - (transposed(f2) @ st.g0)[:, None]
            a_disp = a_disp - f2[:, None]
        res = {
            "aa_symmetry": shared["aa_symmetry"],
            "h_display": _pair_rows(_rows_abs, st.ambient.hn - disp, V),
            "shape_display_duality": _pair_rows(
                _rows_abs, transposed(a_disp) @ st.g0[:, None] - disp, V),
            **shared["case_free"],
        }
        if case == "i":
            res["conclusion_weak_nearly_S"] = st.nearly_s_defining
        else:
            res["conclusion_weak_nearly_C"] = st.nearly_c_defining
        return res

    return gated_rows(
        "thsubm", [("ambient_weak_nearly_kahler", st.ambient.nearly_kahler)],
        tol_exact, rows)


def _parallel_q_hypotheses(st):
    """The hypotheses of :func:`lemma_parallel_claim` in the order they are
    checked, one row each over the frame stack ``st``."""
    a = st.ambient
    f2n = a.normals @ transposed(a.fbar0 @ a.fbar0)
    hyp1 = _rows_norm(lead_dot(a.ubar, a.tangent_part(transposed(f2n)), lead=1))
    # (D_X fbar^2) Y = (D_X fbar) fbar Y + fbar (D_X fbar) Y for X a
    # coordinate direction and Y in D, both pushed forward
    nf = a.nabla_fbar.transpose(0, 2, 1, 3)
    jx = transposed(a.jac)[:, None]
    jy = st.d_basis @ transposed(a.jac)
    t = pair_form(nf, jx, (jy @ transposed(a.fbar0))[:, None]) + lead_dot(
        a.fbar0, pair_form(nf, jx, jy[:, None]), lead=1)
    worst = _rows_norm(lead_dot(a.ubar, a.tangent_part(t), lead=1))
    return {"fbar_sq_normal_is_normal": hyp1,
            "tangential_nabla_fbar_sq": worst}


def lemma_parallel_claim(st, tol=TOL_EXACT):
    """Gated check: the parallel-Q condition holds on the induced pack, one
    row per key over its frame stack ``st``.

    Hypotheses: fbar^2 N_i is normal to the image, and the tangential part
    of (ambient D_X fbar^2) Y vanishes for Y in the contact distribution.
    Conclusion: the induced pack satisfies (D_X Q)Y = 0 for Y in D. The
    hypotheses gate the rows as :func:`~weakf.classifiers.gated_rows` says.
    """
    hypotheses = _parallel_q_hypotheses(st)
    return gated_rows("lemma_parallel_q", hypotheses.items(), tol, lambda: {
        **hypotheses, "q_parallel_d": st.q_parallel_d,
        "q_parallel_expansion": st.q_parallel_expansion})
