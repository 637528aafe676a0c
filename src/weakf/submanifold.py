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

pulled back to domain-chart components. Component functions of the induced
fields are generic over jet scalars, so the induced metric carries exact
derivatives of any requested order (they resolve into higher derivatives of
the embedding through nested lifts).

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
from .charts import SmoothField
from .classifiers import (
    TOL_EXACT,
    nearly_c_residual,
    nearly_s_residual,
    nearly_s_terms,
    q_parallel_residual,
)
from .errors import HypothesisNotMet, SetupRejected
from .fstructure import StructurePack
from .jets import Jet, dot, lift, mat_inv, mat_mul, mat_vec, parts, value_of
from .sampling import orthonormal_basis, pair_form, sup_abs, sup_gnorm

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


class _AmbientPoint:
    """Floating-point ambient data of the embedding at one domain point.

    The runner builds one per sample point, next to the point's
    :class:`~weakf.fstructure.PackFrame`, and every submanifold check takes
    it as its first argument; only :func:`require_valid_frame` builds its
    own.
    """

    def __init__(self, sub, p):
        self.sub = sub
        p = np.asarray(p, dtype=float)
        m = sub.domain.dim
        co = lift([float(c) for c in p], order=2)
        amb = sub.embedding(co)
        iota, jac, hess = [], [], []
        for a in amb:
            v, g, h = parts(a, m, order=2, level=co[0].level)
            iota.append(value_of(v))
            jac.append([value_of(x) for x in g])
            hess.append([[value_of(x) for x in row] for row in h])
        self.iota = np.array(iota)
        self.jac = np.array(jac)
        self.hess = np.array(hess)
        co1 = lift([float(c) for c in p], order=1)
        nor = sub.normals(co1)
        nvals, ngrads = [], []
        for row in nor:
            vrow, grow = [], []
            for c in row:
                v, g, _ = parts(c, m, order=1, level=co1[0].level)
                vrow.append(value_of(v))
                grow.append([value_of(x) for x in g])
            nvals.append(vrow)
            ngrads.append(grow)
        self.normals = np.array(nvals)
        self.dnormals = np.array(ngrads)
        self.gbar0, self.gbar1 = sub.ambient_metric.jet(self.iota, order=1)
        self.gammabar = calculus.christoffel_from_jets(
            calculus.metric_inverse(self.gbar0, self.iota), self.gbar1
        )
        self.fbar0, self.fbar1 = sub.ambient_skew.jet(self.iota, order=1)
        self.g0 = self.jac.T @ self.gbar0 @ self.jac

    # Ambient vectors are indexed by the leading axis: v[c] or v[c, ...].

    def to_domain(self, v):
        """Coordinates of tangent ambient vectors in the embedded basis."""
        return np.linalg.solve(self.g0, self.jac.T @ (self.gbar0 @ v))

    def normal_coefficients(self, v):
        """gbar(v, N_i) for each normal: an array [i, ...]."""
        return np.tensordot(self.normals @ self.gbar0, v, 1)

    def normal_part(self, v):
        return np.tensordot(self.normals, self.normal_coefficients(v), (0, 0))

    def tangent_part(self, v):
        return v - self.normal_part(v)

    def ambient_derivative_pairs(self, v):
        """dxy[c, A, B]: ambient D along V_A of the pushed constant field V_B."""
        vj = v @ self.jac.T
        return pair_form(self.hess, v, v) + pair_form(self.gammabar, vj, vj)

    @cached_property
    def coordinate_derivative(self):
        """:meth:`ambient_derivative_pairs` on the coordinate directions."""
        return self.ambient_derivative_pairs(np.eye(self.sub.domain.dim))

    @cached_property
    def shape_operators(self):
        """A[i, a, b]: the shape operator A_i X = -(ambient D_X N_i)^T of
        each normal, in domain coordinates (column b is A_i e_b)."""
        m, s = self.sub.domain.dim, self.sub.s
        # dn[i, c, b] = (ambient D_{e_b} N_i)^c: d_b N_i^c plus the
        # Christoffel term Gammabar^c_{ae} (J e_b)^a N_i^e
        gn = (self.gammabar @ self.normals.T).transpose(2, 0, 1)
        dn = self.dnormals + gn @ self.jac
        t = self.tangent_part(-dn.transpose(1, 0, 2))
        a = self.to_domain(t.reshape(len(t), -1))
        return a.reshape(m, s, m).transpose(1, 0, 2)

    @cached_property
    def basis(self):
        """A gbar-orthonormal basis of the ambient space at the image (rows)."""
        return orthonormal_basis(self.gbar0)

    @cached_property
    def nearly_kahler_residual(self):
        """:func:`ambient_nearly_kahler_residual` at this point."""
        return ambient_nearly_kahler_residual(self)

    @cached_property
    def nabla_fbar(self):
        """nf[be, al, ga] = ((ambient D_{e_be}) fbar)^al_ga at the image."""
        return calculus.nabla_tensor11_kernel(
            self.gammabar, self.fbar0, self.fbar1
        )


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
    res["xi_tangent"] = float(np.linalg.norm(ap.normal_part(fn.T), axis=0).max())
    gf = ap.gbar0 @ ap.fbar0
    eb = ap.basis
    res["ambient_skew"] = sup_abs(pair_form(gf + gf.T, eb, eb))
    f2 = ap.fbar0 @ ap.fbar0
    f2_mat = eb @ ap.gbar0 @ (f2 @ eb.T)
    res["fbar_sq_negative"] = max(
        0.0, float(np.linalg.eigvalsh(0.5 * (f2_mat + f2_mat.T)).max())
    )
    return res


def require_valid_frame(sub, p):
    res = frame_check(_AmbientPoint(sub, p))
    for key in ("normals_orthonormal", "normals_perp_image", "skew_normal_pairs"):
        if res[key] > _FRAME_TOL:
            raise SetupRejected(
                f"normal frame violates {key} at {tuple(np.asarray(p))}: "
                f"residual {res[key]:.3e}"
            )
    if res["xi_tangent"] > _TANGENCY_TOL:
        raise SetupRejected(
            f"fbar N_i has a normal component {res['xi_tangent']:.3e}: "
            "the induced Reeb fields are not tangent"
        )
    if res["fbar_sq_negative"] > 0.0:
        raise SetupRejected(
            "ambient skew tensor squared is not negative-definite "
            f"(margin {res['fbar_sq_negative']:.3e})"
        )
    return res


# -- induced structure -----------------------------------------------------------


def _point_key(coords):
    """Memo key of a component-function argument: its point and lift order.

    Plain float points (order 0, as :meth:`SmoothField.value` passes them)
    and fresh lifts of float points (as :meth:`SmoothField.jet` makes them)
    get a key. Any other argument, such as a nested lift, gets ``None`` and
    is evaluated without the memo.
    """
    if all(isinstance(c, float) for c in coords):
        return tuple(coords), 0
    if not all(isinstance(c, Jet) and isinstance(c.val, float) for c in coords):
        return None
    point = tuple(c.val for c in coords)
    order = 1 if coords[0].hess is None else 2
    fresh = lift(list(point), order=order)
    if any((c.level, c.grad, c.hess) != (f.level, f.grad, f.hess)
           for c, f in zip(coords, fresh)):
        return None
    return point, order


def _pullback(sub, coords, full):
    """The induced g, and with ``full`` also eta, xi, f and Q, at ``coords``.

    Entries of ``coords`` may be floats or jets of any level and the result
    stays at the caller's level. The induced components depend on the first
    derivatives of the embedding, which a nested order-1 lift supplies.
    """
    m = sub.domain.dim
    d = sub.ambient.dim
    inner = lift(list(coords), order=1)
    lvl = inner[0].level
    vals, jac = [], []
    for a in sub.embedding(inner):
        v, g, _ = parts(a, m, order=1, level=lvl)
        vals.append(v)
        jac.append(g)
    gbar = sub.ambient_metric.fn(vals)
    cols = [[jac[al][a] for al in range(d)] for a in range(m)]
    # lowered frame vectors: gj[a] = gbar . (J e_a)
    gj = [mat_vec(gbar, col) for col in cols]
    out = {"g": [[dot(cols[b], gj[a]) for b in range(m)] for a in range(m)]}
    if not full:
        return out
    fbar = sub.ambient_skew.fn(vals)
    fn = [mat_vec(fbar, nrm) for nrm in sub.normals(list(coords))]
    eta = [[dot(fn[i], gj[a]) for a in range(m)] for i in range(sub.s)]
    ginv = mat_inv(out["g"])
    fcols = [mat_vec(fbar, col) for col in cols]
    f2cols = [mat_vec(fbar, fcol) for fcol in fcols]
    out["eta"] = eta
    out["xi"] = [mat_vec(ginv, row) for row in eta]
    out["f"] = mat_mul(
        ginv, [[dot(gj[c], fcols[b]) for b in range(m)] for c in range(m)]
    )
    out["q"] = mat_mul(
        ginv, [[-dot(gj[c], f2cols[b]) for b in range(m)] for c in range(m)]
    )
    return out


def induce_structure(sub, validate=True):
    """Pull the ambient structure back to a weak metric f-structure pack.

    With ``validate`` the normal frame is checked at one interior point and
    the setup rejected on violation; the full residual suite is the real
    verdict.

    The induced fields share one evaluation per point: the pack keeps the
    last one, keyed by the point and the lift, so fetching g, f, Q, xi and
    eta at one point and order runs the embedding, the ambient fields and
    the inverse of g once. An order-2 lift, which only the curvature of g
    needs, evaluates g alone unless another field asks for it.
    """
    if validate:
        mid = np.array([0.5 * (lo + hi) for lo, hi in sub.domain.box])
        require_valid_frame(sub, mid)

    last = [None, None]     # key, pieces

    def pieces(coords, piece):
        key = _point_key(coords)
        full = piece != "g" or (key is not None and key[1] < 2)
        if key is None:
            return _pullback(sub, coords, full)
        if last[0] != key or piece not in last[1]:
            last[:] = key, _pullback(sub, coords, full)
        return last[1]

    def square(piece):
        return lambda coords: [list(r) for r in pieces(coords, piece)[piece]]

    def row(piece, i):
        return lambda coords: list(pieces(coords, piece)[piece][i])

    dom = sub.domain
    return StructurePack(
        chart=dom,
        f=SmoothField(dom, "tensor11", square("f"), name="induced_f"),
        Q=SmoothField(dom, "tensor11", square("q"), name="induced_Q"),
        xi=tuple(
            SmoothField(dom, "vector", row("xi", i), name=f"induced_xi_{i + 1}")
            for i in range(sub.s)
        ),
        eta=tuple(
            SmoothField(dom, "oneform", row("eta", i), name=f"induced_eta_{i + 1}")
            for i in range(sub.s)
        ),
        g=SmoothField(dom, "metric", square("g"), name="induced_metric"),
        n=sub.n,
        s=sub.s,
    )


# -- second fundamental form ------------------------------------------------------


def h_matrix(ap, v):
    """hN over all test pairs: hmat[i, A, B] = gbar(h(V_A, V_B), N_i)."""
    return ap.normal_coefficients(ap.ambient_derivative_pairs(v))


def gauss_split_residual(ap, fr):
    """Exactness of the split ambient D = dI(induced D) + h over the frame."""
    full = ap.coordinate_derivative
    r = full - np.tensordot(ap.jac, fr.gamma, 1) - ap.normal_part(full)
    return sup_gnorm(r, ap.gbar0)


# -- theorem-level machinery -------------------------------------------------------


def ambient_nearly_kahler_residual(ap):
    """Sup of (D_X fbar)Y + (D_Y fbar)X over an ambient frame at the image."""
    t = pair_form(ap.nabla_fbar.transpose(1, 0, 2), ap.basis, ap.basis)
    return sup_gnorm(t + t.transpose(0, 2, 1), ap.gbar0)


def _g_shaped(fr, mats):
    """g(M_i X, Y) over all test pairs for each matrix M_i of ``mats``."""
    V = fr.V
    return pair_form(fr.g0, V @ mats.transpose(0, 2, 1), V)


def _thsubm_shared(ap, fr):
    """The parts of :func:`thsubm_check` that do not depend on the case."""
    xi0, eta0, V = fr.xi0, fr.eta0, fr.V
    a_mats = ap.shape_operators
    hxx = h_matrix(ap, xi0)     # h_{N_i}(xi_j, xi_k)
    hmat = h_matrix(ap, V)
    etaV = eta0 @ V.T
    res = {
        "weingarten_duality": sup_abs(_g_shaped(fr, a_mats) - hmat),
        "h_symmetric": sup_abs(hmat - hmat.transpose(0, 2, 1)),
    }

    # tangential part of the ambient identity against the induced sum, on
    # every pair of coordinate directions (X, Y) = (e_A, e_B)
    jv = ap.jac.T
    t = pair_form(ap.nabla_fbar.transpose(1, 0, 2), jv, jv)
    lhs_t = ap.tangent_part(t + t.transpose(0, 2, 1))
    # (D_X f)Y + sum_i eta^i(X) A_i Y, then symmetrized in X and Y
    dom = fr.nabla_f.transpose(1, 0, 2) + np.einsum("iA,ikB->kAB", eta0, a_mats)
    dom = dom + dom.transpose(0, 2, 1) - 2.0 * np.tensordot(
        xi0, ap.normal_coefficients(ap.coordinate_derivative), (0, 0)
    )
    res["tangential_expansion"] = sup_gnorm(
        lhs_t - np.tensordot(ap.jac, dom, 1), ap.gbar0
    )
    return {
        "aa_symmetry": sup_abs(hxx - hxx.transpose(1, 0, 2)),
        "case_free": res,
        "hmat": hmat,
        # the Reeb part of both displays and of their shape operators:
        # sum_jk h_{N_i}(xi_j, xi_k) eta^j(X) eta^k(Y), and xi_k eta^j
        "disp": pair_form(hxx, etaV.T, etaV.T),
        "a_disp": pair_form(hxx.transpose(0, 2, 1), xi0.T, eta0.T),
    }


def thsubm_check(ap, fr, case, tol_exact=TOL_EXACT):
    """Hypotheses and conclusion of the induced nearly-S/C criterion.

    ``ap`` is the ambient point and ``fr`` the induced pack's frame at the
    same domain point; the parts both cases share are computed once per
    frame.

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
    gate = ap.nearly_kahler_residual
    if gate > tol_exact:
        raise HypothesisNotMet("thsubm", "ambient_weak_nearly_kahler", gate)
    V = fr.V
    shared = fr.kept("thsubm", V, lambda: _thsubm_shared(ap, fr))
    disp, a_disp = shared["disp"], shared["a_disp"]
    if case == "i":
        disp = disp - pair_form(fr.g0, nearly_s_terms(fr, V)[0], V)
        a_disp = a_disp - fr.f0 @ fr.f0
    res = {
        "aa_symmetry": shared["aa_symmetry"],
        "h_display": sup_abs(shared["hmat"] - disp),
        "shape_display_duality": sup_abs(_g_shaped(fr, a_disp) - disp),
        **shared["case_free"],
    }
    if case == "i":
        res["conclusion_weak_nearly_S"] = nearly_s_residual(fr, V)
    else:
        res["conclusion_weak_nearly_C"] = nearly_c_residual(fr, V)
    return res


def lemma_parallel_claim(ap, fr, tol=TOL_EXACT):
    """Gated check: the parallel-Q condition holds on the induced pack.

    Hypotheses: fbar^2 N_i is normal to the image, and the tangential part
    of (ambient D_X fbar^2) Y vanishes for Y in the contact distribution.
    Conclusion: the induced pack, whose frame is ``fr``, satisfies
    (D_X Q)Y = 0 for Y in D.
    """
    f2n = ap.normals @ (ap.fbar0 @ ap.fbar0).T
    hyp1 = float(np.linalg.norm(ap.tangent_part(f2n.T), axis=0).max())
    if hyp1 > tol:
        raise HypothesisNotMet(
            "lemma_parallel_q", "fbar_sq_normal_is_normal", hyp1
        )
    # (D_X fbar^2) Y = (D_X fbar) fbar Y + fbar (D_X fbar) Y for X a
    # coordinate direction and Y in D, both pushed forward
    nf = ap.nabla_fbar.transpose(1, 0, 2)
    jx = ap.jac.T
    jy = fr.d_basis @ ap.jac.T
    t = pair_form(nf, jx, jy @ ap.fbar0.T) + np.tensordot(
        ap.fbar0, pair_form(nf, jx, jy), 1
    )
    worst = sup_gnorm(ap.tangent_part(t), ap.gbar0)
    if worst > tol:
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
