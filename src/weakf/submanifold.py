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

import numpy as np

from . import calculus
from .charts import SmoothField
from .classifiers import (
    nearly_c_residual,
    nearly_s_residual,
    q_parallel_residual,
)
from .errors import HypothesisNotMet, SetupRejected
from .fstructure import PackFrame, StructurePack
from .jets import dot, lift, mat_inv, mat_mul, mat_vec, parts, value_of
from .sampling import orthonormal_basis, sup_abs

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


@dataclass
class SecondFundamentalData:
    """Pointwise second-fundamental-form evaluators at one domain point."""

    h: object        # h(X, Y) -> ambient normal vector
    A: list          # A[i]: (m, m) shape operator matrices, domain indices
    hN: object       # hN(i, X, Y) -> float


class _AmbientPoint:
    """Floating-point ambient data of the embedding at one domain point."""

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
            self.gbar0, self.gbar1, self.iota
        )
        self.fbar0, self.fbar1 = sub.ambient_skew.jet(self.iota, order=1)
        self.g0 = self.jac.T @ self.gbar0 @ self.jac

    def to_domain(self, v):
        """Coordinates of a tangent ambient vector in the embedded basis."""
        return np.linalg.solve(self.g0, self.jac.T @ (self.gbar0 @ v))

    def normal_part(self, v):
        coef = np.einsum("ia,ab,b->i", self.normals, self.gbar0, v)
        return coef @ self.normals

    def tangent_part(self, v):
        return v - self.normal_part(v)

    def push(self, x):
        return self.jac @ np.asarray(x, dtype=float)

    def ambient_derivative(self, x, y):
        """Ambient covariant derivative along X of the pushed constant field Y."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        flat = np.einsum("cab,a,b->c", self.hess, x, y)
        conn = np.einsum("cab,a,b->c", self.gammabar, self.push(x), self.push(y))
        return flat + conn

    def ambient_derivative_pairs(self, v):
        """dxy[c, A, B] for all rows of ``v`` at once."""
        vj = v @ self.jac.T
        return np.einsum("cab,Aa,Bb->cAB", self.hess, v, v) + np.einsum(
            "cab,Aa,Bb->cAB", self.gammabar, vj, vj
        )

    def normal_derivative(self, i, x):
        """Ambient covariant derivative of N_i along the tangent direction X."""
        x = np.asarray(x, dtype=float)
        flat = self.dnormals[i] @ x
        conn = np.einsum("cab,a,b->c", self.gammabar, self.push(x), self.normals[i])
        return flat + conn

    def nabla_fbar(self):
        """nf[be, al, ga] = ((ambient D_{e_be}) fbar)^al_ga at the image."""
        return calculus.nabla_tensor11_kernel(
            self.gammabar, self.fbar0, self.fbar1
        )


def frame_check(sub, p):
    """Residuals of the normal-frame requirements at ``p``.

    Keys: orthonormality of the normals, orthogonality to the image, the
    skew-pairing condition gbar(fbar N_i, N_j) = 0, tangency of fbar N_i,
    skewness of fbar at the image, and the negative-definiteness margin of
    fbar^2.
    """
    ap = _AmbientPoint(sub, p)
    res = {}
    gram = np.einsum("ia,ab,jb->ij", ap.normals, ap.gbar0, ap.normals)
    res["normals_orthonormal"] = sup_abs(gram - np.eye(sub.s))
    res["normals_perp_image"] = sup_abs(
        np.einsum("ia,ab,bk->ik", ap.normals, ap.gbar0, ap.jac)
    )
    fn = ap.normals @ ap.fbar0.T
    res["skew_normal_pairs"] = sup_abs(
        np.einsum("ia,ab,jb->ij", fn, ap.gbar0, ap.normals)
    )
    res["xi_tangent"] = max(
        float(np.linalg.norm(ap.normal_part(fn[i]))) for i in range(sub.s)
    )
    gf = ap.gbar0 @ ap.fbar0
    eb = orthonormal_basis(ap.gbar0)
    res["ambient_skew"] = sup_abs(np.einsum("Aa,ab,Bb->AB", eb, gf + gf.T, eb))
    f2 = ap.fbar0 @ ap.fbar0
    f2_mat = np.einsum("ak,kl,bl->ab", eb, ap.gbar0, (f2 @ eb.T).T)
    res["fbar_sq_negative"] = max(
        0.0, float(np.linalg.eigvalsh(0.5 * (f2_mat + f2_mat.T)).max())
    )
    return res


def require_valid_frame(sub, p):
    res = frame_check(sub, p)
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


def _generic_ambient(sub, coords, need):
    """Shared generic-scalar evaluation for induced component functions.

    ``need`` selects the requested pieces; entries may be floats or jets of
    any level and the result stays at the caller's level.
    """
    m = sub.domain.dim
    d = sub.ambient.dim
    out = {}
    inner = lift(list(coords), order=1)
    amb = sub.embedding(inner)
    lvl = inner[0].level
    vals, jac = [], []
    for a in amb:
        v, g, _ = parts(a, m, order=1, level=lvl)
        vals.append(v)
        jac.append(g)
    out["vals"] = vals
    out["jac"] = jac
    gbar = sub.ambient_metric.fn(vals)
    out["gbar"] = gbar
    if need & {"fbar", "eta", "xi", "f", "q"}:
        fbar = sub.ambient_skew.fn(vals)
        out["fbar"] = fbar
    # lowered frame vectors: gj[a] = gbar . (J e_a)
    gj = [mat_vec(gbar, [jac[al][a] for al in range(d)]) for a in range(m)]
    out["g"] = [
        [dot([jac[al][b] for al in range(d)], gj[a]) for b in range(m)]
        for a in range(m)
    ]
    if need & {"eta", "xi"}:
        normals = sub.normals(list(coords))
        fn = [mat_vec(out["fbar"], nrm) for nrm in normals]
        out["eta"] = [
            [dot(fn[i], gj[a]) for a in range(m)] for i in range(sub.s)
        ]
    if need & {"xi", "f", "q"}:
        out["ginv"] = mat_inv(out["g"])
    return out


def induce_structure(sub, validate=True):
    """Pull the ambient structure back to a weak metric f-structure pack.

    With ``validate`` the normal frame is checked at one interior point and
    the setup rejected on violation; the full residual suite is the real
    verdict.
    """
    if validate:
        mid = np.array([0.5 * (lo + hi) for lo, hi in sub.domain.box])
        require_valid_frame(sub, mid)

    m = sub.domain.dim
    d = sub.ambient.dim
    s = sub.s

    def metric_fn(coords):
        return _generic_ambient(sub, coords, {"g"})["g"]

    def eta_fn(i):
        def fn(coords, i=i):
            return _generic_ambient(sub, coords, {"eta"})["eta"][i]
        return fn

    def xi_fn(i):
        def fn(coords, i=i):
            data = _generic_ambient(sub, coords, {"xi"})
            return mat_vec(data["ginv"], data["eta"][i])
        return fn

    def f_fn(coords):
        data = _generic_ambient(sub, coords, {"f"})
        jac, gbar, fbar = data["jac"], data["gbar"], data["fbar"]
        cols = [[jac[al][b] for al in range(d)] for b in range(m)]
        fcols = [mat_vec(fbar, col) for col in cols]
        gcols = [mat_vec(gbar, col) for col in cols]
        low = [[dot(gcols[c], fcols[b]) for b in range(m)] for c in range(m)]
        return mat_mul(data["ginv"], low)

    def q_fn(coords):
        data = _generic_ambient(sub, coords, {"q"})
        jac, gbar, fbar = data["jac"], data["gbar"], data["fbar"]
        cols = [[jac[al][b] for al in range(d)] for b in range(m)]
        f2cols = [mat_vec(fbar, mat_vec(fbar, col)) for col in cols]
        gcols = [mat_vec(gbar, col) for col in cols]
        low = [[-dot(gcols[c], f2cols[b]) for b in range(m)] for c in range(m)]
        return mat_mul(data["ginv"], low)

    dom = sub.domain
    return StructurePack(
        chart=dom,
        f=SmoothField(dom, "tensor11", f_fn, name="induced_f"),
        Q=SmoothField(dom, "tensor11", q_fn, name="induced_Q"),
        xi=tuple(
            SmoothField(dom, "vector", xi_fn(i), name=f"induced_xi_{i + 1}")
            for i in range(s)
        ),
        eta=tuple(
            SmoothField(dom, "oneform", eta_fn(i), name=f"induced_eta_{i + 1}")
            for i in range(s)
        ),
        g=SmoothField(dom, "metric", metric_fn, name="induced_metric"),
        n=sub.n,
        s=sub.s,
    )


# -- second fundamental form ------------------------------------------------------


def second_fundamental_data(sub, p):
    """Shape data at ``p`` packaged as evaluators, plus the ambient cache."""
    ap = _AmbientPoint(sub, p)
    m = sub.domain.dim

    def h(x, y):
        return ap.normal_part(ap.ambient_derivative(x, y))

    a_mats = []
    for i in range(sub.s):
        cols = [
            ap.to_domain(ap.tangent_part(-ap.normal_derivative(i, e)))
            for e in np.eye(m)
        ]
        a_mats.append(np.array(cols).T)

    def h_n(i, x, y):
        return float(ap.normals[i] @ ap.gbar0 @ ap.ambient_derivative(x, y))

    return SecondFundamentalData(h=h, A=a_mats, hN=h_n), ap


def h_matrix(ap, v):
    """hN over all test pairs: hmat[i, A, B] = gbar(h(V_A, V_B), N_i)."""
    dxy = ap.ambient_derivative_pairs(v)
    return np.einsum("ia,ab,bAB->iAB", ap.normals, ap.gbar0, dxy)


def gauss_split_residual(sub, p, induced, frame=None):
    """Exactness of the split ambient D = dI(induced D) + h over the frame."""
    ap = _AmbientPoint(sub, p)
    fr = frame or PackFrame(induced, p)
    gamma = fr.gamma
    m = sub.domain.dim
    e = np.eye(m)
    worst = 0.0
    for a in range(m):
        for b in range(m):
            full = ap.ambient_derivative(e[a], e[b])
            r = full - ap.push(gamma[:, a, b]) - ap.normal_part(full)
            worst = max(worst, float(np.sqrt(r @ ap.gbar0 @ r)))
    return worst


# -- theorem-level machinery -------------------------------------------------------


def ambient_nearly_kahler_residual(ap):
    """Sup of (D_X fbar)Y + (D_Y fbar)X over an ambient frame at the image."""
    nf = ap.nabla_fbar()
    eb = orthonormal_basis(ap.gbar0)
    t = np.einsum("Ab,bag,Cg->aAC", eb, nf, eb)
    sym = t + t.transpose(0, 2, 1)
    q = np.einsum("aAC,ab,bAC->AC", sym, ap.gbar0, sym)
    return float(np.sqrt(max(q.max(), 0.0)))


def thsubm_check(sub, p, case, induced=None, frame=None, tol_exact=1e-9):
    """Hypotheses and conclusion of the induced nearly-S/C criterion.

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
    if induced is None:
        induced = induce_structure(sub, validate=False)
    sfd, ap = second_fundamental_data(sub, p)
    gate = ambient_nearly_kahler_residual(ap)
    if gate > tol_exact:
        raise HypothesisNotMet("thsubm", "ambient_weak_nearly_kahler", gate)
    fr = frame or PackFrame(induced, p)
    m = sub.domain.dim
    s = sub.s
    g0, xi0, eta0, f0 = fr.g0, fr.xi0, fr.eta0, fr.f0
    V = fr.V

    hxx = np.array(
        [
            [[sfd.hN(i, xi0[j], xi0[k]) for k in range(s)] for j in range(s)]
            for i in range(s)
        ]
    )
    res = {"aa_symmetry": sup_abs(hxx - hxx.transpose(1, 0, 2))}

    hmat = h_matrix(ap, V)
    etaV = eta0 @ V.T
    if case == "i":
        f2V = (V @ f0.T) @ f0.T
        base = -np.einsum("Ak,kl,Bl->AB", f2V, g0, V)
        disp = base[None, :, :] + np.einsum("ijk,jA,kB->iAB", hxx, etaV, etaV)
    else:
        disp = np.einsum("ijk,jA,kB->iAB", hxx, etaV, etaV)
    res["h_display"] = sup_abs(hmat - disp)

    if case == "i":
        f2 = f0 @ f0
        a_disp = [
            -f2 + np.einsum("jk,ka,jb->ab", hxx[i], xi0, eta0)
            for i in range(s)
        ]
    else:
        a_disp = [
            np.einsum("jk,ka,jb->ab", hxx[i], xi0, eta0) for i in range(s)
        ]
    dual = np.array(
        [
            np.einsum("Aa,ab,Bb->AB", V @ a_disp[i].T, g0, V) - disp[i]
            for i in range(s)
        ]
    )
    res["shape_display_duality"] = sup_abs(dual)

    wd = np.array(
        [
            np.einsum("Aa,ab,Bb->AB", V @ sfd.A[i].T, g0, V) - hmat[i]
            for i in range(s)
        ]
    )
    res["weingarten_duality"] = sup_abs(wd)
    res["h_symmetric"] = sup_abs(hmat - hmat.transpose(0, 2, 1))

    # tangential part of the ambient identity against the induced sum
    nf = ap.nabla_fbar()
    nfd = fr.nabla_f
    e = np.eye(m)
    worst = 0.0
    for a in range(m):
        for b in range(m):
            x, y = e[a], e[b]
            jx, jy = ap.push(x), ap.push(y)
            lhs = np.einsum("b,bag,g->a", jx, nf, jy) + np.einsum(
                "b,bag,g->a", jy, nf, jx
            )
            lhs_t = ap.tangent_part(lhs)
            dom = np.einsum("i,ikj,j->k", x, nfd, y) + np.einsum(
                "i,ikj,j->k", y, nfd, x
            )
            for i in range(s):
                dom = dom + float(eta0[i] @ x) * (sfd.A[i] @ y)
                dom = dom + float(eta0[i] @ y) * (sfd.A[i] @ x)
                dom = dom - 2.0 * sfd.hN(i, x, y) * xi0[i]
            r = lhs_t - ap.push(dom)
            worst = max(worst, float(np.sqrt(r @ ap.gbar0 @ r)))
    res["tangential_expansion"] = worst

    if case == "i":
        res["conclusion_weak_nearly_S"] = nearly_s_residual(fr, V)
    else:
        res["conclusion_weak_nearly_C"] = nearly_c_residual(fr, V)
    return res


def lemma_parallel_claim(sub, p, induced=None, frame=None, tol=1e-9):
    """Gated check: the parallel-Q condition holds on the induced pack.

    Hypotheses: fbar^2 N_i is normal to the image, and the tangential part
    of (ambient D_X fbar^2) Y vanishes for Y in the contact distribution.
    Conclusion: the induced pack satisfies (D_X Q)Y = 0 for Y in D.
    """
    ap = _AmbientPoint(sub, p)
    f2n = ap.normals @ (ap.fbar0 @ ap.fbar0).T
    hyp1 = max(
        float(np.linalg.norm(ap.tangent_part(f2n[i]))) for i in range(sub.s)
    )
    if hyp1 > tol:
        raise HypothesisNotMet(
            "lemma_parallel_q", "fbar_sq_normal_is_normal", hyp1
        )
    if induced is None:
        induced = induce_structure(sub, validate=False)
    fr = frame or PackFrame(induced, p)
    nf = ap.nabla_fbar()
    worst = 0.0
    for x in np.eye(sub.domain.dim):
        jx = ap.push(x)
        for y in fr.d_basis:
            jy = ap.push(y)
            t = np.einsum("b,bag,g->a", jx, nf, ap.fbar0 @ jy)
            t = t + ap.fbar0 @ np.einsum("b,bag,g->a", jx, nf, jy)
            r = ap.tangent_part(t)
            worst = max(worst, float(np.sqrt(r @ ap.gbar0 @ r)))
    if worst > tol:
        raise HypothesisNotMet(
            "lemma_parallel_q", "tangential_nabla_fbar_sq", worst
        )
    first, second = q_parallel_residual(induced, p, frame=fr)
    return {
        "fbar_sq_normal_is_normal": hyp1,
        "tangential_nabla_fbar_sq": worst,
        "q_parallel_d": first,
        "q_parallel_expansion": second,
    }
