"""Residual functionals for structure classes and theorem-level identities.

Each classifier returns the sup, over the test frame at a point, of the
defining identity of a class; composite classes take the max over their
parts. Theorem checks are gated: when the hypotheses of a statement fail on
the given pack, :class:`HypothesisNotMet` is raised instead of reporting a
vacuous pass. Vector-valued residuals are measured in the g-norm.

Gates use the exact tolerance (default 1e-9); the report measures the
curvature steps of ``thm32_chain`` against its own curvature tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisNotMet
from .fstructure import frame_axioms, kept_per_frame
from .sampling import sup_abs, sup_gnorm

TOL_EXACT = 1e-9


@dataclass(frozen=True)
class FrameConditions:
    """Residuals of the Reeb-frame conditions of the almost S/C classes."""

    reeb_brackets: float          # [xi_i, xi_j] = 0
    reeb_flat: float              # g(D_X xi_i, xi_j) = 0
    reeb_totally_geodesic: float  # eta^k(D_{xi_i} xi_j) = 0
    q_parallel_d: float           # (D_X Q)Y = 0 for Y in D


# -- per-identity residuals ------------------------------------------------------
#
# Class, theorem-gate and submanifold checks ask for the same residuals at
# the same point; kept_per_frame computes each once per frame.


@kept_per_frame
def _nabla_f_pairs(fr, V):
    """T[k,A,B] = ((D_{V_A} f) V_B)^k."""
    return np.einsum("Ai,ikj,Bj->kAB", V, fr.nabla_f, V)


@kept_per_frame
def nearly_s_residual(fr, V):
    """(D_X f)Y + (D_Y f)X - 2 g(fX,fY) xibar - etabar(X) f^2 Y - etabar(Y) f^2 X."""
    t = _nabla_f_pairs(fr, V)
    sym = t + t.transpose(0, 2, 1)
    fV = V @ fr.f0.T
    f2V = fV @ fr.f0.T
    gff = np.einsum("Ak,kl,Bl->AB", fV, fr.g0, fV)
    eb = V @ fr.etabar
    res = (
        sym
        - 2.0 * np.einsum("AB,k->kAB", gff, fr.xibar)
        - np.einsum("A,Bk->kAB", eb, f2V)
        - np.einsum("B,Ak->kAB", eb, f2V)
    )
    return sup_gnorm(res, fr.g0)


@kept_per_frame
def nearly_c_residual(fr, V):
    """(D_X f)Y + (D_Y f)X."""
    t = _nabla_f_pairs(fr, V)
    return sup_gnorm(t + t.transpose(0, 2, 1), fr.g0)


@kept_per_frame
def s_structure_residual(fr, V):
    """(D_X f)Y - g(fX,fY) xibar - etabar(Y) f^2 X."""
    t = _nabla_f_pairs(fr, V)
    fV = V @ fr.f0.T
    f2V = fV @ fr.f0.T
    gff = np.einsum("Ak,kl,Bl->AB", fV, fr.g0, fV)
    eb = V @ fr.etabar
    res = (
        t
        - np.einsum("AB,k->kAB", gff, fr.xibar)
        - np.einsum("B,Ak->kAB", eb, f2V)
    )
    return sup_gnorm(res, fr.g0)


@kept_per_frame
def almost_s_residual(fr, V):
    """Phi = d eta^i for every i."""
    ph = np.einsum("Aa,ab,Bb->AB", V, fr.phi0, V)
    de = np.einsum("iab,Aa,Bb->iAB", fr.deta, V, V)
    return sup_abs(de - ph[None, :, :])


@kept_per_frame
def closed_eta_residual(fr, V):
    return sup_abs(np.einsum("iab,Aa,Bb->iAB", fr.deta, V, V))


@kept_per_frame
def closed_phi_residual(fr):
    tr = fr.tv
    e = tr.basis
    de = np.einsum("abc,Aa,Bb,Cc->ABC", fr.dphi, e, e, e)
    extra = np.einsum(
        "abc,ta,tb,tc->t",
        fr.dphi,
        tr.triples[:, 0],
        tr.triples[:, 1],
        tr.triples[:, 2],
    )
    return max(sup_abs(de), sup_abs(extra))


@kept_per_frame
def normality_residual(fr, V):
    return sup_gnorm(fr.n1(V), fr.g0)


def killing_residual(fr, i):
    """Sup-norm of (L_{xi_i} g) at the frame's point over its test vectors."""
    V = fr.V
    return sup_abs(np.einsum("ab,Aa,Bb->AB", fr.lie_g_xi[i], V, V))


# Each class is the conjunction of its parts: "axioms" stands for every
# defining identity, "killing" for L_{xi_i} g = 0 on each Reeb field, and
# every other part for the single residual of the same name in _RESIDUALS.
_CLASS_PARTS = {
    "weak_metric_f": ("axioms",),
    "weak_almost_C": ("deta_zero", "dphi_zero"),
    "weak_almost_S": ("phi_equals_deta",),
    "weak_almost_K": ("dphi_zero",),
    "normal": ("n1_zero",),
    "weak_C": ("deta_zero", "dphi_zero", "n1_zero"),
    "weak_S": ("phi_equals_deta", "n1_zero"),
    "weak_K": ("dphi_zero", "n1_zero"),
    "weak_nearly_S": ("nearly_s_defining",),
    "weak_nearly_C": ("nearly_c_defining",),
    "S_structure": ("s_structure_defining",),
    "f_K_contact": ("phi_equals_deta", "killing"),
}

CLASS_TAGS = tuple(_CLASS_PARTS)

_RESIDUALS = {
    "phi_equals_deta": lambda fr: almost_s_residual(fr, fr.V),
    "deta_zero": lambda fr: closed_eta_residual(fr, fr.V),
    "dphi_zero": closed_phi_residual,
    "n1_zero": lambda fr: normality_residual(fr, fr.V),
    "nearly_s_defining": lambda fr: nearly_s_residual(fr, fr.V),
    "nearly_c_defining": lambda fr: nearly_c_residual(fr, fr.V),
    "s_structure_defining": lambda fr: s_structure_residual(fr, fr.V),
}


def class_residual(pack, p, class_tag, frame):
    """(max residual, per-identity breakdown) of ``class_tag`` on ``frame``.

    Only the frame is read: ``pack`` and ``p`` are its pack and point, and
    they stay the first two parameters so that ``bench/layertrace.py`` can
    name a span after the third positional argument.
    """
    if class_tag not in _CLASS_PARTS:
        raise ValueError(f"unknown class tag {class_tag!r}")
    br = {}
    for part in _CLASS_PARTS[class_tag]:
        if part == "axioms":
            br.update(frame_axioms(frame))
        elif part == "killing":
            for i in range(frame.pack.s):
                br[f"killing_xi_{i + 1}"] = killing_residual(frame, i)
        else:
            br[part] = _RESIDUALS[part](frame)
    return max(br.values()), br


@kept_per_frame
def q_parallel_residual(fr):
    """(residual of (D_X Q)Y = 0 on Y in D, residual of the ker-f expansion).

    The second component checks (D_X Q)Y + sum_i eta^i(Y) (Q - id) D_X xi_i
    over all Y; it must hold whenever the first component holds, and both
    are reported separately.
    """
    V = fr.V
    db = fr.d_basis
    nq = fr.nabla_q
    first = sup_gnorm(np.einsum("Ai,ikj,Bj->kAB", V, nq, db), fr.g0)
    nxiV = np.einsum("ika,Aa->ikA", fr.nabla_xi, V)
    corr = np.einsum("iB,kl,ilA->kAB", fr.eta0 @ V.T, fr.qtilde, nxiV)
    full = np.einsum("Ai,ikj,Bj->kAB", V, nq, V) + corr
    second = sup_gnorm(full, fr.g0)
    return first, second


@kept_per_frame
def frame_residuals(fr):
    """Reeb-frame condition residuals at the frame's point.

    The test set for the middle condition includes the Reeb fields
    themselves, so the totally-geodesic residual is always bounded by the
    flatness residual.
    """
    V = fr.V
    s = fr.pack.s
    br = np.array(
        [
            [
                np.einsum("a,ka->k", fr.xi0[i], fr.xi1[j])
                - np.einsum("a,ka->k", fr.xi0[j], fr.xi1[i])
                for j in range(s)
            ]
            for i in range(s)
        ]
    )
    reeb_brackets = sup_gnorm(np.einsum("ijk->kij", br), fr.g0)
    nxiV = np.einsum("ika,Aa->ikA", fr.nabla_xi, V)
    flat = np.einsum("ikA,kl,jl->ijA", nxiV, fr.g0, fr.xi0)
    reeb_flat = sup_abs(flat)
    nxx = np.einsum("jka,ia->ijk", fr.nabla_xi, fr.xi0)
    reeb_tg = sup_abs(np.einsum("lk,ijk->ijl", fr.eta0, nxx))
    qpar, _ = q_parallel_residual(fr)
    return FrameConditions(
        reeb_brackets=reeb_brackets,
        reeb_flat=reeb_flat,
        reeb_totally_geodesic=reeb_tg,
        q_parallel_d=qpar,
    )


# -- gated theorem checks ---------------------------------------------------------


def _gate(check, name, residual, tol):
    if residual > tol:
        raise HypothesisNotMet(check, name, residual)


def _nearly_class_gate(fr, check, tol):
    """Require the pack to be weak nearly S or weak nearly C."""
    rs = nearly_s_residual(fr, fr.V)
    if rs <= tol:
        return "weak_nearly_S"
    rc = nearly_c_residual(fr, fr.V)
    if rc <= tol:
        return "weak_nearly_C"
    if rs <= rc:
        raise HypothesisNotMet(check, "weak_nearly_S", rs)
    raise HypothesisNotMet(check, "weak_nearly_C", rc)


def _frame_gates(fr, check, tol):
    fc = frame_residuals(fr)
    _gate(check, "reeb_brackets", fc.reeb_brackets, tol)
    _gate(check, "reeb_totally_geodesic", fc.reeb_totally_geodesic, tol)
    _gate(check, "reeb_flat", fc.reeb_flat, tol)
    _gate(check, "q_parallel_d", fc.q_parallel_d, tol)
    return fc


def theorem_check(pack, p, which, frame, tol_exact=TOL_EXACT):
    """Named residual map of one theorem-level identity bundle on ``frame``.

    Raises :class:`HypothesisNotMet` when the statement's gates fail, naming
    the failing gate and its residual; every statement presupposes a valid
    weak metric f-structure, so the axiom bundle is always the first gate.
    ``thm32_chain`` also returns the residual of the chain step that is only
    valid under the nearly-C hypothesis; on packs failing that hypothesis
    the entry is expected to be large and is reported for diagnosis, never
    asserted.

    Only the frame is read: ``pack`` and ``p`` are its pack and point, and
    they stay the first two parameters so that ``bench/layertrace.py`` can
    name a span after the third positional argument.
    """
    check = _THEOREMS.get(which)
    if check is None:
        raise ValueError(f"unknown theorem check {which!r}")
    _gate(which, "weak_metric_f_axioms", max(frame_axioms(frame).values()),
          tol_exact)
    return check(frame, tol_exact)


def _prop1(fr, tol):
    _nearly_class_gate(fr, "prop1", tol)
    _frame_gates(fr, "prop1", tol)
    nxx = np.einsum("jka,ia->ijk", fr.nabla_xi, fr.xi0)
    res = {
        "reeb_parallel_pairs": sup_gnorm(np.einsum("ijk->kij", nxx), fr.g0)
    }
    ne = np.einsum("jab,ia->ijb", fr.nabla_eta, fr.xi0)
    dual = np.einsum("ijb,bc,ijc->ij", ne, fr.ginv, ne)
    res["reeb_coparallel"] = float(np.sqrt(max(dual.max(), 0.0)))
    res["reeb_killing"] = max(
        killing_residual(fr, i) for i in range(fr.pack.s)
    )
    return res


def _prop_normal(fr, tol):
    """Consequences of normality, reported on packs with N1 = 0."""
    _gate("prop_normal", "normality", normality_residual(fr, fr.V), tol)
    V = fr.V
    res = {}
    res["lie_xi_f"] = sup_gnorm(np.einsum("iab,Ab->aiA", fr.n3(), V), fr.g0)
    res["deta_xi_contraction"] = sup_abs(fr.n4(V))
    # d eta^i(fX, Y) - d eta^i(fY, X) = (1/2) eta^i([(Q - id)X, fY])
    fV = V @ fr.f0.T
    qtV = V @ fr.qtilde.T
    lhs = np.einsum("iab,Aa,Bb->iAB", fr.deta, fV, V) - np.einsum(
        "iab,Ba,Ab->iAB", fr.deta, fV, V
    )
    b = np.einsum("Aa,kba,Bb->kAB", qtV, fr.f1, V) - np.einsum(
        "Ba,kca,Ac->kAB", fV, fr.q1, V
    )
    rhs = 0.5 * np.einsum("ik,kAB->iAB", fr.eta0, b)
    res["deta_f_swap"] = sup_abs(lhs - rhs)
    nxx = np.einsum("jka,ia->ijk", fr.nabla_xi, fr.xi0)
    res["reeb_derivatives_in_d"] = sup_abs(
        np.einsum("lk,ijk->ijl", fr.eta0, nxx)
    )
    db = fr.d_basis
    brk = np.einsum("Aa,ika->ikA", db, fr.xi1)  # [X, xi_i], X constant in D
    res["d_brackets_stay_in_d"] = sup_abs(
        np.einsum("jk,ikA->ijA", fr.eta0, brk)
    )
    res["reeb_symmetric_geodesic"] = sup_gnorm(
        np.einsum("ijk->kij", nxx + nxx.transpose(1, 0, 2)), fr.g0
    )
    return res


def _fk_gate(fr, check, tol):
    _gate(check, "phi_equals_deta", almost_s_residual(fr, fr.V), tol)
    kil = max(killing_residual(fr, i) for i in range(fr.pack.s))
    _gate(check, "killing_reeb", kil, tol)


def _fk_contact_nabla(fr, tol):
    _fk_gate(fr, "fk_contact_nabla", tol)
    res = np.einsum("ika,Aa->ikA", fr.nabla_xi, fr.V) + np.einsum(
        "kj,Aj->kA", fr.f0, fr.V
    )[None, :, :]
    return {"nabla_xi_plus_f": sup_gnorm(np.einsum("ikA->kiA", res), fr.g0)}


def _thm32_chain(fr, tol):
    """Identity chain for the Reeb-sectional curvature of f-K-contact packs.

    For unit X in the contact distribution and each Reeb direction xi:

      connection step:  g(R(xi, X) xi, X) = g(-(D_xi f)X + f^2 X, X)
      nearly-C step:    g(-(D_xi f)X + f^2 X, X)
                        = g((D_X f)xi, X) - g(fX, fX)   [uses nearly-C]
      algebra step:     g((D_X f)xi, X) - g(fX, fX) = 2 g(f^2 X, X)
      sign:             g(f^2 X, X) <= 0

    The connection and algebra steps follow from D xi = -f and f xi = 0
    alone and must hold on any f-K-contact pack; the nearly-C step is the
    one that breaks when the pack is not weak nearly C.
    """
    _fk_gate(fr, "thm32_chain", tol)
    xs = np.vstack([fr.d_basis, fr.random_d_units(4)])
    riem = fr.riemann
    out = {
        "chain_connection_step": 0.0,
        "chain_nearly_c_step": 0.0,
        "chain_algebra_step": 0.0,
        "f2_nonpositive": 0.0,
        "chain_total": 0.0,
    }
    for i in range(fr.pack.s):
        xi = fr.xi0[i]
        nf_xi = np.einsum("a,akj->kj", xi, fr.nabla_f)
        for x in xs:
            lhs = float(
                np.einsum("lijk,i,j,k->l", riem, xi, x, xi) @ fr.g0 @ x
            )
            f2x = fr.f0 @ (fr.f0 @ x)
            mid1 = float((-(nf_xi @ x) + f2x) @ fr.g0 @ x)
            nf_x_xi = np.einsum("a,akj,j->k", x, fr.nabla_f, xi)
            fx = fr.f0 @ x
            mid2 = float(nf_x_xi @ fr.g0 @ x - fx @ fr.g0 @ fx)
            final = float(2.0 * (f2x @ fr.g0 @ x))
            out["chain_connection_step"] = max(
                out["chain_connection_step"], abs(lhs - mid1)
            )
            out["chain_nearly_c_step"] = max(
                out["chain_nearly_c_step"], abs(mid1 - mid2)
            )
            out["chain_algebra_step"] = max(
                out["chain_algebra_step"], abs(mid2 - final)
            )
            out["f2_nonpositive"] = max(
                out["f2_nonpositive"], float(f2x @ fr.g0 @ x)
            )
            out["chain_total"] = max(out["chain_total"], abs(lhs - final))
    out["f2_nonpositive"] = max(0.0, out["f2_nonpositive"])
    return out


def _thm41(fr, tol):
    _gate("thm41", "weak_nearly_C", nearly_c_residual(fr, fr.V), tol)
    V = fr.V
    db = fr.d_basis
    res = {}
    nxiV = np.einsum("ika,Aa->ikA", fr.nabla_xi, V)
    res["nabla_xi_zero"] = sup_gnorm(np.einsum("ikA->kiA", nxiV), fr.g0)
    de_d = np.einsum("iab,Aa,Bb->iAB", fr.deta, db, db)
    res["deta_on_d"] = sup_abs(de_d)
    conn = np.einsum("ika,Aa,kl,Bl->iAB", fr.nabla_xi, db, fr.g0, db)
    res["coboundary_vs_connection"] = sup_abs(
        2.0 * de_d - (conn - conn.transpose(0, 2, 1))
    )
    nxiD = np.einsum("ika,Aa->ikA", fr.nabla_xi, db)
    res["d_totally_geodesic"] = sup_abs(
        np.einsum("Bk,kl,ilA->iAB", db, fr.g0, nxiD)
    )
    return res


def _thm01_gates(fr, check, tol):
    _gate(check, "weak_nearly_S", nearly_s_residual(fr, fr.V), tol)
    _frame_gates(fr, check, tol)


def _thm01_i(fr, tol):
    _thm01_gates(fr, "thm01_i", tol)
    V = fr.V
    n1 = fr.n1(V)
    eta_n1 = np.einsum("ia,aAB->iAB", fr.eta0, n1)
    _gate("thm01_i", "eta_circ_n1", sup_abs(eta_n1), tol)
    de = np.einsum("iab,Aa,Bb->iAB", fr.deta, V, V)
    qV = V @ fr.q0.T
    phq = np.einsum("Aa,ab,Bb->AB", qV, fr.phi0, V)
    res = {"deta_equals_phi_q": sup_abs(de - phq[None, :, :])}
    # proof-internal: eta^j(N1(X,Y)) - 2 d eta^j(X,Y) = eta^j([f,f](X,Y))
    ff = fr.nijenhuis_ff(V)
    eta_ff = np.einsum("ia,aAB->iAB", fr.eta0, ff)
    res["eta_n1_expansion"] = sup_abs(eta_n1 - 2.0 * de - eta_ff)
    # and its reduction through the nearly-S identity:
    # eta^j([f,f](X,Y)) = 2 d eta^j(X,Y) - 4 g(QX, fY)
    gqf = np.einsum("Aa,ab,Bb->AB", qV, fr.g0 @ fr.f0, V)
    res["eta_ff_reduction"] = sup_abs(
        eta_ff - 2.0 * de + 4.0 * gqf[None, :, :]
    )
    return res


def _thm01_ii(fr, tol):
    _thm01_gates(fr, "thm01_ii", tol)
    V = fr.V
    _gate("thm01_ii", "phi_equals_deta", almost_s_residual(fr, V), tol)
    n1 = fr.n1(V)
    qtV = V @ fr.qtilde.T
    phqt = np.einsum("Aa,ab,Bb->AB", qtV, fr.phi0, V)
    rhs = 2.0 * np.einsum("AB,k->kAB", phqt, fr.xibar)
    res = {"n1_equals_qtilde_phi": sup_gnorm(n1 - rhs, fr.g0)}
    # proof-internal: 3 dPhi(X,Y,Z) + 3 g((D_X f)Y, Z)
    #                 + 3 g(f^2 X, Y) etabar(Z) - 3 g(f^2 X, Z) etabar(Y) = 0
    e = fr.tv.basis
    nf = _nabla_f_pairs(fr, e)
    g_nf = np.einsum("kAB,kl,Cl->ABC", nf, fr.g0, e)
    f2e = (e @ fr.f0.T) @ fr.f0.T
    gf2 = np.einsum("Ak,kl,Bl->AB", f2e, fr.g0, e)
    ebar = e @ fr.etabar
    dphi = np.einsum("abc,Aa,Bb,Cc->ABC", fr.dphi, e, e, e)
    expr = (
        3.0 * dphi
        + 3.0 * g_nf
        + 3.0 * np.einsum("AB,C->ABC", gf2, ebar)
        - 3.0 * np.einsum("AC,B->ABC", gf2, ebar)
    )
    res["dphi_nabla_f_expansion"] = sup_abs(expr)
    return res


def _corollary_rigidity(fr, tol):
    _gate("corollary_rigidity", "weak_nearly_S", nearly_s_residual(fr, fr.V), tol)
    _gate("corollary_rigidity", "normal", normality_residual(fr, fr.V), tol)
    qt = sup_gnorm(np.einsum("ka,Aa->kA", fr.qtilde, fr.V), fr.g0)
    _gate("corollary_rigidity", "Q_equals_id", qt, tol)
    return {"s_structure_defining": s_structure_residual(fr, fr.V)}


# Theorem bundles in report order: name -> (frame, tol) -> residuals.
_THEOREMS = {
    "prop1": _prop1,
    "prop_normal": _prop_normal,
    "fk_contact_nabla": _fk_contact_nabla,
    "thm32_chain": _thm32_chain,
    "thm41": _thm41,
    "thm01_i": _thm01_i,
    "thm01_ii": _thm01_ii,
    "corollary_rigidity": _corollary_rigidity,
}

THEOREM_CHECKS = tuple(_THEOREMS)
