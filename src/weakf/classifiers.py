"""Residual functionals for structure classes and theorem-level identities.

Each class part is the sup, over the test frame at a point, of a defining
identity; a class takes the max over its parts. The parts and the Reeb-frame
conditions are stacked over a chunk of points, and the per-frame functions
here read the frame's row. Theorem checks are per point and gated: when the
hypotheses of a statement fail on the given pack (or read NaN),
:class:`HypothesisNotMet` is raised instead of reporting a vacuous pass.
Vector-valued residuals are measured in the g-norm: each is lowered by the
frame's Cholesky factor u of g0 and reduced by
:func:`~weakf.sampling.sup_norm`.

Gates use the exact tolerance (default 1e-9); the report measures the
curvature steps of ``thm32_chain`` against its own curvature tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import HypothesisNotMet
from .sampling import lead_dot, pair_form, sup_abs, sup_norm, worst

TOL_EXACT = 1e-9


@dataclass(frozen=True)
class FrameConditions:
    """Residuals of the Reeb-frame conditions of the almost S/C classes."""

    reeb_brackets: float          # [xi_i, xi_j] = 0
    reeb_flat: float              # g(D_X xi_i, xi_j) = 0
    reeb_totally_geodesic: float  # eta^k(D_{xi_i} xi_j) = 0
    q_parallel_d: float           # (D_X Q)Y = 0 for Y in D


# -- class parts and frame conditions ---------------------------------------------
#
# Each is a row over a chunk of points, an attribute of its stack (see
# weakf.fstructure._FrameStack); a frame reads its point's entry.


def nearly_s_residual(fr):
    """(D_X f)Y + (D_Y f)X - 2 g(fX,fY) xibar - etabar(X) f^2 Y - etabar(Y) f^2 X."""
    return float(fr.stacked("nearly_s_defining"))


def nearly_c_residual(fr):
    """(D_X f)Y + (D_Y f)X."""
    return float(fr.stacked("nearly_c_defining"))


def s_structure_residual(fr):
    """(D_X f)Y - g(fX,fY) xibar - etabar(Y) f^2 X."""
    return float(fr.stacked("s_structure_defining"))


def almost_s_residual(fr):
    """Phi = d eta^i for every i."""
    return float(fr.stacked("phi_equals_deta"))


def closed_eta_residual(fr):
    return float(fr.stacked("deta_zero"))


def closed_phi_residual(fr):
    return float(fr.stacked("dphi_zero"))


def normality_residual(fr):
    """N1(X, Y) = [f,f](X,Y) + 2 sum_i deta^i(X,Y) xi_i."""
    return float(fr.stacked("n1_zero"))


def killing_residuals(fr):
    """Sup-norm of (L_{xi_i} g) over the test vectors, for each Reeb field."""
    return fr.stacked("killing").tolist()


# Each class is the conjunction of its parts: "axioms" stands for every
# defining identity, "killing" for L_{xi_i} g = 0 on each Reeb field, and
# every other part for the stacked residual of the same name.
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


def class_parts(read, class_tag):
    """{part: residual} of ``class_tag``, each part read as ``read(name)``:
    a chunk's rows from its stack (``getattr`` of it), or the values of one
    frame's point (``frame.stacked``)."""
    br = {}
    for part in _CLASS_PARTS[class_tag]:
        if part == "axioms":
            br.update(read("axioms"))
        elif part == "killing":
            for i, r in enumerate(np.transpose(read("killing"))):
                br[f"killing_xi_{i + 1}"] = r
        else:
            br[part] = read(part)
    return br


def class_rows(stack, class_tag):
    """The residual of ``class_tag`` at each point of a chunk's stack: the
    largest of its parts, NaN where any part is NaN."""
    return np.maximum.reduce(list(class_parts(
        partial(getattr, stack), class_tag).values()))


def class_residual(pack, p, class_tag, frame):
    """(max residual, per-identity breakdown) of ``class_tag`` on ``frame``.

    Only the frame is read: ``pack`` and ``p`` are its pack and point, and
    they stay the first two parameters so that ``bench/layertrace.py`` can
    name a span after the third positional argument.
    """
    if class_tag not in _CLASS_PARTS:
        raise ValueError(f"unknown class tag {class_tag!r}")
    br = {k: float(v) for k, v in class_parts(frame.stacked, class_tag).items()}
    return worst(br.values()), br


def q_parallel_residual(fr):
    """(residual of (D_X Q)Y = 0 on Y in D, residual of the ker-f expansion).

    The second component checks (D_X Q)Y + sum_i eta^i(Y) (Q - id) D_X xi_i
    over all Y; it must hold whenever the first component holds, and both
    are reported separately.
    """
    return (float(fr.stacked("q_parallel_d")),
            float(fr.stacked("q_parallel_expansion")))


def frame_residuals(fr):
    """Reeb-frame condition residuals at the frame's point.

    The test set for the middle condition includes the Reeb fields
    themselves, so the totally-geodesic residual is always bounded by the
    flatness residual.
    """
    return FrameConditions(**{f.name: float(fr.stacked(f.name))
                              for f in fields(FrameConditions)})


# -- gated theorem checks ---------------------------------------------------------


def _gate(check, name, residual, tol):
    """Raise unless ``residual <= tol``: a NaN residual does not pass."""
    if not residual <= tol:
        raise HypothesisNotMet(check, name, residual)


def _nearly_class_gate(fr, check, tol):
    """Require the pack to be weak nearly S or weak nearly C."""
    rs = nearly_s_residual(fr)
    if rs <= tol:
        return "weak_nearly_S"
    rc = nearly_c_residual(fr)
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
    _gate(which, "weak_metric_f_axioms", float(frame.stacked("worst_axiom")),
          tol_exact)
    return check(frame, tol_exact)


def _prop1(fr, tol):
    _nearly_class_gate(fr, "prop1", tol)
    _frame_gates(fr, "prop1", tol)
    res = {
        "reeb_parallel_pairs": sup_norm(
            lead_dot(fr.u, fr.nabla_xi_xi.transpose(2, 0, 1)))
    }
    ne = np.einsum("jab,ia->ijb", fr.nabla_eta, fr.xi0)
    dual = ((ne @ fr.ginv) * ne).sum(-1)
    res["reeb_coparallel"] = float(np.sqrt(np.maximum(dual.max(), 0.0)))
    res["reeb_killing"] = worst(killing_residuals(fr))
    return res


def _prop_normal(fr, tol):
    """Consequences of normality, reported on packs with N1 = 0."""
    _gate("prop_normal", "normality", normality_residual(fr), tol)
    V = fr.V
    res = {}
    res["lie_xi_f"] = sup_norm(pair_form(fr.n3(), fr.u, V).transpose(1, 0, 2))
    res["deta_xi_contraction"] = sup_abs(fr.n4())
    # d eta^i(fX, Y) - d eta^i(fY, X) = (1/2) eta^i([(Q - id)X, fY]), where
    # [(Q - id)X, fY] = ((Q - id)X)^a d_a (fY) - (fY)^a d_a (Q X)
    b = (fr.f1 @ fr.qtilde).transpose(0, 2, 1) - fr.q1 @ fr.f0
    res["deta_f_swap"] = sup_abs(
        pair_form(0.5 * (fr.n2_coeff - lead_dot(fr.eta0, b)), V, V))
    nxx = fr.nabla_xi_xi
    res["reeb_derivatives_in_d"] = sup_abs(nxx @ fr.eta0.T)
    # eta^j([X, xi_i]) for X in D, extended as the section
    # X - sum_k eta^k(X) xi_k of D: for X constant in the chart,
    # eta^j([X, xi_i]) = eta^j(X^a d_a xi_i), and the extension adds
    # sum_k eta^j(xi_k) xi_i(eta^k(X))
    db = fr.d_basis
    brk = np.einsum("Aa,ika->ikA", db, fr.xi1)
    xi_eta_x = pair_form(fr.eta1, db, fr.xi0)  # [k, A, i] = xi_i(eta^k(X_A))
    ext = lead_dot(fr.eta0 @ fr.xi0.T, xi_eta_x).transpose(2, 0, 1)
    res["d_brackets_stay_in_d"] = sup_abs(
        np.einsum("jk,ikA->ijA", fr.eta0, brk) + ext
    )
    res["reeb_symmetric_geodesic"] = sup_norm(
        lead_dot(fr.u, (nxx + nxx.transpose(1, 0, 2)).transpose(2, 0, 1)))
    return res


def _fk_gate(fr, check, tol):
    _gate(check, "phi_equals_deta", almost_s_residual(fr), tol)
    _gate(check, "killing_reeb", worst(killing_residuals(fr)), tol)


def _fk_contact_nabla(fr, tol):
    _fk_gate(fr, "fk_contact_nabla", tol)
    res = pair_form(fr.nabla_xi + fr.f0, fr.u, fr.V)
    return {"nabla_xi_plus_f": sup_norm(res.transpose(1, 0, 2))}


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
    g0, f0 = fr.g0, fr.f0

    def g_xs(w):
        """g(w_A, X_A) for the rows w_A of ``w`` and X_A of ``xs``."""
        return ((w @ g0) * xs).sum(1)

    fx = xs @ f0.T
    f2x = fx @ f0.T
    g_f2x = g_xs(f2x)
    final = 2.0 * g_f2x
    peak = np.zeros(4)      # connection, nearly-C, algebra steps; total
    for xi in fr.xi0:
        r_xi = xi @ (fr.riemann @ xi)               # X -> R(xi, X) xi
        lhs = g_xs(xs @ r_xi.T)
        nf_xi = lead_dot(xi, fr.nabla_f)            # X -> (D_xi f)X
        mid1 = g_xs(f2x - xs @ nf_xi.T)
        mid2 = g_xs(xs @ (fr.nabla_f @ xi)) - ((fx @ g0) * fx).sum(1)
        steps = (lhs - mid1, mid1 - mid2, mid2 - final, lhs - final)
        peak = np.maximum(peak, [np.abs(d).max() for d in steps])
    return {
        "chain_connection_step": float(peak[0]),
        "chain_nearly_c_step": float(peak[1]),
        "chain_algebra_step": float(peak[2]),
        "f2_nonpositive": float(np.maximum(g_f2x.max(), 0.0)),  # a NaN stays
        "chain_total": float(peak[3]),
    }


def _thm41(fr, tol):
    _gate("thm41", "weak_nearly_C", nearly_c_residual(fr), tol)
    db = fr.d_basis
    res = {"nabla_xi_zero": sup_norm(
        pair_form(fr.nabla_xi, fr.u, fr.V).transpose(1, 0, 2))}
    de_d = pair_form(fr.deta, db, db)
    res["deta_on_d"] = sup_abs(de_d)
    # conn[i,A,B] = g(D_{e_A} xi_i, e_B) for e_A, e_B in D
    conn = pair_form(fr.nabla_xi, db @ fr.g0, db).transpose(0, 2, 1)
    res["coboundary_vs_connection"] = sup_abs(
        2.0 * de_d - (conn - conn.transpose(0, 2, 1))
    )
    res["d_totally_geodesic"] = sup_abs(conn)
    return res


def _thm01_gates(fr, check, tol):
    _gate(check, "weak_nearly_S", nearly_s_residual(fr), tol)
    _frame_gates(fr, check, tol)


def _thm01_i(fr, tol):
    _thm01_gates(fr, "thm01_i", tol)
    V = fr.V
    eta_n1 = lead_dot(fr.eta0, fr.n1_coeff)
    _gate("thm01_i", "eta_circ_n1", sup_abs(pair_form(eta_n1, V, V)), tol)
    phq = fr.q0.T @ fr.phi0                     # Phi(QX, Y) = g(QX, fY)
    res = {"deta_equals_phi_q": sup_abs(pair_form(fr.deta - phq, V, V))}
    # proof-internal: eta^j(N1(X,Y)) - 2 d eta^j(X,Y) = eta^j([f,f](X,Y)),
    # the right side from the Nijenhuis torsion on the test pairs
    eta_ff = lead_dot(fr.eta0, fr.nijenhuis_ff())
    res["eta_n1_expansion"] = sup_abs(
        pair_form(eta_n1 - 2.0 * fr.deta, V, V) - eta_ff)
    # and its reduction through the nearly-S identity:
    # eta^j([f,f](X,Y)) = 2 d eta^j(X,Y) - 4 g(QX, fY)
    res["eta_ff_reduction"] = sup_abs(
        eta_ff - pair_form(2.0 * fr.deta - 4.0 * phq, V, V))
    return res


def _on_basis(fr, t):
    """t(e_A, e_B, e_C) of a trilinear form on the frame's orthonormal basis."""
    e = fr.tv.basis
    return lead_dot(e, pair_form(t, e, e))


def _thm01_ii(fr, tol):
    _thm01_gates(fr, "thm01_ii", tol)
    V = fr.V
    _gate("thm01_ii", "phi_equals_deta", almost_s_residual(fr), tol)
    phqt = fr.qtilde.T @ fr.phi0                # Phi((Q - id)X, Y)
    c = fr.n1_coeff - 2.0 * fr.xibar[:, None, None] * phqt
    res = {"n1_equals_qtilde_phi": sup_norm(pair_form(lead_dot(fr.u, c), V, V))}
    # proof-internal: 3 dPhi(X,Y,Z) + 3 g((D_X f)Y, Z)
    #                 + 3 g(f^2 X, Y) etabar(Z) - 3 g(f^2 X, Z) etabar(Y) = 0
    gf2 = (fr.f0 @ fr.f0).T @ fr.g0             # g(f^2 X, Y)
    gf2_ebar = gf2[:, :, None] * fr.etabar
    expr = 3.0 * (fr.dphi + fr.nabla_f.transpose(0, 2, 1) @ fr.g0
                  + gf2_ebar - gf2_ebar.transpose(0, 2, 1))
    res["dphi_nabla_f_expansion"] = sup_abs(_on_basis(fr, expr))
    return res


def _corollary_rigidity(fr, tol):
    _gate("corollary_rigidity", "weak_nearly_S", nearly_s_residual(fr), tol)
    _gate("corollary_rigidity", "normal", normality_residual(fr), tol)
    qt = sup_norm(pair_form(fr.qtilde, fr.u, fr.V))
    _gate("corollary_rigidity", "Q_equals_id", qt, tol)
    return {"s_structure_defining": s_structure_residual(fr)}


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
