"""Residual functionals for structure classes and theorem-level identities.

Each class part is the sup, over the test frame at a point, of a defining
identity; a class takes the max over its parts. The parts and the Reeb-frame
conditions are attributes of :class:`~weakf.fstructure.FrameStack`, named
as the report names them, and every check takes a stack and returns rows
over its points; a point is a stack of one. Theorem checks are gated: when
the hypotheses of a statement fail on the given pack (or read NaN),
:class:`HypothesisNotMet` is raised instead of reporting a vacuous pass.
Every theorem bundle is a function of its chunk's stack alone and returns
one row over its points per key, under its gates (``_GATES``), each a row
of the stack, checked by :func:`gated_rows`. Vector-valued residuals are
measured in the g-norm: each is lowered by the Cholesky factor u of g0 and
reduced by :func:`~weakf.sampling.sup_norm`; a residual whose values on the
test pairs hold m nv^2 entries per point is formed ``PAIR_CHUNK`` points at
a time, and not at all when its coefficient stack vanishes identically
(:func:`~weakf.fstructure._pair_rows`).

Gates use the exact tolerance (default 1e-9); the report measures the
curvature steps of ``thm32_chain`` against its own curvature tolerance.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import calculus
from .errors import HypothesisNotMet
from .fstructure import _pair_rows, _rows_abs
from .sampling import (lead_dot, pair_form, sup_abs, sup_norm, transposed,
                       unit_rows)

TOL_EXACT = 1e-9


# The Reeb-frame conditions of the almost S/C classes, in report order:
# [xi_i, xi_j] = 0, g(D_X xi_i, xi_j) = 0, eta^k(D_{xi_i} xi_j) = 0 and
# (D_X Q)Y = 0 for Y in D.
FRAME_CONDITIONS = ("reeb_brackets", "reeb_flat", "reeb_totally_geodesic",
                    "q_parallel_d")


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


def class_residual(pack, p, class_tag, frame):
    """(residual, {part: residual}) rows of ``class_tag`` on the frame stack
    ``frame``: the largest of the class's parts, NaN where any part is NaN,
    and each part, the attribute of ``frame`` of its name.

    Only ``frame`` is read: ``pack`` and ``p`` stay the first two parameters
    so that ``bench/layertrace.py`` can name a span after the third
    positional argument.
    """
    if class_tag not in _CLASS_PARTS:
        raise ValueError(f"unknown class tag {class_tag!r}")
    br = {}
    for part in _CLASS_PARTS[class_tag]:
        if part == "axioms":
            br.update(frame.axioms)
        elif part == "killing":
            for i, r in enumerate(np.transpose(frame.killing)):
                br[f"killing_xi_{i + 1}"] = r
        else:
            br[part] = getattr(frame, part)
    return np.maximum.reduce(list(br.values())), br


def q_parallel_residual(fr):
    """(residual of (D_X Q)Y = 0 on Y in D, residual of the ker-f expansion).

    The second component checks (D_X Q)Y + sum_i eta^i(Y) (Q - id) D_X xi_i
    over all Y; it must hold whenever the first component holds, and both
    are reported separately.
    """
    return fr.q_parallel_d, fr.q_parallel_expansion


def frame_residuals(fr):
    """{condition: residual} of the Reeb-frame conditions on ``fr``, in the
    order of :data:`FRAME_CONDITIONS`.

    The test set for the flatness condition includes the Reeb fields
    themselves, so the totally-geodesic residual is always bounded by the
    flatness residual.
    """
    return {name: getattr(fr, name) for name in FRAME_CONDITIONS}


# -- gated theorem checks ---------------------------------------------------------


def gated_rows(check, gates, tol, body):
    """``body()``, the residual rows of a gated check over a chunk of points,
    under ``gates``: (gate, row) pairs in the order they are checked, read
    one at a time. A gate may be named at each row: its name is then an
    array of one name per row.

    A gate that fails at the chunk's first point (a NaN fails) raises
    :class:`HypothesisNotMet` at once, before the later gates are read and
    before the body runs, as that point alone would. Otherwise the body
    computes every row, and only then does the check raise at the chunk's
    first point where a gate fails, naming that point's first failing gate.
    An exception of the body thus reaches the runner before any gate does,
    and the runner walks the chunk's points again one at a time, where each
    point checks its gates before its body.
    """
    read = []
    for name, rows in gates:
        read.append((name, rows))
        if not rows[0] <= tol:
            raise HypothesisNotMet(check, _name_at(name, 0), rows[0])
    res = body()
    failed = [~(rows <= tol) for _, rows in read]
    bad = np.logical_or.reduce(failed)
    if bad.any():
        k = int(np.argmax(bad))
        name, rows = next(g for g, f in zip(read, failed) if f[k])
        raise HypothesisNotMet(check, _name_at(name, k), rows[k], row=k)
    return res


def _name_at(name, k):
    return name if isinstance(name, str) else str(name[k])


def _nearly_s_or_c(st, tol):
    """The gate "weak nearly S or weak nearly C" over the stack ``st``: the
    gate's name at each row, and its row. A row passes where either class
    passes; elsewhere it fails on the smaller residual of the two, and on
    the nearly-C one where either is NaN. The nearly-C row is read only
    when some nearly-S row fails."""
    rs = st.nearly_s_defining
    s_holds = rs <= tol
    if s_holds.all():
        return "weak_nearly_S", rs
    rc = st.nearly_c_defining
    on_s = s_holds | ~(rc <= tol) & (rs <= rc)
    return (np.where(on_s, "weak_nearly_S", "weak_nearly_C"),
            np.where(on_s, rs, rc))


def _row(gate, attr=None):
    """The gate named ``gate`` on the stack's row ``attr`` (by default the
    row of the same name)."""
    return lambda st, tol: (gate, getattr(st, attr or gate))


_AXIOMS = _row("weak_metric_f_axioms", "worst_axiom")
_NEARLY_S = _row("weak_nearly_S", "nearly_s_defining")
_REEB_FRAME = tuple(map(_row, ("reeb_brackets", "reeb_totally_geodesic",
                               "reeb_flat", "q_parallel_d")))
_FK_CONTACT = (_AXIOMS, _row("phi_equals_deta"),
               lambda st, tol: ("killing_reeb", st.killing.max(-1)))

# The gates of each theorem bundle in the order they are checked, each a
# function (stack, tol) -> (gate, row); every statement presupposes a valid
# weak metric f-structure, so the axioms come first.
_GATES = {
    "prop1": (_AXIOMS, _nearly_s_or_c, *_REEB_FRAME),
    "prop_normal": (_AXIOMS, _row("normality", "n1_zero")),
    "fk_contact_nabla": _FK_CONTACT,
    "thm32_chain": _FK_CONTACT,
    "thm41": (_AXIOMS, _row("weak_nearly_C", "nearly_c_defining")),
    "thm01_i": (_AXIOMS, _NEARLY_S, *_REEB_FRAME, _row("eta_circ_n1")),
    "thm01_ii": (_AXIOMS, _NEARLY_S, *_REEB_FRAME, _row("phi_equals_deta")),
    "corollary_rigidity": (_AXIOMS, _NEARLY_S, _row("normal", "n1_zero"),
                           _row("Q_equals_id", "q_equals_id")),
}


def theorem_check(pack, p, which, frame, tol_exact=TOL_EXACT):
    """Named residual rows of one theorem-level identity bundle over
    ``frame``, a chunk's set-up stack: one row over its points per key.

    Raises :class:`HypothesisNotMet` when the statement's gates fail,
    naming the chunk's first point where one fails, that point's first
    failing gate and its residual (see :func:`gated_rows`); every statement
    presupposes a valid weak metric f-structure, so the axiom bundle is
    always the first gate. ``thm32_chain`` also returns the residual of the
    chain step that is only valid under the nearly-C hypothesis; on packs
    failing that hypothesis the entry is expected to be large and is
    reported for diagnosis, never asserted.

    Only ``frame`` is read: ``pack`` and ``p`` stay the first two
    parameters so that ``bench/layertrace.py`` can name a span after the
    third positional argument.
    """
    body = _THEOREMS.get(which)
    if body is None:
        raise ValueError(f"unknown theorem check {which!r}")
    return gated_rows(which, (gate(frame, tol_exact) for gate in _GATES[which]),
                      tol_exact, partial(body, frame))


def _prop1(st):
    low = lead_dot(st.u, st.nabla_xi_xi.transpose(0, 3, 1, 2), lead=1)
    ne = np.einsum("pjab,pia->pijb", st.nabla_eta, st.xi0)
    dual = ((ne @ st.ginv[:, None]) * ne).sum(-1)
    return {
        "reeb_parallel_pairs": sup_norm(low, lead=1),
        "reeb_coparallel": np.sqrt(np.maximum(
            dual.reshape(len(dual), -1).max(-1), 0.0)),
        "reeb_killing": st.killing.max(-1),          # a NaN stays
    }


def _prop_normal(st):
    """Consequences of normality, reported on packs with N1 = 0."""
    V, u = st.V[:, None], st.u[:, None]
    n3 = calculus.lie_tensor11_kernel(st.f0[:, None], st.f1[:, None], st.xi0,
                                      st.xi1)
    res = {"lie_xi_f": sup_norm(pair_form(n3, u, V).transpose(0, 2, 1, 3),
                                lead=1)}
    # N4[i,j,A] = 2 d eta^j(xi_i, X)
    res["deta_xi_contraction"] = sup_abs(
        2.0 * pair_form(st.deta, st.xi0[:, None], V), lead=1)
    # d eta^i(fX, Y) - d eta^i(fY, X) = (1/2) eta^i([(Q - id)X, fY]), where
    # [(Q - id)X, fY] = ((Q - id)X)^a d_a (fY) - (fY)^a d_a (Q X)
    b = transposed(st.f1 @ st.qtilde[:, None]) - st.q1 @ st.f0[:, None]
    res["deta_f_swap"] = sup_abs(pair_form(
        0.5 * (st.n2_coeff - lead_dot(st.eta0, b, lead=1)), V, V), lead=1)
    res["reeb_derivatives_in_d"] = st.reeb_totally_geodesic
    # eta^j([X, xi_i]) for X in D, extended as the section
    # X - sum_k eta^k(X) xi_k of D: for X constant in the chart,
    # eta^j([X, xi_i]) = eta^j(X^a d_a xi_i), and the extension adds
    # sum_k eta^j(xi_k) xi_i(eta^k(X))
    db = st.d_basis
    brk = np.einsum("pAa,pika->pikA", db, st.xi1)
    # [k, A, i] = xi_i(eta^k(X_A))
    xi_eta_x = pair_form(st.eta1, db[:, None], st.xi0[:, None])
    ext = lead_dot(st.eta0 @ transposed(st.xi0), xi_eta_x,
                   lead=1).transpose(0, 3, 1, 2)
    res["d_brackets_stay_in_d"] = sup_abs(
        np.einsum("pjk,pikA->pijA", st.eta0, brk) + ext, lead=1)
    nxx = st.nabla_xi_xi
    res["reeb_symmetric_geodesic"] = sup_norm(lead_dot(
        st.u, (nxx + nxx.transpose(0, 2, 1, 3)).transpose(0, 3, 1, 2),
        lead=1), lead=1)
    return res


def _fk_contact_nabla(st):
    res = pair_form(st.nabla_xi + st.f0[:, None], st.u[:, None],
                    st.V[:, None])
    return {"nabla_xi_plus_f": sup_norm(res.transpose(0, 2, 1, 3), lead=1)}


def _thm32_chain(st):
    """Identity chain for the Reeb-sectional curvature of f-K-contact packs,
    one row per step over the chunk's stack.

    For unit X in the contact distribution and each Reeb direction xi:

      connection step:  g(R(xi, X) xi, X) = g(-(D_xi f)X + f^2 X, X)
      nearly-C step:    g(-(D_xi f)X + f^2 X, X)
                        = g((D_X f)xi, X) - g(fX, fX)   [uses nearly-C]
      algebra step:     g((D_X f)xi, X) - g(fX, fX) = 2 g(f^2 X, X)
      sign:             g(f^2 X, X) <= 0

    The connection and algebra steps follow from D xi = -f and f xi = 0
    alone and must hold on any f-K-contact pack; the nearly-C step is the
    one that breaks when the pack is not weak nearly C. X runs over the
    basis of the contact distribution and 4 random units in it, whose
    coefficients on that basis the test vectors hold (``tv.chain``).
    """
    db, g0, f0, nf = st.d_basis, st.g0, st.f0, st.nabla_f
    count, m = len(g0), g0.shape[-1]
    xs = np.concatenate([db, unit_rows(st.tv.chain @ db, g0)], axis=1)
    f0_t = transposed(f0)

    def g_xs(w):
        """g(w_A, X_A) for the rows w_A of ``w`` and X_A of ``xs``."""
        return ((w @ g0) * xs).sum(-1)

    fx = xs @ f0_t
    f2x = fx @ f0_t
    g_f2x = g_xs(f2x)
    final = 2.0 * g_f2x
    g_fx = ((fx @ g0) * fx).sum(-1)
    peak = np.zeros((count, 4))     # connection, nearly-C, algebra; total
    for xi, r_xi in zip(np.moveaxis(st.xi0, 1, 0),
                        np.moveaxis(st.reeb_curvature, 1, 0)):
        lhs = g_xs(xs @ transposed(r_xi))               # X -> R(xi, X) xi
        nf_xi = (xi[:, None] @ nf.reshape(count, m, -1)).reshape(
            count, m, m)                                # X -> (D_xi f)X
        mid1 = g_xs(f2x - xs @ transposed(nf_xi))
        mid2 = g_xs(xs @ (nf @ xi[:, None, :, None])[..., 0]) - g_fx
        steps = (lhs - mid1, mid1 - mid2, mid2 - final, lhs - final)
        peak = np.maximum(peak, np.stack([np.abs(d).max(-1) for d in steps],
                                         axis=-1))
    return {
        "chain_connection_step": peak[:, 0],
        "chain_nearly_c_step": peak[:, 1],
        "chain_algebra_step": peak[:, 2],
        "f2_nonpositive": np.maximum(g_f2x.max(-1), 0.0),  # a NaN stays
        "chain_total": peak[:, 3],
    }


def _thm41(st):
    db = st.d_basis[:, None]
    low = pair_form(st.nabla_xi, st.u[:, None], st.V[:, None])
    res = {"nabla_xi_zero": sup_norm(low.transpose(0, 2, 1, 3), lead=1)}
    de_d = pair_form(st.deta, db, db)
    res["deta_on_d"] = sup_abs(de_d, lead=1)
    # conn[i,A,B] = g(D_{e_A} xi_i, e_B) for e_A, e_B in D
    conn = transposed(pair_form(st.nabla_xi, (st.d_basis @ st.g0)[:, None], db))
    res["coboundary_vs_connection"] = sup_abs(
        2.0 * de_d - (conn - transposed(conn)), lead=1)
    res["d_totally_geodesic"] = sup_abs(conn, lead=1)
    return res


def _thm01_i(st):
    """S-structure characterization (i). With the half-normalized d,
    Phi(X, Y) = g(X, fY) and Q~ = Q - id:

    (a) eta^j o f = 0 = eta^j o f^2 give eta^j([f,f](X, Y)) = -2 d eta^j(fX,
        fY), and the axioms Phi(fX, fY) = Phi(X, QY) = Phi(QX, Y); so where
        Phi = d eta^j, eta^j(N1(X, Y)) = -2 Phi(Q~X, Y).
    (c) Where d eta^j = Phi(Q., .), the conclusion, eta^j o N1 = -2 Phi(QQ~.,
        .): with the gate eta o N1 = 0 this forces Q = id on D, as does
        ``eta_ff_reduction`` (Phi(Q^2 X, Y) = Phi(QX, Y)). The (Q - id) terms
        are vacuous wherever the bundle runs.
    """
    phq = (transposed(st.q0) @ st.phi0)[:, None]    # Phi(QX, Y) = g(QX, fY)
    res = {"deta_equals_phi_q": _pair_rows(_rows_abs, st.deta - phq, st.V)}
    # proof-internal: eta^j(N1(X,Y)) - 2 d eta^j(X,Y) = eta^j([f,f](X,Y))
    eta_ff = lead_dot(st.eta0, st.ff_coeff, lead=1)
    res["eta_n1_expansion"] = _pair_rows(
        _rows_abs, st.eta_n1 - 2.0 * st.deta - eta_ff, st.V)
    # and its reduction through the nearly-S identity:
    # eta^j([f,f](X,Y)) = 2 d eta^j(X,Y) - 4 g(QX, fY)
    res["eta_ff_reduction"] = _pair_rows(
        _rows_abs, eta_ff - (2.0 * st.deta - 4.0 * phq), st.V)
    return res


def _thm01_ii(st):
    """S-structure characterization (ii): N1 = -2 Phi(Q~., .) xibar, the
    sign from (a) of :func:`_thm01_i`.

    (b) The gates include prop1's, so each xi_i is Killing and Phi = d eta^i
        gives D xi_i = -f. The xi_i part of ``q_parallel_d``'s (D_X Q)Y is
        g(Y, (D_X Q)xi_i) = -g(Y, Q~ D_X xi_i) = g(Y, Q~fX), so the gates
        force Q~f = 0, i.e. Q = id: no pack pins the term's sign here.
    """
    phqt = transposed(st.qtilde) @ st.phi0      # Phi((Q - id)X, Y)
    c = st.n1_coeff + 2.0 * st.xibar[:, :, None, None] * phqt[:, None]
    res = {"n1_equals_qtilde_phi": st._vector_rows(c)}
    # proof-internal: 3 dPhi(X,Y,Z) + 3 g((D_X f)Y, Z)
    #                 + 3 g(f^2 X, Y) etabar(Z) - 3 g(f^2 X, Z) etabar(Y) = 0
    gf2 = transposed(st.f0 @ st.f0) @ st.g0     # g(f^2 X, Y)
    gf2_ebar = gf2[..., None] * st.etabar[:, None, None]
    expr = 3.0 * (st.dphi + transposed(st.nabla_f) @ st.g0[:, None]
                  + gf2_ebar - transposed(gf2_ebar))
    # on the orthonormal basis: expr(e_A, e_B, e_C)
    e = st.tv.basis
    res["dphi_nabla_f_expansion"] = sup_abs(lead_dot(
        e, pair_form(expr, e[:, None], e[:, None]), lead=1), lead=1)
    return res


def _corollary_rigidity(st):
    return {"s_structure_defining": st.s_structure_defining}


# Theorem bundles in report order: name -> the chunk's stack -> rows. Their
# gates are in _GATES.
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
