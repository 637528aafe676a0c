from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import sheared_pack
from report_digests import CONFIGS

import oracles
from weakf import catalog, charts, classifiers, jets
from weakf.charts import SmoothField
from weakf.classifiers import (
    class_residual,
    frame_residuals,
    q_parallel_residual,
    THEOREM_CHECKS,
    _nearly_s_or_c,
    gated_rows,
    theorem_check,
)
from weakf.errors import HypothesisNotMet
from weakf.fstructure import PackFrame, StructurePack
from weakf.report import SUITES, SuiteConfig, run_suite
from weakf.sampling import pair_form, sup_abs

TOL = 1e-9


@dataclass
class ClassVerdict:
    """Aggregated verdict of one class over a set of sampled points."""

    class_tag: str
    max_residual: float
    breakdown: dict
    points_sampled: int
    tolerance: float

    @property
    def holds(self):
        return self.max_residual <= self.tolerance


def _verdict(pack, tag, count=5, seed=42, tol=TOL):
    worst = 0.0
    breakdown = {}
    for i, p in enumerate(pack.chart.sample(count, seed)):
        fr = PackFrame(pack, p, seed=seed, index=i)
        val, br = class_residual(pack, p, tag, frame=fr)
        worst = max(worst, val)
        for k, v in br.items():
            breakdown[k] = max(breakdown.get(k, 0.0), v)
    return ClassVerdict(tag, worst, breakdown, count, tol)


def test_declared_class_table_holds(all_packs):
    for cat in all_packs:
        for tag in cat.declared_classes:
            v = _verdict(cat.obj, tag)
            assert v.holds, (cat.name, tag, v.max_residual)


def test_designated_non_classes_fail(cat_product, cat_sasakian):
    # the product pack has closed eta but Phi != 0, so "Phi = d eta" fails
    v = _verdict(cat_product.obj, "weak_almost_S", count=2)
    assert v.max_residual >= 0.5
    # the Sasakian sphere has d eta = Phi != 0, so the closed-form class fails
    v = _verdict(cat_sasakian.obj, "weak_almost_C", count=2)
    assert v.max_residual >= 0.5
    v = _verdict(cat_sasakian.obj, "weak_nearly_C", count=2)
    assert v.max_residual >= 0.5


def test_sasakian_is_s_structure_and_nearly_s(cat_sasakian):
    assert _verdict(cat_sasakian.obj, "S_structure").holds
    assert _verdict(cat_sasakian.obj, "weak_nearly_S").holds


def test_verdict_breakdown_keys_match_class():
    from weakf.catalog import product_pack

    pack = product_pack(n=1, s=2).obj
    p = pack.chart.sample(1, seed=1)[0]
    _, br = class_residual(pack, p, "weak_C", PackFrame(pack, p))
    assert set(br) == {"deta_zero", "dphi_zero", "n1_zero"}


def test_killing_residuals(cat_product, cat_sasakian, cat_flat):
    for cat in (cat_product, cat_sasakian):
        pack = cat.obj
        for i, p in enumerate(pack.chart.sample(4, seed=7)):
            fr = PackFrame(pack, p, seed=7, index=i)
            assert max(fr.killing) <= TOL

    # rescaling the Reeb field by a coordinate function breaks the isometry
    pack = cat_flat.obj
    grown = SmoothField(
        pack.chart,
        "vector",
        lambda u, base=pack.xi[0].fn: [
            (1.0 + u[0]) * c for c in base(u)
        ],
    )
    broken = StructurePack(
        chart=pack.chart, f=pack.f, Q=pack.Q,
        xi=(grown,) + pack.xi[1:], eta=pack.eta, g=pack.g,
        n=pack.n, s=pack.s,
    )
    p = pack.chart.sample(1, seed=7)[0]
    assert PackFrame(broken, p).killing[0] > 0.1


def test_q_parallel_residuals(cat_flat, cat_product, cat_sasakian):
    for cat in (cat_flat, cat_product, cat_sasakian):
        pack = cat.obj
        for i, p in enumerate(pack.chart.sample(3, seed=11)):
            fr = PackFrame(pack, p, seed=11, index=i)
            first, second = q_parallel_residual(fr)
            assert first <= TOL
            assert second <= TOL


def test_q_parallel_detects_varying_q(varying_q_pack):
    from weakf.fstructure import axioms_residual

    p = np.array([0.2, 0.5, -0.3])
    fr = PackFrame(varying_q_pack, p)
    ax = axioms_residual(fr)
    assert max(ax.values()) <= 1e-12  # a genuine weak pack
    first, second = q_parallel_residual(fr)
    assert first >= 0.1
    assert second >= 0.1


def test_frame_residuals_catalog(all_packs):
    for cat in all_packs:
        pack = cat.obj
        for i, p in enumerate(pack.chart.sample(3, seed=13)):
            fr = PackFrame(pack, p, seed=13, index=i)
            fc = frame_residuals(fr)
            assert list(fc) == ["reeb_brackets", "reeb_flat",
                                "reeb_totally_geodesic", "q_parallel_d"]
            assert fc["reeb_brackets"] <= TOL
            assert fc["reeb_flat"] <= TOL
            assert fc["reeb_totally_geodesic"] <= TOL
            assert fc["q_parallel_d"] <= TOL
            # the totally geodesic condition is the Reeb restriction of the
            # flatness condition, whose test set includes the Reeb fields
            assert fc["reeb_totally_geodesic"] <= fc["reeb_flat"] + 1e-12


def _stack(pack, count, seed):
    """The set-up stack of ``count`` sample points of ``pack`` as one chunk."""
    return oracles.stack(pack, pack.chart.sample(count, seed), seed=seed)


def test_prop1_on_product_pack(cat_product):
    pack = cat_product.obj
    res = theorem_check(pack, None, "prop1", frame=_stack(pack, 4, 17))
    assert res["reeb_parallel_pairs"].shape == (4,)
    assert res["reeb_parallel_pairs"].max() <= TOL
    assert res["reeb_coparallel"].max() <= TOL
    assert res["reeb_killing"].max() <= TOL


def test_prop1_gate_rejects_non_nearly_pack(varying_q_pack):
    # valid weak pack, but the symmetrized derivative of f does not vanish
    # and does not match the nearly-S right side either
    with pytest.raises(HypothesisNotMet) as err:
        theorem_check(varying_q_pack, None, "prop1",
                      _stack(varying_q_pack, 1, 19))
    assert err.value.gate in ("weak_nearly_S", "weak_nearly_C")


def test_theorem_checks_gate_on_axioms(cat_sasakian):
    pack = cat_sasakian.obj
    broken = StructurePack(
        chart=pack.chart,
        f=SmoothField(
            pack.chart, "tensor11",
            lambda u, base=pack.f.fn: [
                [1.3 * c for c in row] for row in base(u)
            ],
        ),
        Q=pack.Q, xi=pack.xi, eta=pack.eta, g=pack.g, n=pack.n, s=pack.s,
    )
    with pytest.raises(HypothesisNotMet) as err:
        theorem_check(broken, None, "prop1", _stack(broken, 1, 19))
    assert err.value.gate == "weak_metric_f_axioms"


def test_prop_normal_consequences(all_packs):
    # every catalog pack is normal, so the consequence bundle must hold
    for cat in all_packs:
        pack = cat.obj
        res = theorem_check(pack, None, "prop_normal", _stack(pack, 1, 23))
        assert max(rows.max() for rows in res.values()) <= TOL, (cat.name, res)


def _unnormal_pack(tilt=0.0):
    """The D-homothetic sasakian_s3 at lam = 2 with xi scaled by
    1 + 0.3 sin(u_1) and eta by 1 + 0.3 sin(u_0): no longer normal, so every
    consequence of normality reads at least 0.2 over a few points. ``tilt``
    sin(u_2) added to eta_0 makes eta o f != 0."""
    pack = oracles.d_homothetic_pack(catalog.sasakian_s3().obj, 2.0)
    (xi,), (eta,) = pack.xi, pack.eta
    return replace(
        pack,
        xi=(SmoothField(pack.chart, "vector", lambda u: [
            (1.0 + 0.3 * jets.sin(u[1])) * c for c in xi.fn(u)]),),
        eta=(SmoothField(pack.chart, "oneform", lambda u: [
            (1.0 + 0.3 * jets.sin(u[0])) * c + (tilt * jets.sin(u[2]) if a == 0
                                                else 0.0)
            for a, c in enumerate(eta.fn(u))]),))


@pytest.mark.parametrize("example", [
    "sasakian_s3", "hypersphere", "sheared rotated_pack", "unnormal",
    "tilted"])
def test_prop_normal_is_the_field_level_oracle(example):
    # the body without its gate, from the frame's jet arrays, against the
    # same keys from genuine fields (oracles.prop_normal_at_point). Where
    # eta o f = 0 and eta o Q = eta, eta([(Q - id)X, fY]) is
    # -2 d eta((Q - id)X, fY), symmetric in X and Y on the other packs here,
    # so deta_f_swap's sup over all test pairs does not see that term's
    # sign; "tilted" breaks eta o f = 0, and it does.
    fields = None
    if example == "hypersphere":
        pack = oracles.config_example("--example hypersphere --param n=1")
        fields = oracles.nested_induced_pack(pack.submanifold)
    elif example == "sheared rotated_pack":
        pack = sheared_pack(catalog.rotated_pack().obj)
    elif example in ("unnormal", "tilted"):
        pack = _unnormal_pack(0.3 if example == "tilted" else 0.0)
    else:
        pack = catalog.sasakian_s3().obj
    points = pack.chart.sample(3, 42)
    st = oracles.stack(pack, points)
    got = classifiers._THEOREMS["prop_normal"](st)
    for k, p in enumerate(points):
        want = oracles.prop_normal_at_point(
            PackFrame(pack, p, index=k, stack=st), fields)
        assert list(got) == list(want)
        for key, rows in got.items():
            assert abs(rows[k] - want[key]) <= 1e-12, (example, key, k)
    if example == "unnormal":
        assert min(rows.max() for rows in got.values()) >= 0.2


def test_fk_contact_nabla_on_sasakian(cat_sasakian):
    # the bundle takes the chunk's stack: one row over its points
    pack = cat_sasakian.obj
    stack = oracles.stack(pack, pack.chart.sample(4, seed=29), seed=29)
    res = theorem_check(pack, None, "fk_contact_nabla", frame=stack)
    assert res["nabla_xi_plus_f"].shape == (4,)
    assert res["nabla_xi_plus_f"].max() <= TOL


def test_fk_contact_gate_rejects_product(cat_product):
    pack = cat_product.obj
    stack = oracles.stack(pack, pack.chart.sample(1, seed=31), seed=31)
    with pytest.raises(HypothesisNotMet) as err:
        theorem_check(pack, None, "fk_contact_nabla", stack)
    assert err.value.gate == "phi_equals_deta" and err.value.row == 0


def test_thm32_chain_identifies_breaking_step(cat_sasakian):
    pack = cat_sasakian.obj
    stack = oracles.stack(pack, pack.chart.sample(3, seed=37), seed=37)
    res = theorem_check(pack, None, "thm32_chain", frame=stack)
    assert res["chain_connection_step"].max() <= 1e-6
    assert res["chain_algebra_step"].max() <= TOL
    assert (res["f2_nonpositive"] == 0.0).all()
    # the step needing the nearly-C identity is the one that breaks
    assert res["chain_nearly_c_step"].min() >= 0.5
    assert res["chain_total"].min() >= 0.5


@pytest.mark.parametrize("config", ["--example sasakian_s3",
                                    "--example hypersphere --param n=2"])
def test_thm32_chain_does_not_depend_on_what_was_read_before(config):
    # the chain's units are part of the test vectors, so its body gives the
    # same rows on a fresh stack as on one whose test vectors were read
    pack = oracles.config_example(config)
    points = pack.chart.sample(5, 37)
    fresh = classifiers._thm32_chain(oracles.stack(pack, points, 37))
    read = oracles.stack(pack, points, 37)
    read.tv
    after = classifiers._thm32_chain(read)
    assert list(fresh) == list(after)
    for key, rows in fresh.items():
        assert _hex(rows) == _hex(after[key]), key


@pytest.mark.parametrize("example", sorted(catalog.BUILDERS))
def test_reeb_derivatives_in_d_is_the_totally_geodesic_row(example):
    # prop_normal reads the Reeb-frame row eta^k(D_{xi_i} xi_j) = 0: at each
    # point bitwise the sup it formed from the point's own D_xi xi
    pack = oracles.config_example(f"--example {example}")
    for fr in oracles.chunk_frames(pack, pack.chart.sample(
            REFERENCE_SAMPLES, 42)):
        assert fr.reeb_totally_geodesic.hex() == sup_abs(
            fr.nabla_xi_xi @ fr.eta0.T).hex()


# One full chunk of points and part of another.
REFERENCE_SAMPLES = charts.CHUNK + 4


def _hex(rows):
    return [float(v).hex() for v in rows]


@pytest.mark.parametrize("config", CONFIGS)
def test_stacked_fk_contact_rows_are_the_point_oracle(config):
    # the stacked bundles against their bodies at one point, given the same
    # curvature: every row, or the raised row, gate and residual. Each side
    # draws the chain's units from generators of its own, seeded alike.
    pack = oracles.config_example(config)
    points = pack.chart.sample(REFERENCE_SAMPLES, 42)
    stacked = [fr._chunk for fr in
               oracles.chunk_frames(pack, points)[::charts.CHUNK]]
    alone = oracles.chunk_frames(pack, points)
    assert [len(st.rows) for st in stacked] == [charts.CHUNK, 4]
    for st in stacked:
        frs = alone[st.rows.start:st.rows.start + len(st.rows)]
        gates = [oracles.fk_gates_at_point(fr) for fr in frs]
        failing = [(k, gate, value) for k, g in enumerate(gates)
                   for gate, value in g.items() if not value <= TOL]
        for which in ("fk_contact_nabla", "thm32_chain"):
            try:
                got = theorem_check(pack, None, which, frame=st)
            except HypothesisNotMet as exc:
                k, gate, value = failing[0]
                assert (exc.row, exc.gate, exc.residual.hex()) == (
                    k, gate, value.hex()), which
                continue
            assert not failing, which
            if which == "fk_contact_nabla":
                want = [oracles.fk_contact_nabla_at_point(fr) for fr in frs]
            else:
                want = [oracles.thm32_chain_at_point(
                    fr, st.reeb_curvature[k]) for k, fr in enumerate(frs)]
            assert list(got) == list(want[0])
            for key, rows in got.items():
                assert _hex(rows) == [w[key].hex() for w in want], (which, key)


def _assert_stacked_bodies_are_the_point_oracle(pack, points):
    """The bodies of prop1, prop_normal, thm41, thm01_i and thm01_ii over
    each chunk of ``points``, called without their gates: every row is
    bitwise the body at that point alone (``oracles.STACKED_AT_POINT``),
    key for key."""
    frames = oracles.chunk_frames(pack, points)
    stacks = list({id(fr._chunk): fr._chunk for fr in frames}.values())
    assert [len(st.rows) for st in stacks] == [charts.CHUNK, 4]
    for st in stacks:
        frs = frames[st.rows.start:st.rows.start + len(st.rows)]
        for which, at_point in oracles.STACKED_AT_POINT.items():
            got = classifiers._THEOREMS[which](st)
            want = [at_point(fr) for fr in frs]
            assert list(got) == list(want[0]), which
            for key, rows in got.items():
                assert _hex(rows) == [w[key].hex() for w in want], (which, key)
    return stacks


@pytest.mark.parametrize("config", CONFIGS)
def test_stacked_theorem_bodies_are_the_point_oracle(config):
    pack = oracles.config_example(config)
    _assert_stacked_bodies_are_the_point_oracle(
        pack, pack.chart.sample(REFERENCE_SAMPLES, 42))


def test_stacked_theorem_bodies_where_q_is_not_the_identity(varying_q_pack,
                                                            cat_sasakian):
    # Q = id wherever thm01 runs on the catalog. On the sheared varying-Q
    # pack Gamma and Q - id are not zero; on the D-homothetic sasakian_s3 at
    # lam = 2, a valid pack, Phi((Q - id)X, Y) meets N1's Reeb part, so
    # thm01_ii's rows there depend on the sign of its (Q - id) term. Its
    # value is not asserted.
    for pack in (sheared_pack(varying_q_pack),
                 oracles.d_homothetic_pack(cat_sasakian.obj, 2.0)):
        stacks = _assert_stacked_bodies_are_the_point_oracle(
            pack, pack.chart.sample(REFERENCE_SAMPLES, 42))
        for st in stacks:
            assert st.worst_axiom.max() <= TOL
            assert st.q_equals_id.max() > 0.1
            assert np.abs(st.gamma).max() > 0.1


# The theorem entries that follow from the hypotheses whatever the sign of
# the (Q - id) terms, on the D-homothetic sasakian_s3 (a valid pack with
# Q != id), bodies run without their gates; measured at seed 42 over 10
# samples at most 1.03e-14 (thm01_ii's dPhi expansion at lam = 2). The
# other entries of thm01_i and thm01_ii depend on that sign and are not
# asserted: n1_equals_qtilde_phi, deta_equals_phi_q and eta_ff_reduction.
Q_FREE_ENTRIES = {
    "prop1": ("reeb_parallel_pairs", "reeb_coparallel", "reeb_killing"),
    "thm41": ("coboundary_vs_connection",),
    "thm01_i": ("eta_n1_expansion",),
    "thm01_ii": ("dphi_nabla_f_expansion",),
}
Q_FREE_TOL = 1e-13


@pytest.mark.parametrize("lam", [2.0, 0.5])
def test_q_free_theorem_entries_hold_where_q_is_not_the_identity(
        cat_sasakian, lam):
    pack = oracles.d_homothetic_pack(cat_sasakian.obj, lam)
    st = oracles.stack(pack, pack.chart.sample(10, 42))
    assert st.worst_axiom.max() <= TOL
    assert st.q_equals_id.max() > 0.1
    for which, keys in Q_FREE_ENTRIES.items():
        rows = classifiers._THEOREMS[which](st)
        assert set(keys) <= set(rows), which
        for key in keys:
            assert rows[key].max() <= Q_FREE_TOL, (which, key, rows[key])


@pytest.mark.parametrize("lam", [2.0, 0.5])
def test_q_parallel_d_on_the_d_homothetic_pack(cat_sasakian, lam):
    """(D_X Q)Y = 0 on Y in D reads |1 - lam| sqrt(lam) on the D-homothetic
    sasakian_s3, at every point.

    Write f = sqrt(lam) phi, Q = lam id + (1 - lam) eta (x) xi, eta' =
    sqrt(lam) eta, xi' = xi / sqrt(lam), g' = g + (lam - 1) eta (x) eta, with
    D' the Levi-Civita connection of g'. Since eta (x) xi = eta' (x) xi', for
    Y in D (eta(Y) = 0)

        (D'_X Q)Y = (1 - lam) ((D'_X eta')(Y) xi' + eta'(Y) D'_X xi')
                  = (1 - lam) g'(D'_X xi', Y) xi',

    and |xi'|_g' = 1. xi is Killing for g and L_xi eta = i_xi d eta = 0, so
    xi' is Killing for g', and for the half-normalized d,
    g'(D'_X xi', Y) = d eta'(X, Y) = sqrt(lam) d eta(X, Y)
    = sqrt(lam) g(X, phi Y), the last step the S-identity Phi = d eta of
    the Sasakian pack. phi Y lies in D, where g' = g and phi is a
    g-isometry, so over g'-unit X and Y in D

        |(D'_X Q)Y|_g' = |1 - lam| sqrt(lam) |g'(X, phi Y)|
                      <= |1 - lam| sqrt(lam).

    The bound is reached: in the Hopf chart d/d alpha lies in D and is
    g'-unit. It is the first vector of the test basis and of the basis of
    D, whose second vector is +-phi(d/d alpha), so that pair gives
    |g'(X, phi Y)| = 1. With Q read as the identity in the Christoffel
    terms of D'Q, which then cancel, the residual reads 2 |1 - lam|
    sqrt(lam) here, so this test catches that fault.
    """
    pack = oracles.d_homothetic_pack(cat_sasakian.obj, lam)
    st = oracles.stack(pack, pack.chart.sample(10, 42))
    assert st.worst_axiom.max() <= TOL
    rows = frame_residuals(st)["q_parallel_d"]
    assert rows.shape == (10,)
    assert np.abs(rows - abs(1.0 - lam) * np.sqrt(lam)).max() <= 1e-13


@pytest.mark.parametrize("lam, plus_form", [(2.0, 5.65), (0.5, 1.41),
                                            (3.0, 13.8)])
def test_reeb_part_of_n1_on_the_d_homothetic_pack(cat_sasakian, lam,
                                                   plus_form):
    """eta^j(N1(X, Y)) = -2 Phi((Q - id)X, Y) where Phi = d eta^j, on the
    D-homothetic sasakian_s3, a valid pack with Q != id.

    With the half-normalized d and Phi(X, Y) = g(X, fY): eta^j o f = 0 and
    eta^j o f^2 = 0 leave eta^j([f,f](X, Y)) = eta^j([fX, fY])
    = -2 d eta^j(fX, fY) = -2 Phi(fX, fY), and f^2 Y = -QY + sum_i
    eta^i(Y) xi_i, g(fX, xi_i) = 0, f skew, Qf = fQ and Q self-adjoint give
    Phi(fX, fY) = -g(fX, QY) = Phi(QX, Y). So eta^j(N1(X, Y))
    = 2 Phi(X, Y) - 2 Phi(QX, Y). Over the test pairs it holds to at most
    5.6e-15 (10 samples, seed 42); the form with +2 Phi((Q - id)X, Y) reads
    4 |1 - lam| sqrt(lam) at the pair that the q_parallel_d test above
    names, and so does thm01_ii's N1 identity with its sign flipped.
    """
    pack = oracles.d_homothetic_pack(cat_sasakian.obj, lam)
    st = oracles.stack(pack, pack.chart.sample(10, 42))
    assert st.worst_axiom.max() <= TOL
    assert st.phi_equals_deta.max() <= TOL
    phqt = (np.swapaxes(st.qtilde, 1, 2) @ st.phi0)[:, None]
    minus = pair_form(st.eta_n1 + 2.0 * phqt, st.V[:, None], st.V[:, None])
    assert np.abs(minus).max() <= 1e-13
    plus = pair_form(st.eta_n1 - 2.0 * phqt, st.V[:, None], st.V[:, None])
    assert float(f"{np.abs(plus).max():.3g}") == plus_form
    # thm01_ii's body, run without its gates, which force Q = id
    n1 = classifiers._THEOREMS["thm01_ii"](st)["n1_equals_qtilde_phi"]
    assert n1.max() <= 1e-13


@pytest.mark.parametrize("example", sorted(catalog.BUILDERS))
def test_gate_rows_are_the_point_gates(example):
    # the two gates that were computed at each point, eta o N1 and Q = id,
    # are rows of the chunk's stack: bitwise the point's value
    pack = oracles.config_example(f"--example {example}")
    points = pack.chart.sample(REFERENCE_SAMPLES, 42)
    frames = oracles.chunk_frames(pack, points)
    for fr in frames:
        st, k = fr._chunk, fr._k
        assert st.eta_circ_n1[k].hex() == oracles.eta_circ_n1_at_point(
            fr).hex()
        assert st.q_equals_id[k].hex() == oracles.q_equals_id_at_point(
            fr).hex()


@pytest.mark.parametrize("config", CONFIGS)
def test_theorem_gates_fail_where_the_point_gates_do(config):
    # every theorem bundle over a chunk raises at the chunk's first point
    # whose gates fail at that point alone, naming its first failing gate
    # and residual, and passes where none fails
    pack = oracles.config_example(config)
    points = pack.chart.sample(REFERENCE_SAMPLES, 42)
    frames = oracles.chunk_frames(pack, points)
    for st in {id(fr._chunk): fr._chunk for fr in frames}.values():
        frs = frames[st.rows.start:st.rows.start + len(st.rows)]
        for which in THEOREM_CHECKS:
            want = None
            for k, fr in enumerate(frs):
                try:
                    oracles.theorem_gates_at_point(fr, which, TOL)
                except HypothesisNotMet as exc:
                    want = (k, exc.gate, exc.residual.hex())
                    break
            try:
                theorem_check(pack, None, which, frame=st, tol_exact=TOL)
            except HypothesisNotMet as exc:
                assert (exc.row, exc.gate, exc.residual.hex()) == want, which
                continue
            assert want is None, which


GRID = (0.0, 1e-12, 1e-9, 5e-9, 0.5, 2.0, np.nan, np.inf)


def test_nearly_s_or_c_gate_is_the_point_oracle():
    # the gate "weak nearly S or weak nearly C" as a row: at each pair of
    # residuals on the grid, alone and as one row of a stack of them all,
    # the oracle's outcome, gate name and residual
    pairs = [(rs, rc) for rs in GRID for rc in GRID]
    st = SimpleNamespace(nearly_s_defining=np.array([rs for rs, _ in pairs]),
                         nearly_c_defining=np.array([rc for _, rc in pairs]))
    names, rows = _nearly_s_or_c(st, TOL)
    for k, (rs, rc) in enumerate(pairs):
        # a frame that reads the class residuals of one point
        fr = SimpleNamespace(nearly_s_defining=np.float64(rs),
                             nearly_c_defining=np.float64(rc))
        try:
            oracles.nearly_class_gate(fr, "prop1", TOL)
        except HypothesisNotMet as exc:
            want = (exc.gate, exc.residual.hex())
        else:
            want = None
        one = SimpleNamespace(nearly_s_defining=np.array([rs]),
                              nearly_c_defining=np.array([rc]))
        try:
            gated_rows("prop1", [_nearly_s_or_c(one, TOL)], TOL, dict)
        except HypothesisNotMet as exc:
            assert (exc.gate, exc.residual.hex()) == want, (rs, rc)
            assert (str(names[k]), rows[k].hex()) == want, (rs, rc)
            continue
        assert want is None and rows[k] <= TOL, (rs, rc)


def test_nearly_c_row_is_read_only_where_nearly_s_fails():
    # a stack without the nearly-C row: every nearly-S row passes
    st = SimpleNamespace(nearly_s_defining=np.array([0.0, 1e-9]))
    assert _nearly_s_or_c(st, TOL) == ("weak_nearly_S", st.nearly_s_defining)


def test_thm41_on_product_pack(cat_product):
    pack = cat_product.obj
    res = theorem_check(pack, None, "thm41", frame=_stack(pack, 4, 41))
    assert res["nabla_xi_zero"].max() <= TOL
    assert res["deta_on_d"].max() <= TOL
    assert res["coboundary_vs_connection"].max() <= TOL
    assert res["d_totally_geodesic"].max() <= TOL


def test_thm41_gate_rejects_sasakian(cat_sasakian):
    with pytest.raises(HypothesisNotMet) as err:
        theorem_check(cat_sasakian.obj, None, "thm41",
                      _stack(cat_sasakian.obj, 1, 43))
    assert err.value.gate == "weak_nearly_C"


def test_thm01_on_sasakian(cat_sasakian):
    pack = cat_sasakian.obj
    st = _stack(pack, 4, 47)
    res_i = theorem_check(pack, None, "thm01_i", frame=st)
    assert res_i["deta_equals_phi_q"].max() <= TOL
    assert res_i["eta_n1_expansion"].max() <= TOL
    assert res_i["eta_ff_reduction"].max() <= TOL
    res_ii = theorem_check(pack, None, "thm01_ii", frame=st)
    assert res_ii["n1_equals_qtilde_phi"].max() <= TOL
    assert res_ii["dphi_nabla_f_expansion"].max() <= TOL


def test_thm01_gates_reject_nearly_c_packs(cat_product):
    st = _stack(cat_product.obj, 1, 53)
    for which in ("thm01_i", "thm01_ii"):
        with pytest.raises(HypothesisNotMet) as err:
            theorem_check(cat_product.obj, None, which, st)
        assert err.value.gate == "weak_nearly_S"


def test_corollary_rigidity_on_sasakian(cat_sasakian):
    pack = cat_sasakian.obj
    res = theorem_check(pack, None, "corollary_rigidity",
                        frame=_stack(pack, 4, 59))
    assert res["s_structure_defining"].max() <= TOL


def test_corollary_gate_requires_q_identity(cat_flat):
    # flat pack is normal and nearly C but not nearly S: gate must fire
    with pytest.raises(HypothesisNotMet):
        theorem_check(cat_flat.obj, None, "corollary_rigidity",
                      _stack(cat_flat.obj, 1, 61))


def test_implication_lattice(all_packs):
    implications = [
        ("S_structure", "weak_nearly_S"),
        ("weak_C", "weak_nearly_C"),
    ]
    for cat in all_packs:
        pack = cat.obj
        for left, right in implications:
            lv = _verdict(pack, left, count=3)
            if lv.holds:
                rv = _verdict(pack, right, count=3)
                assert rv.holds, (cat.name, left, right)
        # weak almost S + Killing Reeb => f-K-contact
        av = _verdict(pack, "weak_almost_S", count=3)
        if av.holds:
            kil = max(
                max(PackFrame(pack, p).killing)
                for p in pack.chart.sample(3, 5)
            )
            if kil <= TOL:
                assert _verdict(pack, "f_K_contact", count=3).holds


def test_symmetrized_residual_matches_diagonal(all_packs):
    rng = np.random.default_rng(67)
    for cat in all_packs:
        pack = cat.obj
        p = pack.chart.sample(1, seed=71)[0]
        fr = PackFrame(pack, p, seed=71)
        for _ in range(4):
            x = rng.standard_normal(pack.dim)
            # a fresh frame, since its stack keeps the residual it computes
            one = PackFrame(pack, p, seed=71)
            one._chunk.tv = replace(fr._chunk.tv, vectors=x[None, None])
            pair = one.nearly_s_defining
            nf_xx = np.einsum("i,ikj,j->k", x, fr.nabla_f, x)
            fx = fr.f0 @ x
            diag = (
                nf_xx
                - float(fx @ fr.g0 @ fx) * fr.xibar
                - float(fr.etabar @ x) * (fr.f0 @ fx)
            )
            diag_norm = float(np.sqrt(2.0 * diag @ fr.g0 @ (2.0 * diag)))
            assert abs(pair - diag_norm) <= 1e-10


@pytest.mark.parametrize("params", [{}, {"n": 1, "s": 2}])
def test_sheared_flat_pack_keeps_every_verdict(params, monkeypatch):
    """The report does not depend on the chart: the flat pack pulled back
    by a nonlinear shear, on which the connection terms are not zero, gets
    the flat pack's verdict on every entry."""
    base = catalog.flat_pack(**params)
    sheared = replace(base, obj=sheared_pack(base.obj))
    monkeypatch.setitem(catalog.BUILDERS, "sheared_flat_pack", lambda: sheared)
    p = base.chart.sample(1, seed=3)[0]
    assert np.abs(PackFrame(sheared.obj, p).gamma).max() > 0.05

    def verdicts(example, params):
        rep = run_suite(SuiteConfig(example=example, params=params,
                                    suites=SUITES, samples=4))
        return {e["identity"]: e for entries in rep["suites"].values()
                for e in entries}

    got = verdicts("sheared_flat_pack", {})
    want = verdicts("flat_pack", params)
    assert {k: e["verdict"] for k, e in got.items()} == {
        k: e["verdict"] for k, e in want.items()}
    # the Reeb brackets with D are taken with X extended as a section of D;
    # a coordinate-constant X leaves D off the point and reads ~1e-2 here
    assert got["prop_normal.d_brackets_stay_in_d"]["max_residual"] <= 1e-14
