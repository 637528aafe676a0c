from dataclasses import dataclass, replace

import numpy as np
import pytest
from oracles import sheared_pack

from weakf import catalog
from weakf.charts import SmoothField
from weakf.classifiers import (
    class_residual,
    frame_residuals,
    killing_residuals,
    nearly_s_residual,
    q_parallel_residual,
    theorem_check,
)
from weakf.errors import HypothesisNotMet
from weakf.fstructure import PackFrame, StructurePack
from weakf.report import SUITES, SuiteConfig, run_suite

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
            assert max(killing_residuals(fr)) <= TOL

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
    assert killing_residuals(PackFrame(broken, p))[0] > 0.1


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
            assert fc.reeb_brackets <= TOL
            assert fc.reeb_flat <= TOL
            assert fc.reeb_totally_geodesic <= TOL
            assert fc.q_parallel_d <= TOL
            # the totally geodesic condition is the Reeb restriction of the
            # flatness condition, whose test set includes the Reeb fields
            assert fc.reeb_totally_geodesic <= fc.reeb_flat + 1e-12


def test_prop1_on_product_pack(cat_product):
    pack = cat_product.obj
    for i, p in enumerate(pack.chart.sample(4, seed=17)):
        fr = PackFrame(pack, p, seed=17, index=i)
        res = theorem_check(pack, p, "prop1", frame=fr)
        assert res["reeb_parallel_pairs"] <= TOL
        assert res["reeb_coparallel"] <= TOL
        assert res["reeb_killing"] <= TOL


def test_prop1_gate_rejects_non_nearly_pack(varying_q_pack):
    # valid weak pack, but the symmetrized derivative of f does not vanish
    # and does not match the nearly-S right side either
    p = varying_q_pack.chart.sample(1, seed=19)[0]
    with pytest.raises(HypothesisNotMet) as err:
        theorem_check(varying_q_pack, p, "prop1", PackFrame(varying_q_pack, p))
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
    p = pack.chart.sample(1, seed=19)[0]
    with pytest.raises(HypothesisNotMet) as err:
        theorem_check(broken, p, "prop1", PackFrame(broken, p))
    assert err.value.gate == "weak_metric_f_axioms"


def test_prop_normal_consequences(all_packs):
    # every catalog pack is normal, so the consequence bundle must hold
    for cat in all_packs:
        pack = cat.obj
        p = pack.chart.sample(1, seed=23)[0]
        res = theorem_check(pack, p, "prop_normal", PackFrame(pack, p))
        assert max(res.values()) <= TOL, (cat.name, res)


def test_fk_contact_nabla_on_sasakian(cat_sasakian):
    pack = cat_sasakian.obj
    for i, p in enumerate(pack.chart.sample(4, seed=29)):
        fr = PackFrame(pack, p, seed=29, index=i)
        res = theorem_check(pack, p, "fk_contact_nabla", frame=fr)
        assert res["nabla_xi_plus_f"] <= TOL


def test_fk_contact_gate_rejects_product(cat_product):
    pack = cat_product.obj
    p = pack.chart.sample(1, seed=31)[0]
    with pytest.raises(HypothesisNotMet) as err:
        theorem_check(pack, p, "fk_contact_nabla", PackFrame(pack, p))
    assert err.value.gate == "phi_equals_deta"


def test_thm32_chain_identifies_breaking_step(cat_sasakian):
    pack = cat_sasakian.obj
    for i, p in enumerate(pack.chart.sample(3, seed=37)):
        fr = PackFrame(pack, p, seed=37, index=i)
        res = theorem_check(pack, p, "thm32_chain", frame=fr)
        assert res["chain_connection_step"] <= 1e-6
        assert res["chain_algebra_step"] <= TOL
        assert res["f2_nonpositive"] == 0.0
        # the step needing the nearly-C identity is the one that breaks
        assert res["chain_nearly_c_step"] >= 0.5
        assert res["chain_total"] >= 0.5


def test_thm41_on_product_pack(cat_product):
    pack = cat_product.obj
    for i, p in enumerate(pack.chart.sample(4, seed=41)):
        fr = PackFrame(pack, p, seed=41, index=i)
        res = theorem_check(pack, p, "thm41", frame=fr)
        assert res["nabla_xi_zero"] <= TOL
        assert res["deta_on_d"] <= TOL
        assert res["coboundary_vs_connection"] <= TOL
        assert res["d_totally_geodesic"] <= TOL


def test_thm41_gate_rejects_sasakian(cat_sasakian):
    p = cat_sasakian.obj.chart.sample(1, seed=43)[0]
    with pytest.raises(HypothesisNotMet) as err:
        theorem_check(cat_sasakian.obj, p, "thm41",
                      PackFrame(cat_sasakian.obj, p))
    assert err.value.gate == "weak_nearly_C"


def test_thm01_on_sasakian(cat_sasakian):
    pack = cat_sasakian.obj
    for i, p in enumerate(pack.chart.sample(4, seed=47)):
        fr = PackFrame(pack, p, seed=47, index=i)
        res_i = theorem_check(pack, p, "thm01_i", frame=fr)
        assert res_i["deta_equals_phi_q"] <= TOL
        assert res_i["eta_n1_expansion"] <= TOL
        assert res_i["eta_ff_reduction"] <= TOL
        res_ii = theorem_check(pack, p, "thm01_ii", frame=fr)
        assert res_ii["n1_equals_qtilde_phi"] <= TOL
        assert res_ii["dphi_nabla_f_expansion"] <= TOL


def test_thm01_gates_reject_nearly_c_packs(cat_product):
    p = cat_product.obj.chart.sample(1, seed=53)[0]
    for which in ("thm01_i", "thm01_ii"):
        with pytest.raises(HypothesisNotMet) as err:
            theorem_check(cat_product.obj, p, which,
                          PackFrame(cat_product.obj, p))
        assert err.value.gate == "weak_nearly_S"


def test_corollary_rigidity_on_sasakian(cat_sasakian):
    pack = cat_sasakian.obj
    for i, p in enumerate(pack.chart.sample(4, seed=59)):
        fr = PackFrame(pack, p, seed=59, index=i)
        res = theorem_check(pack, p, "corollary_rigidity", frame=fr)
        assert res["s_structure_defining"] <= TOL


def test_corollary_gate_requires_q_identity(cat_flat):
    # flat pack is normal and nearly C but not nearly S: gate must fire
    p = cat_flat.obj.chart.sample(1, seed=61)[0]
    with pytest.raises(HypothesisNotMet):
        theorem_check(cat_flat.obj, p, "corollary_rigidity",
                      PackFrame(cat_flat.obj, p))


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
                max(killing_residuals(PackFrame(pack, p)))
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
            pair = nearly_s_residual(one)
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
