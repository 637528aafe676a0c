"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. The whole module is desk-scale (well under a minute
single-threaded).
"""

import json
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from conftest import interior_point, random_tensor_field, random_vector_field
from oracles import scale_field
from weakf.catalog import (
    flat_pack,
    hypersphere,
    linear_subspace,
    product_pack,
    rotated_pack,
    sasakian_s3,
)
from weakf.charts import constant_field, euclidean_metric
from weakf.classifiers import (
    class_residual,
    theorem_check,
)
from weakf.errors import InvalidExample
from weakf.fstructure import StructurePack, axioms_residual
from weakf.report import SuiteConfig, render_json, run_suite
from weakf.submanifold import thsubm_check

POINTS = 50
SEED = 42
TOL = 1e-9


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {desc}")
        raise
    print(f"[criterion {num:02d}] PASS  {desc}")


def _axioms_worst(pack, points=POINTS, seed=SEED):
    worst = 0.0
    for i, p in enumerate(pack.chart.sample(points, seed)):
        fr = oracles.frame(pack, p, seed=seed, index=i)
        worst = max(worst, max(axioms_residual(fr).values()))
    return worst


def _stack(pack):
    """The set-up stack of the POINTS sample points as one chunk."""
    return oracles.stack(pack, pack.chart.sample(POINTS, SEED), seed=SEED)


def test_criterion_01_axiom_suite(sphere_induced):
    packs = {
        "flat_pack": flat_pack().obj,
        "rotated_pack": rotated_pack(t=0.1).obj,
        "product_pack": product_pack().obj,
        "sasakian_s3": sasakian_s3().obj,
        "hypersphere_induced": sphere_induced,
    }
    with criterion(1, "axiom residuals <= 1e-9 on 50 seeded points per pack"):
        for name, pack in packs.items():
            worst = _axioms_worst(pack)
            assert worst <= TOL, (name, worst)


def test_criterion_02_blend_identity_and_rejection():
    with criterion(
        2, "blended-pair identity <= 1e-12 for t in {0.05, 0.1, 0.2}; "
           "degenerate t rejected"
    ):
        for t in (0.05, 0.1, 0.2):
            pack = rotated_pack(n=2, s=1, t=t).obj
            p = pack.chart.sample(1, seed=SEED)[0]
            f0 = pack.f.value(p)
            q0 = pack.Q.value(p)
            corr = np.einsum(
                "ik,ia->ka",
                np.array([x.value(p) for x in pack.xi]),
                np.array([e.value(p) for e in pack.eta]),
            )
            assert np.abs(f0 @ f0 + q0 - corr).max() <= 1e-12
        with pytest.raises(InvalidExample):
            rotated_pack(n=2, s=1, t=np.pi / 4)


def test_criterion_03_reeb_parallel_and_killing():
    pack = product_pack().obj
    with criterion(
        3, "product pack: D_{xi_j} xi_k <= 1e-9 and Killing <= 1e-9"
    ):
        res = theorem_check(pack, None, "prop1", frame=_stack(pack))
        assert res["reeb_parallel_pairs"].max() <= TOL
        assert res["reeb_killing"].max() <= TOL


def test_criterion_04_product_characterization():
    pack = product_pack().obj
    with criterion(
        4, "product pack: parallel Reeb frame, closed eta on D, "
           "totally geodesic contact distribution"
    ):
        res = theorem_check(pack, None, "thm41", frame=_stack(pack))
        assert res["nabla_xi_zero"].max() <= TOL
        assert res["deta_on_d"].max() <= TOL
        assert res["coboundary_vs_connection"].max() <= TOL
        assert res["d_totally_geodesic"].max() <= TOL


def test_criterion_05_gated_normality_consequences():
    pack = sasakian_s3().obj
    with criterion(
        5, "Sasakian sphere: gated d-eta/N1 identities and proof-internal "
           "expansions <= 1e-9"
    ):
        st = _stack(pack)
        res_i = theorem_check(pack, None, "thm01_i", frame=st)
        assert res_i["deta_equals_phi_q"].max() <= TOL
        assert res_i["eta_n1_expansion"].max() <= TOL
        assert res_i["eta_ff_reduction"].max() <= TOL
        res_ii = theorem_check(pack, None, "thm01_ii", frame=st)
        assert res_ii["n1_equals_qtilde_phi"].max() <= TOL
        assert res_ii["dphi_nabla_f_expansion"].max() <= TOL


def test_criterion_06_rigidity():
    pack = sasakian_s3().obj
    with criterion(
        6, "Sasakian sphere: normal + weak nearly S and the full "
           "S-structure equation <= 1e-9"
    ):
        st = _stack(pack)
        assert st.n1_zero.max() <= TOL
        assert st.nearly_s_defining.max() <= TOL
        res = theorem_check(pack, None, "corollary_rigidity", frame=st)
        assert res["s_structure_defining"].max() <= TOL


def test_criterion_07_submanifold_suite(sphere_induced, subspace_induced):
    sphere = hypersphere(n=1).obj
    subspace = linear_subspace(n=1, s=2).obj
    with criterion(
        7, "hypersphere: induced axioms <= 1e-10, case-i hypotheses and "
           "nearly-S conclusion; linear subspace: case ii and nearly-C"
    ):
        worst = _axioms_worst(sphere_induced, points=POINTS)
        assert worst <= 1e-10
        # one row per point of the 10
        res = thsubm_check(oracles.stack(
            sphere_induced, sphere.domain.sample(10, SEED), SEED), "i")
        for key in ("aa_symmetry", "h_display", "conclusion_weak_nearly_S"):
            assert res[key].shape == (10,) and res[key].max() <= TOL
        res = thsubm_check(oracles.stack(
            subspace_induced, subspace.domain.sample(10, SEED), SEED), "ii")
        for key in ("aa_symmetry", "h_display", "conclusion_weak_nearly_C"):
            assert res[key].shape == (10,) and res[key].max() <= TOL


def test_criterion_08_engine_cross_validation(all_packs):
    with criterion(
        8, "torsion modes agree <= 1e-9 (100 draws per chart); jet "
           "derivatives match finite differences <= 1e-6 relative; "
           "Reeb-sectional curvature 1 +- 1e-6"
    ):
        # (a) Nijenhuis commutator form versus connection form
        for cat in all_packs:
            chart = cat.obj.chart
            g = euclidean_metric(chart) if chart.name.startswith(
                ("flat", "rotated", "product")
            ) else cat.obj.g
            rng = np.random.default_rng([SEED, 77])
            for _ in range(100):
                s = random_tensor_field(chart, rng)
                x = random_vector_field(chart, rng)
                y = random_vector_field(chart, rng)
                p = interior_point(chart, rng)
                nb = oracles.nijenhuis(s, x, y, p, mode="bracket")
                nn = oracles.nijenhuis(s, x, y, p, mode="nabla", g=g)
                assert np.abs(nb - nn).max() <= TOL
        # (b) jet evaluator versus central finite differences
        step = 1e-5
        for cat in all_packs:
            pack = cat.obj
            for p in pack.chart.sample(3, SEED):
                for field in (pack.g, pack.f, pack.Q, pack.xi[0], pack.eta[0]):
                    _, d1 = field.jet(p, order=1)
                    flat = d1.reshape(-1, pack.dim)
                    for c in range(pack.dim):
                        e = np.zeros(pack.dim)
                        e[c] = step
                        fd = (
                            np.asarray(field.value(p + e))
                            - np.asarray(field.value(p - e))
                        ).reshape(-1) / (2 * step)
                        ad = flat[:, c]
                        assert np.abs(ad - fd).max() <= 1e-6 * (
                            1.0 + np.abs(ad).max()
                        )
        # (c) Reeb-sectional curvature of the Sasakian sphere, from the
        # stacked R(xi, .)xi: K(xi, X) = -g(R(xi, X)xi, X) / |xi ^ X|^2
        pack = sasakian_s3().obj
        rng = np.random.default_rng([SEED, 78])
        stack = oracles.stack(pack, pack.chart.sample(5, SEED), seed=SEED)
        for k in range(5):
            g0, xi, db = stack.g0[k], stack.xi0[k, 0], stack.d_basis[k]
            r = stack.reeb_curvature[k, 0]
            for x in rng.standard_normal((4, len(db))) @ db:
                gram = (x @ g0 @ x) * (xi @ g0 @ xi) - (x @ g0 @ xi) ** 2
                assert abs(-(r @ x) @ g0 @ x / gram - 1.0) <= 1e-6


def test_criterion_09_negative_controls():
    with criterion(
        9, "perturbed packs produce residuals >= 0.1 (scaled f, scaled eta, "
           "Q replaced by id)"
    ):
        sas = sasakian_s3().obj
        p = sas.chart.sample(1, SEED)[0]

        def replaced(pack, **kw):
            fields = dict(
                chart=pack.chart, f=pack.f, Q=pack.Q, xi=pack.xi,
                eta=pack.eta, g=pack.g, n=pack.n, s=pack.s,
            )
            fields.update(kw)
            return StructurePack(**fields)

        scaled_f = replaced(sas, f=scale_field(sas.f, 1.1))
        fr = oracles.frame(scaled_f, p)
        ax = axioms_residual(fr)
        assert ax["f_squared"] >= 0.1 and ax["compatibility"] >= 0.1
        assert fr.s_structure_defining >= 0.1

        scaled_eta = replaced(
            sas, eta=tuple(scale_field(e, 1.05) for e in sas.eta)
        )
        ax = axioms_residual(oracles.frame(scaled_eta, p))
        assert max(ax.values()) >= 0.1

        weak = flat_pack(n=2, s=1).obj  # Q = diag(1,1,4,4,1)
        q_id = replaced(
            weak, Q=constant_field(weak.chart, "tensor11", np.eye(5))
        )
        fr = oracles.frame(q_id, weak.chart.sample(1, SEED)[0])
        ax = axioms_residual(fr)
        assert ax["f_squared"] >= 0.1
        _, br = class_residual(q_id, fr.p, "weak_metric_f", fr)
        assert max(br.values()) >= 0.1


def test_criterion_10_deterministic_reports():
    with criterion(
        10, "verify --example sasakian_s3 --suites all --seed 42 is "
            "byte-identical across runs"
    ):
        cfg = SuiteConfig(
            example="sasakian_s3", params={},
            suites=("axioms", "classes", "frames", "theorems", "submanifold"),
            samples=POINTS, seed=SEED, fmt="json",
        )
        assert render_json(run_suite(cfg)) == render_json(run_suite(cfg))
        args = [
            sys.executable, "-m", "weakf", "verify",
            "--example", "sasakian_s3", "--suites", "all",
            "--seed", "42", "--format", "json",
        ]
        a = subprocess.run(args, capture_output=True, text=True)
        b = subprocess.run(args, capture_output=True, text=True)
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
        report = json.loads(a.stdout)
        assert report["overall"]["verdict"] == "pass"
        entries = {
            e["identity"]: e for e in report["suites"]["classes"]
        }
        assert entries["S_structure"]["max_residual"] <= TOL
