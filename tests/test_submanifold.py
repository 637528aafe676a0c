import numpy as np
import pytest

from oracles import second_fundamental
from weakf.catalog import hypersphere, linear_subspace
from weakf.charts import Chart, SmoothField, constant_field
from weakf.errors import HypothesisNotMet, SetupRejected
from weakf.fstructure import PackFrame, axioms_residual
from weakf.submanifold import (
    EmbeddedSubmanifold,
    ambient_nearly_kahler_residual,
    _AmbientPoint,
    frame_check,
    gauss_split_residual,
    induce_structure,
    lemma_parallel_claim,
    require_valid_frame,
    second_fundamental_data,
    thsubm_check,
)

TOL = 1e-9


def test_frame_requirements_on_hypersphere(cat_sphere):
    sub = cat_sphere.obj
    for p in sub.domain.sample(4, seed=3):
        res = frame_check(_AmbientPoint(sub, p))
        assert max(res.values()) <= 1e-10


def test_induced_sphere_pack_is_standard(cat_sphere, sphere_induced):
    pack = sphere_induced
    for i, p in enumerate(pack.chart.sample(4, seed=5)):
        fr = PackFrame(pack, p, seed=5, index=i)
        ax = axioms_residual(fr)
        assert max(ax.values()) <= 1e-10
        # standard ambient: induced Q is the identity
        assert np.abs(fr.q0 - np.eye(3)).max() <= 1e-10


def test_weak_skew_sphere_partial_axioms(cat_sphere_weak):
    """A constant non-standard skew keeps the algebraic identities but
    cannot normalize the Reeb data on a full sphere."""
    sub = cat_sphere_weak.obj
    induced = induce_structure(sub)
    worst = {}
    for i, p in enumerate(induced.chart.sample(4, seed=7)):
        fr = PackFrame(induced, p, seed=7, index=i)
        for k, v in axioms_residual(fr).items():
            worst[k] = max(worst.get(k, 0.0), v)
        # genuinely weak: Q differs from the identity but stays
        # positive-definite
        assert np.abs(fr.q0 - np.eye(3)).max() > 0.1
    for key in ("f_squared", "compatibility", "f_skew", "q_selfadjoint",
                "q_positive", "eta_metric_dual"):
        assert worst[key] <= 1e-10, (key, worst[key])
    for key in ("eta_xi_pairing", "xi_orthonormal", "f_kills_xi"):
        assert worst[key] > 0.1, (key, worst[key])


def test_second_fundamental_sphere_shape_operator():
    outward = hypersphere(n=1, normal="outward").obj
    inward = hypersphere(n=1, normal="inward").obj
    p = outward.domain.sample(1, seed=11)[0]
    rng = np.random.default_rng(11)
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    g_out = induce_structure(outward).g.value(p)
    h_vec, a_list = second_fundamental(outward, x, y, p)
    # outward position normal: A = -id and h_N = -g
    assert np.abs(a_list[0] + x).max() <= 1e-12
    ap = _AmbientPoint(outward, p)
    hn = float(ap.normals[0] @ ap.gbar0 @ h_vec)
    assert abs(hn + float(x @ g_out @ y)) <= 1e-12
    # inward normal flips the sign: h_N = +g
    sfd = second_fundamental_data(_AmbientPoint(inward, p))
    g_in = induce_structure(inward).g.value(p)
    assert abs(sfd.hN(0, x, y) - float(x @ g_in @ y)) <= 1e-12
    assert np.abs(sfd.A[0] - np.eye(3)).max() <= 1e-12


def test_second_fundamental_affine_subspace(cat_subspace):
    sub = cat_subspace.obj
    p = sub.domain.sample(1, seed=13)[0]
    rng = np.random.default_rng(13)
    x = rng.standard_normal(sub.domain.dim)
    y = rng.standard_normal(sub.domain.dim)
    h_vec, a_list = second_fundamental(sub, x, y, p)
    assert np.abs(h_vec).max() == 0.0
    for a in a_list:
        assert np.abs(a).max() == 0.0


def test_weingarten_duality_and_symmetry(cat_sphere):
    sub = cat_sphere.obj
    induced = induce_structure(sub)
    rng = np.random.default_rng(17)
    for p in sub.domain.sample(3, seed=17):
        ap = _AmbientPoint(sub, p)
        sfd = second_fundamental_data(ap)
        g0 = induced.g.value(p)
        for _ in range(4):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            hv = sfd.h(x, y)
            assert np.abs(hv - sfd.h(y, x)).max() <= 1e-12
            for i in range(sub.s):
                lhs = float(ap.normals[i] @ ap.gbar0 @ hv)
                rhs = float((sfd.A[i] @ x) @ g0 @ y)
                assert abs(lhs - rhs) <= TOL


def test_gauss_split_exact(cat_sphere, sphere_induced, cat_subspace,
                           subspace_induced):
    for cat, induced in ((cat_sphere, sphere_induced),
                         (cat_subspace, subspace_induced)):
        sub = cat.obj
        for i, p in enumerate(sub.domain.sample(3, seed=19)):
            fr = PackFrame(induced, p, seed=19, index=i)
            assert gauss_split_residual(_AmbientPoint(sub, p), fr) <= TOL


def test_curved_ambient_gauss_and_weingarten():
    """Hyperbolic half-plane ambient: the connection terms carry the whole
    computation (flat part of the embedding is constant)."""
    domain = Chart("line", 1, ((0.8, 2.5),))
    ambient = Chart("halfplane", 2, ((-3.0, 3.0), (0.5, 4.0)))
    gbar = SmoothField(
        ambient, "metric",
        lambda u: [[1.0 / u[1] ** 2, 0.0], [0.0, 1.0 / u[1] ** 2]],
    )
    fbar = constant_field(ambient, "tensor11", [[0.0, -1.0], [1.0, 0.0]])

    # vertical geodesic x = 0.3, unit normal N = y d_x
    vertical = EmbeddedSubmanifold(
        domain=domain, ambient=ambient, ambient_metric=gbar,
        ambient_skew=fbar,
        embedding=lambda u: [0.3, u[0]],
        normals=lambda u: [[u[0], 0.0]],
        n=0, s=1,
    )
    p = np.array([1.4])
    h_vec, a_list = second_fundamental(vertical, np.array([1.0]),
                                       np.array([1.0]), p)
    assert np.abs(h_vec).max() <= 1e-14

    # horizontal curve y = 1.3 (not geodesic): duality still ties h and A
    horizontal = EmbeddedSubmanifold(
        domain=Chart("hline", 1, ((-2.0, 2.0),)), ambient=ambient,
        ambient_metric=gbar, ambient_skew=fbar,
        embedding=lambda u: [u[0], 1.3],
        normals=lambda u: [[0.0, 1.3]],
        n=0, s=1,
    )
    q = np.array([0.4])
    ap = _AmbientPoint(horizontal, q)
    sfd = second_fundamental_data(ap)
    x = np.array([1.0])
    g0 = ap.g0
    assert abs(sfd.hN(0, x, x) - float((sfd.A[0] @ x) @ g0 @ x)) <= 1e-12
    assert abs(sfd.hN(0, x, x)) > 1e-3


def test_thsubm_case_i_on_hypersphere(cat_sphere, sphere_induced):
    sub = cat_sphere.obj
    for i, p in enumerate(sub.domain.sample(3, seed=23)):
        fr = PackFrame(sphere_induced, p, seed=23, index=i)
        ap = _AmbientPoint(sub, p)
        res = thsubm_check(ap, fr, "i")
        assert res["aa_symmetry"] == 0.0  # single normal: trivially symmetric
        assert res["h_display"] <= TOL
        assert res["shape_display_duality"] <= 1e-10
        assert res["weingarten_duality"] <= TOL
        assert res["tangential_expansion"] <= TOL
        assert res["conclusion_weak_nearly_S"] <= TOL
        # orientation pin: the inward normal gives h_N(xi, xi) = +1
        sfd = second_fundamental_data(ap)
        assert sfd.hN(0, fr.xi0[0], fr.xi0[0]) == pytest.approx(1.0, abs=1e-10)
        # the other case's display must fail on a sphere
        res2 = thsubm_check(ap, fr, "ii")
        assert res2["h_display"] >= 0.5


def test_thsubm_case_ii_on_linear_subspace(cat_subspace, subspace_induced):
    sub = cat_subspace.obj
    for i, p in enumerate(sub.domain.sample(3, seed=29)):
        fr = PackFrame(subspace_induced, p, seed=29, index=i)
        ap = _AmbientPoint(sub, p)
        res = thsubm_check(ap, fr, "ii")
        assert res["aa_symmetry"] <= 1e-14
        assert res["h_display"] <= 1e-14
        assert res["conclusion_weak_nearly_C"] <= TOL
        res1 = thsubm_check(ap, fr, "i")
        assert res1["h_display"] >= 0.5


def test_thsubm_rejects_non_nearly_kahler_ambient():
    domain = Chart("hopf_s3", 3,
                   ((0.25, np.pi / 2 - 0.25), (0.3, 5.9), (0.3, 5.9)))
    ambient = Chart("flat_r4", 4, ((-1.2, 1.2),) * 4)
    base = hypersphere(n=1).obj

    def skew_fn(u):
        s = 1.0 + 0.2 * u[0]
        return [
            [0.0, -s, 0.0, 0.0],
            [s, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -s],
            [0.0, 0.0, s, 0.0],
        ]

    sub = EmbeddedSubmanifold(
        domain=domain, ambient=ambient,
        ambient_metric=base.ambient_metric,
        ambient_skew=SmoothField(ambient, "tensor11", skew_fn),
        embedding=base.embedding, normals=base.normals, n=1, s=1,
    )
    p = domain.sample(1, seed=31)[0]
    ap = _AmbientPoint(sub, p)
    assert ambient_nearly_kahler_residual(ap) > 1e-3
    with pytest.raises(HypothesisNotMet) as err:
        thsubm_check(ap, PackFrame(induce_structure(sub, validate=False), p),
                     "i")
    assert err.value.gate == "ambient_weak_nearly_kahler"


def test_lemma_parallel_claim(cat_sphere, sphere_induced, cat_subspace,
                              subspace_induced, cat_sphere_weak):
    for cat, induced in ((cat_sphere, sphere_induced),
                         (cat_subspace, subspace_induced)):
        sub = cat.obj
        p = sub.domain.sample(1, seed=37)[0]
        res = lemma_parallel_claim(_AmbientPoint(sub, p), PackFrame(induced, p))
        assert res["q_parallel_d"] <= TOL
        assert res["q_parallel_expansion"] <= TOL
    # the weak skew moves fbar^2 N off the normal bundle: gate must fire
    sub = cat_sphere_weak.obj
    p = sub.domain.sample(1, seed=37)[0]
    with pytest.raises(HypothesisNotMet) as err:
        lemma_parallel_claim(_AmbientPoint(sub, p), PackFrame(
            induce_structure(sub, validate=False), p))
    assert err.value.gate == "fbar_sq_normal_is_normal"


def test_setup_rejection_on_bad_normals():
    base = hypersphere(n=1).obj
    bad = EmbeddedSubmanifold(
        domain=base.domain, ambient=base.ambient,
        ambient_metric=base.ambient_metric, ambient_skew=base.ambient_skew,
        embedding=base.embedding,
        normals=lambda u, emb=base.embedding: [
            [-2.0 * c for c in emb(u)]
        ],
        n=1, s=1,
    )
    mid = np.array([0.5 * (lo + hi) for lo, hi in base.domain.box])
    with pytest.raises(SetupRejected):
        require_valid_frame(bad, mid)


def test_induced_f_squared_expansion(sphere_induced, subspace_induced):
    # f^2 X + QX - sum_i eta^i(X) xi_i = 0 on induced packs
    for pack in (sphere_induced, subspace_induced):
        p = pack.chart.sample(1, seed=41)[0]
        fr = PackFrame(pack, p, seed=41)
        rng = np.random.default_rng(41)
        for _ in range(4):
            x = rng.standard_normal(pack.dim)
            lhs = fr.f0 @ (fr.f0 @ x) + fr.q0 @ x
            rhs = sum(
                float(fr.eta0[i] @ x) * fr.xi0[i] for i in range(pack.s)
            )
            assert np.abs(lhs - rhs).max() <= 1e-10
