"""Operation-level checks for the chart calculus.

Finite differences (central, step 1e-5) serve as the independent oracle for
everything the jets produce; closed-form constant-curvature values pin the
curvature path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    interior_point,
    random_oneform_field,
    random_scalar_fn,
    random_tensor_field,
    random_vector_field,
)
from oracles import (
    DegeneratePlaneError,
    fundamental_form_field,
    phi,
    tensor_apply_field,
)
from weakf import calculus as calc
from weakf.charts import Chart, SmoothField, constant_field, euclidean_metric
from weakf.errors import DegenerateMetricError
from weakf.fstructure import PackFrame
from weakf.jets import cos, sin

FD = 1e-5


@pytest.fixture(scope="module")
def sphere2():
    chart = Chart("s2", 2, ((0.2, np.pi - 0.2), (0.2, 6.0)))
    metric = SmoothField(
        chart, "metric", lambda u: [[1.0, 0.0], [0.0, sin(u[0]) ** 2]]
    )
    return chart, metric


@pytest.fixture(scope="module")
def halfplane():
    chart = Chart("halfplane", 2, ((-3.0, 3.0), (0.5, 5.0)))
    metric = SmoothField(
        chart,
        "metric",
        lambda u: [[1.0 / u[1] ** 2, 0.0], [0.0, 1.0 / u[1] ** 2]],
    )
    return chart, metric


def fd_christoffel(metric, p, h=FD):
    """Independent Levi-Civita oracle from central differences of g."""
    m = len(p)
    g0 = metric.value(p)
    dg = np.empty((m, m, m))  # dg[c,a,b] = d_c g_ab
    for c in range(m):
        e = np.zeros(m)
        e[c] = h
        dg[c] = (metric.value(p + e) - metric.value(p - e)) / (2 * h)
    ginv = np.linalg.inv(g0)
    gamma = np.empty((m, m, m))
    for k in range(m):
        for i in range(m):
            for j in range(m):
                gamma[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                    for l in range(m)
                )
    return gamma


def fd_riemann(metric, p, h=1e-4):
    """Curvature oracle: finite differences of the finite-difference gamma."""
    m = len(p)
    gamma = fd_christoffel(metric, p)
    dgamma = np.empty((m, m, m, m))  # d_c gamma[k,i,j]
    for c in range(m):
        e = np.zeros(m)
        e[c] = h
        dgamma[c] = (fd_christoffel(metric, p + e) - fd_christoffel(metric, p - e)) / (
            2 * h
        )
    riem = np.empty((m, m, m, m))
    for l in range(m):
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    riem[l, i, j, k] = (
                        dgamma[i, l, j, k]
                        - dgamma[j, l, i, k]
                        + sum(gamma[l, i, a] * gamma[a, j, k] for a in range(m))
                        - sum(gamma[l, j, a] * gamma[a, i, k] for a in range(m))
                    )
    return riem


# -- christoffel ---------------------------------------------------------------


def test_christoffel_euclidean_vanishes(r3):
    g = euclidean_metric(r3)
    p = np.array([0.3, -0.2, 1.0])
    assert np.abs(oracles.christoffel(g, p)).max() == 0.0


def test_christoffel_round_sphere_value(sphere2):
    chart, g = sphere2
    p = np.array([np.pi / 4, 1.3])
    gamma = oracles.christoffel(g, p)
    oracle = fd_christoffel(g, p)
    assert np.abs(gamma - oracle).max() < 1e-9
    assert gamma[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)


def test_christoffel_poincare_value(halfplane):
    chart, g = halfplane
    p = np.array([0.0, 2.0])
    gamma = oracles.christoffel(g, p)
    oracle = fd_christoffel(g, p)
    assert np.abs(gamma - oracle).max() < 1e-9
    assert gamma[0, 0, 1] == pytest.approx(-0.5, abs=1e-12)


def test_christoffel_metric_compatibility(sphere2):
    chart, g = sphere2
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = interior_point(chart, rng)
        g0, g1 = g.jet(p, order=1)
        gamma = calc.christoffel_from_jets(calc.metric_inverse(g0), g1)
        # d_k g_ij - gamma^l_{ki} g_lj - gamma^l_{kj} g_il
        comp = g1 - np.einsum("lki,lj->ijk", gamma, g0) - np.einsum(
            "lkj,il->ijk", gamma, g0
        )
        assert np.abs(comp).max() < 1e-10


def test_degenerate_metric_raises(r3):
    bad = constant_field(r3, "metric", np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(DegenerateMetricError) as err:
        oracles.christoffel(bad, np.zeros(3))
    assert err.value.min_eigenvalue <= 1e-12


# -- covariant derivatives -------------------------------------------------------


def test_nabla_vector_flat_constants(r3):
    g = euclidean_metric(r3)
    x = constant_field(r3, "vector", [1.0, 0.0, 0.0])
    y = constant_field(r3, "vector", [0.0, 2.0, -1.0])
    assert np.abs(oracles.nabla_vector(g, x, y, np.zeros(3))).max() == 0.0


def test_nabla_vector_coordinate_derivative(r3):
    g = euclidean_metric(r3)
    x = constant_field(r3, "vector", [1.0, 0.0, 0.0])
    y = SmoothField(r3, "vector", lambda u: [u[0] ** 2, 0.0, 0.0])
    p = np.array([0.7, 0.0, 0.0])
    out = oracles.nabla_vector(g, x, y, p)
    assert np.allclose(out, [1.4, 0.0, 0.0], atol=1e-14)


def test_torsion_free_and_metric_compatible(sphere2):
    chart, g = sphere2
    rng = np.random.default_rng(11)
    for _ in range(4):
        p = interior_point(chart, rng)
        rng2 = np.random.default_rng(12)
        x = random_vector_field(chart, rng2)
        y = random_vector_field(chart, rng2)
        z = random_vector_field(chart, rng2)
        lhs = (
            oracles.nabla_vector(g, x, y, p)
            - oracles.nabla_vector(g, y, x, p)
            - oracles.lie_bracket(x, y, p)
        )
        assert np.abs(lhs).max() < 1e-10
        # X g(Y,Z) = g(D_X Y, Z) + g(Y, D_X Z)
        h = FD
        x0 = x.value(p)

        def gyz(q):
            return float(y.value(q) @ g.value(q) @ z.value(q))

        xg = sum(
            x0[c] * (gyz(p + h * e) - gyz(p - h * e)) / (2 * h)
            for c, e in enumerate(np.eye(chart.dim))
        )
        g0 = g.value(p)
        rhs = oracles.nabla_vector(g, x, y, p) @ g0 @ z.value(p) + y.value(
            p
        ) @ g0 @ oracles.nabla_vector(g, x, z, p)
        assert abs(xg - rhs) < 1e-6


def test_nabla_vector_product_rule(r3):
    g = euclidean_metric(r3)
    rng = np.random.default_rng(5)
    x = random_vector_field(r3, rng)
    y = random_vector_field(r3, rng)
    hfn = random_scalar_fn(rng)
    hy = SmoothField(
        r3, "vector", lambda u: [hfn(u) * c for c in y.fn(u)]
    )
    p = interior_point(r3, rng)
    left = oracles.nabla_vector(g, x, hy, p)
    # X(h) Y + h D_X Y
    x0 = x.value(p)
    xh = sum(
        x0[c]
        * (hfn(list(p + FD * e)) - hfn(list(p - FD * e)))
        / (2 * FD)
        for c, e in enumerate(np.eye(3))
    )
    right = xh * y.value(p) + hfn(list(p)) * oracles.nabla_vector(g, x, y, p)
    assert np.abs(left - right).max() < 1e-6


def test_nabla_tensor11_constant_parallel(r3):
    g = euclidean_metric(r3)
    t = constant_field(r3, "tensor11", np.arange(9.0).reshape(3, 3))
    x = constant_field(r3, "vector", [1.0, 1.0, 0.0])
    y = constant_field(r3, "vector", [0.0, 1.0, 2.0])
    assert np.abs(oracles.nabla_tensor11(g, t, x, y, np.zeros(3))).max() == 0.0


def test_nabla_tensor11_leibniz_and_extension_independence(sphere2):
    chart, g = sphere2
    rng = np.random.default_rng(21)
    t = random_tensor_field(chart, rng)
    x = random_vector_field(chart, rng)
    p = interior_point(chart, rng)
    yval = rng.standard_normal(chart.dim)
    y1 = constant_field(chart, "vector", yval)
    # second extension agreeing with y1 at p
    w = rng.standard_normal(chart.dim)
    y2 = SmoothField(
        chart,
        "vector",
        lambda u, yv=tuple(yval), w=tuple(w), p0=float(p[0]): [
            yv[k] + (u[0] - p0) * w[k] for k in range(len(yv))
        ],
    )
    out1 = oracles.nabla_tensor11(g, t, x, y1, p)
    out2 = oracles.nabla_tensor11(g, t, x, y2, p)
    assert np.abs(out1 - out2).max() < 1e-12
    # (D_X T)Y = D_X (TY) - T(D_X Y) for the field extension y1
    ty = tensor_apply_field(t, y1)
    lhs = oracles.nabla_vector(g, x, ty, p) - t.value(p) @ oracles.nabla_vector(
        g, x, y1, p
    )
    assert np.abs(out1 - lhs).max() < 1e-12


def test_nabla_vector_sasakian_reeb_parallel(cat_sasakian):
    pack = cat_sasakian.obj
    for p in pack.chart.sample(4, seed=83):
        out = oracles.nabla_vector(pack.g, pack.xi[0], pack.xi[0], p)
        assert np.abs(out).max() < 1e-9


def test_nabla_tensor11_sasakian_defining_relation(cat_sasakian):
    # (D_X f)Y = g(X,Y) xi - eta(Y) X on the Sasakian sphere
    pack = cat_sasakian.obj
    rng = np.random.default_rng(85)
    for p in pack.chart.sample(3, seed=85):
        g0 = pack.g.value(p)
        eta0 = pack.eta[0].value(p)
        xi0 = pack.xi[0].value(p)
        for _ in range(3):
            xv = rng.standard_normal(3)
            yv = rng.standard_normal(3)
            x = constant_field(pack.chart, "vector", xv)
            y = constant_field(pack.chart, "vector", yv)
            out = oracles.nabla_tensor11(pack.g, pack.f, x, y, p)
            expected = float(xv @ g0 @ yv) * xi0 - float(eta0 @ yv) * xv
            assert np.abs(out - expected).max() < 1e-9


def test_nabla_tensor11_product_pack_symmetrized(cat_product):
    # constant contact-factor structure: (D_X f)Y + (D_Y f)X = 0
    pack = cat_product.obj
    rng = np.random.default_rng(87)
    p = pack.chart.sample(1, seed=87)[0]
    for _ in range(3):
        x = constant_field(pack.chart, "vector", rng.standard_normal(pack.dim))
        y = constant_field(pack.chart, "vector", rng.standard_normal(pack.dim))
        out = oracles.nabla_tensor11(pack.g, pack.f, x, y, p) + oracles.nabla_tensor11(
            pack.g, pack.f, y, x, p
        )
        assert np.abs(out).max() < 1e-12


def test_lie_bracket_reeb_fields_commute(cat_product):
    pack = cat_product.obj
    p = pack.chart.sample(1, seed=89)[0]
    for i in range(pack.s):
        for j in range(pack.s):
            out = oracles.lie_bracket(pack.xi[i], pack.xi[j], p)
            assert np.abs(out).max() < 1e-12


# -- brackets and Lie derivatives -------------------------------------------------


def test_lie_bracket_constants_and_textbook(r3):
    x = constant_field(r3, "vector", [1.0, 2.0, 3.0])
    y = constant_field(r3, "vector", [0.0, 1.0, -1.0])
    assert np.abs(oracles.lie_bracket(x, y, np.zeros(3))).max() == 0.0
    r2 = Chart("r2", 2, ((-2.0, 2.0),) * 2)
    dx = constant_field(r2, "vector", [1.0, 0.0])
    xdy = SmoothField(r2, "vector", lambda u: [0.0, u[0]])
    out = oracles.lie_bracket(dx, xdy, np.array([0.4, -0.3]))
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)


def test_lie_bracket_antisymmetric_jacobi(r3):
    rng = np.random.default_rng(31)
    x = random_vector_field(r3, rng)
    y = random_vector_field(r3, rng)
    z = random_vector_field(r3, rng)
    p = interior_point(r3, rng)
    assert np.abs(
        oracles.lie_bracket(x, y, p) + oracles.lie_bracket(y, x, p)
    ).max() < 1e-14

    def bracket_field(a, b):
        def fn(u, afn=a.fn, bfn=b.fn):
            lifted = oracles.lift(list(u), order=1)
            av = afn(lifted)
            bv = bfn(lifted)
            m = len(av)
            lvl = lifted[0].level
            out = []
            for k in range(m):
                va, ga, _ = oracles.parts(av[k], m, 1, lvl)
                vb, gb, _ = oracles.parts(bv[k], m, 1, lvl)
                acc = 0.0
                for i in range(m):
                    vai, _, _ = oracles.parts(av[i], m, 1, lvl)
                    vbi, _, _ = oracles.parts(bv[i], m, 1, lvl)
                    acc = acc + vai * gb[i] - vbi * ga[i]
                out.append(acc)
            return out

        return SmoothField(a.chart, "vector", fn)

    jac = (
        oracles.lie_bracket(bracket_field(x, y), z, p)
        + oracles.lie_bracket(bracket_field(y, z), x, p)
        + oracles.lie_bracket(bracket_field(z, x), y, p)
    )
    assert np.abs(jac).max() < 1e-9


def test_lie_derivative_translation_and_homothety(r3):
    g = euclidean_metric(r3)
    const = constant_field(r3, "vector", [0.3, -1.0, 0.5])
    p = np.array([0.2, 0.1, -0.4])
    assert np.abs(oracles.lie_derivative(g, const, p)).max() == 0.0
    radial = SmoothField(r3, "vector", lambda u: [u[0], u[1], u[2]])
    out = oracles.lie_derivative(g, radial, p)
    assert np.abs(out - 2.0 * np.eye(3)).max() < 1e-14


def test_lie_derivative_sasakian_reeb_killing(cat_sasakian):
    pack = cat_sasakian.obj
    for i, p in enumerate(pack.chart.sample(5, seed=9)):
        out = oracles.lie_derivative(pack.g, pack.xi[0], p)
        assert np.abs(out).max() < 1e-9


def test_lie_derivative_oneform_tensor_kinds(r3):
    rng = np.random.default_rng(41)
    x = random_vector_field(r3, rng)
    w = random_oneform_field(r3, rng)
    t = random_tensor_field(r3, rng)
    p = interior_point(r3, rng)
    # Cartan-style consistency: (L_X w)(Y) = X(w(Y)) - w([X,Y]) for constant Y
    yv = rng.standard_normal(3)
    lw = oracles.lie_derivative(w, x, p)
    x0 = x.value(p)

    def wy(q):
        return float(w.value(q) @ yv)

    xwy = sum(
        x0[c] * (wy(p + FD * e) - wy(p - FD * e)) / (2 * FD)
        for c, e in enumerate(np.eye(3))
    )
    ycst = constant_field(r3, "vector", yv)
    br = oracles.lie_bracket(x, ycst, p)
    assert abs(lw @ yv - (xwy - w.value(p) @ br)) < 1e-6
    # tensor kind: (L_X T)Y = [X, TY] - T([X, Y]) for constant Y
    lt = oracles.lie_derivative(t, x, p)
    ty = tensor_apply_field(t, ycst)
    rhs = oracles.lie_bracket(x, ty, p) - t.value(p) @ br
    assert np.abs(lt @ yv - rhs).max() < 1e-12


# -- exterior derivatives ----------------------------------------------------------


def test_d_oneform_conventions(r3):
    r2 = Chart("r2", 2, ((-2.0, 2.0),) * 2)
    dx = constant_field(r2, "oneform", [1.0, 0.0])
    e1 = constant_field(r2, "vector", [1.0, 0.0])
    e2 = constant_field(r2, "vector", [0.0, 1.0])
    p = np.array([0.3, 0.8])
    assert oracles.d_oneform(dx, e1, e2, p) == 0.0
    xdy = SmoothField(r2, "oneform", lambda u: [0.0, u[0]])
    assert oracles.d_oneform(xdy, e1, e2, p) == pytest.approx(0.5, abs=1e-15)
    assert oracles.d_oneform(xdy, e2, e1, p) == pytest.approx(-0.5, abs=1e-15)


def test_d_oneform_exact_forms_closed(r3):
    # w = dh for h = x sin(y) + z^2
    w = SmoothField(
        r3,
        "oneform",
        lambda u: [sin(u[1]), u[0] * cos(u[1]), 2.0 * u[2]],
    )
    rng = np.random.default_rng(51)
    x = random_vector_field(r3, rng)
    y = random_vector_field(r3, rng)
    for _ in range(3):
        p = interior_point(r3, rng)
        assert abs(oracles.d_oneform(w, x, y, p)) < 1e-10


def test_d_oneform_extension_independent(r3):
    rng = np.random.default_rng(61)
    w = random_oneform_field(r3, rng)
    p = interior_point(r3, rng)
    xv = rng.standard_normal(3)
    yv = rng.standard_normal(3)
    x1 = constant_field(r3, "vector", xv)
    y1 = constant_field(r3, "vector", yv)
    x2 = SmoothField(
        r3,
        "vector",
        lambda u, xv=tuple(xv), p0=float(p[1]): [
            xv[k] + (u[1] - p0) * 0.7 for k in range(3)
        ],
    )
    a = oracles.d_oneform(w, x1, y1, p)
    b = oracles.d_oneform(w, x2, y1, p)
    assert abs(a - b) < 1e-12


def test_d_oneform_sasakian_contact_form(cat_sasakian):
    pack = cat_sasakian.obj
    rng = np.random.default_rng(71)
    for i, p in enumerate(pack.chart.sample(4, seed=13)):
        xv = rng.standard_normal(3)
        yv = rng.standard_normal(3)
        x = constant_field(pack.chart, "vector", xv)
        y = constant_field(pack.chart, "vector", yv)
        de = oracles.d_oneform(pack.eta[0], x, y, p)
        assert abs(de - phi(pack, xv, yv, p)) < 1e-9


def test_d_twoform_constant_and_block(r3):
    w = constant_field(
        r3, "twoform", np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.5], [0.0, -0.5, 0.0]])
    )
    e = [constant_field(r3, "vector", v) for v in np.eye(3)]
    p = np.array([0.1, 0.2, 0.3])
    assert oracles.d_twoform(w, e[0], e[1], e[2], p) == 0.0

    # w(d_y, d_z) = x block: the third-normalized co-boundary gives 1/3
    def block(u):
        return [[0.0, 0.0, 0.0], [0.0, 0.0, u[0]], [0.0, -u[0], 0.0]]

    wx = SmoothField(r3, "twoform", block)
    val = oracles.d_twoform(wx, e[0], e[1], e[2], p)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_d_twoform_fully_antisymmetric(r3):
    rng = np.random.default_rng(81)
    fns = [[random_scalar_fn(rng) for _ in range(3)] for _ in range(3)]

    def anti(u):
        raw = [[f(u) for f in row] for row in fns]
        return [
            [raw[a][b] - raw[b][a] for b in range(3)] for a in range(3)
        ]

    w = SmoothField(r3, "twoform", anti)
    x = random_vector_field(r3, rng)
    y = random_vector_field(r3, rng)
    z = random_vector_field(r3, rng)
    p = interior_point(r3, rng)
    v = oracles.d_twoform(w, x, y, z, p)
    assert abs(v + oracles.d_twoform(w, y, x, z, p)) < 1e-12
    assert abs(v - oracles.d_twoform(w, y, z, x, p)) < 1e-12


def test_d_twoform_sasakian_fundamental_closed(cat_sasakian):
    pack = cat_sasakian.obj
    phi_field = fundamental_form_field(pack)
    rng = np.random.default_rng(91)
    for p in pack.chart.sample(3, seed=17):
        vecs = [
            constant_field(pack.chart, "vector", rng.standard_normal(3))
            for _ in range(3)
        ]
        assert abs(oracles.d_twoform(phi_field, *vecs, p)) < 1e-9


def test_d_of_d_vanishes(r3):
    rng = np.random.default_rng(101)
    w = random_oneform_field(r3, rng)

    def dw_fn(u, wf=w):
        lifted = oracles.lift(list(u), order=1)
        comps = wf.fn(lifted)
        m = len(comps)
        lvl = lifted[0].level
        graded = [oracles.parts(c, m, 1, lvl) for c in comps]
        return [
            [0.5 * (graded[b][1][a] - graded[a][1][b]) for b in range(m)]
            for a in range(m)
        ]

    dw = SmoothField(r3, "twoform", dw_fn)
    x = random_vector_field(r3, rng)
    y = random_vector_field(r3, rng)
    z = random_vector_field(r3, rng)
    for _ in range(3):
        p = interior_point(r3, rng)
        assert abs(oracles.d_twoform(dw, x, y, z, p)) < 1e-9


# -- Nijenhuis torsion --------------------------------------------------------------


def test_nijenhuis_constant_tensor_flat(r3):
    s = constant_field(r3, "tensor11", np.arange(9.0).reshape(3, 3) / 4.0)
    x = constant_field(r3, "vector", [1.0, 0.5, 0.0])
    y = constant_field(r3, "vector", [0.0, 1.0, -1.0])
    p = np.zeros(3)
    assert np.abs(oracles.nijenhuis(s, x, y, p, mode="bracket")).max() == 0.0


def test_nijenhuis_modes_agree_random(r3):
    g = euclidean_metric(r3)
    rng = np.random.default_rng(111)
    for _ in range(20):
        s = random_tensor_field(r3, rng)
        x = random_vector_field(r3, rng)
        y = random_vector_field(r3, rng)
        p = interior_point(r3, rng)
        nb = oracles.nijenhuis(s, x, y, p, mode="bracket")
        nn = oracles.nijenhuis(s, x, y, p, mode="nabla", g=g)
        assert np.abs(nb - nn).max() < 1e-9
        assert np.abs(
            nb + oracles.nijenhuis(s, y, x, p, mode="bracket")
        ).max() < 1e-12


def test_nijenhuis_sasakian_normality(cat_sasakian):
    pack = cat_sasakian.obj
    rng = np.random.default_rng(121)
    for p in pack.chart.sample(3, seed=23):
        xv = rng.standard_normal(3)
        yv = rng.standard_normal(3)
        x = constant_field(pack.chart, "vector", xv)
        y = constant_field(pack.chart, "vector", yv)
        ff = oracles.nijenhuis(pack.f, x, y, p, mode="bracket")
        de = oracles.d_oneform(pack.eta[0], x, y, p)
        n1 = ff + 2.0 * de * pack.xi[0].value(p)
        assert np.abs(n1).max() < 1e-9


# -- curvature -----------------------------------------------------------------------


def test_curvature_flat_zero(r3):
    g = euclidean_metric(r3)
    vecs = [constant_field(r3, "vector", v) for v in np.eye(3)]
    p = np.array([0.5, -0.5, 0.25])
    out = oracles.curvature(g, vecs[0], vecs[1], vecs[2], p)
    assert np.abs(out).max() == 0.0


def test_round_sphere_curvature_one(sphere2):
    chart, g = sphere2
    x = constant_field(chart, "vector", [1.0, 0.0])
    y = constant_field(chart, "vector", [0.0, 1.0])
    for p in chart.sample(4, seed=29):
        assert oracles.sectional(g, x, y, p) == pytest.approx(1.0, abs=1e-8)


def test_riemann_matches_fd_oracle(sphere2):
    chart, g = sphere2
    p = np.array([0.9, 2.0])
    g0, g1, g2 = g.jet(p, order=2)
    ginv = calc.metric_inverse(g0)
    riem = calc.riemann_from_jets(
        ginv, calc.christoffel_from_jets(ginv, g1), g1, g2)
    oracle = fd_riemann(g, p)
    assert np.abs(riem - oracle).max() < 1e-5


def test_sasakian_reeb_sectional_curvature(cat_sasakian):
    pack = cat_sasakian.obj
    for i, p in enumerate(pack.chart.sample(4, seed=31)):
        fr = PackFrame(pack, p, seed=31, index=i)
        for x in fr.random_d_units(3):
            k = oracles.sectional_from_riemann(fr.riemann, fr.g0, fr.xi0[0], x)
            assert k == pytest.approx(1.0, abs=1e-6)


def test_curvature_symmetries(cat_sasakian):
    pack = cat_sasakian.obj
    p = pack.chart.sample(1, seed=37)[0]
    fr = PackFrame(pack, p, seed=37)
    riem = fr.riemann
    # antisymmetry in the 2-form slots
    assert np.abs(riem + riem.transpose(0, 2, 1, 3)).max() < 1e-8
    # first Bianchi identity
    bianchi = (
        riem + riem.transpose(0, 2, 3, 1) + riem.transpose(0, 3, 1, 2)
    )
    assert np.abs(bianchi).max() < 1e-8
    # plane invariance of the sectional curvature
    e = oracles.orthonormal_basis(fr.g0)
    k1 = oracles.sectional_from_riemann(riem, fr.g0, e[0], e[1])
    k2 = oracles.sectional_from_riemann(
        riem, fr.g0, 2.0 * e[0] + 0.3 * e[1], -0.4 * e[0] + e[1]
    )
    assert abs(k1 - k2) < 1e-8


def test_degenerate_plane_rejected(r3):
    g = euclidean_metric(r3)
    x = constant_field(r3, "vector", [1.0, 0.0, 0.0])
    with pytest.raises(DegeneratePlaneError):
        oracles.sectional(g, x, x, np.zeros(3))


# -- jet evaluator vs finite differences ----------------------------------------------


def _matches_fd(ad, fn, p):
    """Partials ``ad`` (derivative axis last) against central differences
    of the array-valued ``fn``."""
    flat = ad.reshape(-1, len(p))
    for c in range(len(p)):
        e = np.zeros(len(p))
        e[c] = FD
        fd = ((np.asarray(fn(p + e)) - np.asarray(fn(p - e))) / (2 * FD)).reshape(-1)
        ad = flat[:, c]
        assert np.abs(ad - fd).max() <= 1e-6 * (1.0 + np.abs(ad).max())


def _ad_vs_fd(field, p, d1=None):
    """The field's jet, or the partials ``d1`` given for it, against central
    differences of its values."""
    if d1 is None:
        _, d1 = field.jet(p, order=1)
    _matches_fd(d1, field.value, p)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.floats(0.01, 0.99), min_size=5, max_size=5))
def test_ad_matches_fd_on_catalog_fields(all_packs, fractions):
    # first partials against differences of the values, second partials
    # against differences of the first, at a point drawn inside the box
    for cat in all_packs:
        pack = cat.obj
        lo, hi = np.array(pack.chart.box).T
        p = lo + np.array(fractions[:pack.chart.dim]) * (hi - lo)
        for field in (pack.g, pack.f, pack.Q, *pack.xi, *pack.eta):
            _ad_vs_fd(field, p)
            _, _, d2 = field.jet(p, order=2)
            _matches_fd(d2, lambda q, field=field: field.jet(q, order=1)[1], p)


def test_ad_matches_fd_on_induced_fields(cat_sphere, sphere_induced):
    # the closed-form partials the frame reads from the ambient stack
    pack = sphere_induced
    for p in pack.chart.sample(2, seed=43):
        fr = oracles.frame(pack, p, cat_sphere.obj)
        for field, d1 in ((pack.g, fr.g1), (pack.f, fr.f1), (pack.Q, fr.q1),
                          (pack.xi[0], fr.xi1[0]), (pack.eta[0], fr.eta1[0])):
            _ad_vs_fd(field, p, d1)
