import re
from dataclasses import replace

import numpy as np
import pytest
from report_digests import CONFIGS

import oracles
from oracles import second_fundamental
from weakf import charts, submanifold
from weakf.calculus import christoffel_from_jets, metric_inverse
from weakf.catalog import hypersphere, linear_subspace, make_example
from weakf.charts import Chart, Rows, SmoothField, constant_field, jet_stack
from weakf.classifiers import TOL_EXACT
from weakf.errors import HypothesisNotMet, InvalidExample
from weakf.fstructure import PackFrame, _FrameStack, axioms_residual
from weakf.submanifold import (
    EmbeddedSubmanifold,
    _AmbientPoint,
    frame_check,
    gauss_split_residual,
    induce_structure,
    lemma_parallel_claim,
    require_valid_frame,
    thsubm_check,
)

TOL = 1e-9


def test_frame_requirements_on_hypersphere(cat_sphere):
    sub = cat_sphere.obj
    res = frame_check(sub.ambient_stack(Rows(sub.domain.sample(4, seed=3))))
    assert all(rows.shape == (4,) for rows in res.values())
    assert max(rows.max() for rows in res.values()) <= 1e-10


def test_induced_sphere_pack_is_standard(sphere_induced):
    pack = sphere_induced
    for i, p in enumerate(pack.chart.sample(4, seed=5)):
        fr = PackFrame(pack, p, seed=5, index=i)
        ax = axioms_residual(fr)
        assert max(ax.values()) <= 1e-10
        # standard ambient: induced Q is the identity
        assert np.abs(fr.q0 - np.eye(3)).max() <= 1e-10


# The embedded examples of the reference configurations, each once.
EMBEDDED = sorted({re.sub(r" --suites \S+", "", c) for c in CONFIGS
                   if oracles.config_example(c).submanifold})


@pytest.mark.parametrize("config", EMBEDDED)
def test_induced_field_values_are_the_pullback_of_the_values(config):
    # each induced field's value at a float point is row 0 of the one-point
    # ambient stack's induced jets: bitwise the pullback of the ambient
    # values along the order-1 embedding jet
    pack = oracles.config_example(config)
    sub = pack.submanifold
    fields = {"g": [pack.g], "f": [pack.f], "q": [pack.Q], "xi": pack.xi,
              "eta": pack.eta}
    for p in pack.chart.sample(20, seed=42):
        want = oracles.induced_values(sub, [float(c) for c in p])
        assert (_AmbientPoint(sub, p).induced_jets["ginv"][0].tobytes()
                == want["ginv"].tobytes())
        for name, parts in fields.items():
            got = np.array([field.value(p) for field in parts])
            assert got.tobytes() == want[name].reshape(got.shape).tobytes(), (
                name, p)


def test_induced_fields_refuse_jet_coordinates(cat_sphere, sphere_induced):
    points = cat_sphere.obj.domain.sample(2, seed=3)
    with pytest.raises(TypeError, match=(
            "induced fields are evaluated at float points; the frame stack "
            "of an induced pack reads their jets from its _AmbientStack")):
        jet_stack(sphere_induced.g.fn, points, 1, "the induced metric")


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
    ap = oracles.ambient_point(outward, p)
    hn = float(ap.normals[0] @ ap.gbar0 @ h_vec)
    assert abs(hn + float(x @ g_out @ y)) <= 1e-12
    # inward normal flips the sign: h_N = +g
    ap = oracles.ambient_point(inward, p)
    g_in = induce_structure(inward).g.value(p)
    assert abs(float(x @ ap.hn[0] @ y) - float(x @ g_in @ y)) <= 1e-12
    assert np.abs(ap.shape_operators[0] - np.eye(3)).max() <= 1e-12


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
        ap = oracles.ambient_point(sub, p)
        g0 = induced.g.value(p)
        for _ in range(4):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            hv, _ = second_fundamental(sub, x, y, p)
            assert np.abs(hv - second_fundamental(sub, y, x, p)[0]).max() <= 1e-12
            for i in range(sub.s):
                lhs = float(ap.normals[i] @ ap.gbar0 @ hv)
                rhs = float((ap.shape_operators[i] @ x) @ g0 @ y)
                assert abs(lhs - rhs) <= TOL


def test_gauss_split_exact(sphere_induced, subspace_induced):
    for induced in (sphere_induced, subspace_induced):
        st = oracles.stack(induced, induced.chart.sample(3, seed=19), seed=19)
        assert gauss_split_residual(st).max() <= TOL


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
    ap = oracles.ambient_point(horizontal, q)
    x = np.array([1.0])
    g0 = ap.g0
    hxx = float(x @ ap.hn[0] @ x)
    assert abs(hxx - float((ap.shape_operators[0] @ x) @ g0 @ x)) <= 1e-12
    assert abs(hxx) > 1e-3


def test_thsubm_case_i_on_hypersphere(sphere_induced):
    st = oracles.stack(sphere_induced, sphere_induced.chart.sample(3, seed=23),
                       seed=23)
    res = thsubm_check(st, "i")
    assert all(rows.shape == (3,) for rows in res.values())
    assert (res["aa_symmetry"] == 0.0).all()  # single normal: trivially symmetric
    assert res["h_display"].max() <= TOL
    assert res["shape_display_duality"].max() <= 1e-10
    assert res["weingarten_duality"].max() <= TOL
    assert res["tangential_expansion"].max() <= TOL
    assert res["conclusion_weak_nearly_S"].max() <= TOL
    # orientation pin: the inward normal gives h_N(xi, xi) = +1
    for xi, hn in zip(st.xi0[:, 0], st.ambient.hn[:, 0]):
        assert float(xi @ hn @ xi) == pytest.approx(1.0, abs=1e-10)
    # the other case's display must fail on a sphere
    res2 = thsubm_check(st, "ii")
    assert res2["h_display"].min() >= 0.5


def test_thsubm_case_ii_on_linear_subspace(subspace_induced):
    st = oracles.stack(subspace_induced,
                       subspace_induced.chart.sample(3, seed=29), seed=29)
    res = thsubm_check(st, "ii")
    assert res["aa_symmetry"].max() <= 1e-14
    assert res["h_display"].max() <= 1e-14
    assert res["conclusion_weak_nearly_C"].max() <= TOL
    res1 = thsubm_check(st, "i")
    assert res1["h_display"].min() >= 0.5


def _non_kahler_sphere():
    """The hypersphere n=1 in R^4 with the skew scaled by 1 + 0.2 u_0: the
    ambient is not weak nearly Kahler along the image."""
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

    return EmbeddedSubmanifold(
        domain=domain, ambient=ambient,
        ambient_metric=base.ambient_metric,
        ambient_skew=SmoothField(ambient, "tensor11", skew_fn),
        embedding=base.embedding, normals=base.normals, n=1, s=1,
    )


def test_thsubm_rejects_non_nearly_kahler_ambient():
    sub = _non_kahler_sphere()
    p = sub.domain.sample(1, seed=31)[0]
    ap = _AmbientPoint(sub, p)
    assert ap.nearly_kahler[0] > 1e-3
    with pytest.raises(HypothesisNotMet) as err:
        thsubm_check(oracles.stack(induce_structure(sub, validate=False),
                                   [p]), "i")
    assert err.value.gate == "ambient_weak_nearly_kahler"
    assert err.value.row == 0


def test_lemma_parallel_claim(sphere_induced, subspace_induced,
                              cat_sphere_weak):
    for induced in (sphere_induced, subspace_induced):
        p = induced.chart.sample(1, seed=37)[0]
        res = lemma_parallel_claim(oracles.stack(induced, [p], seed=0))
        assert res["q_parallel_d"][0] <= TOL
        assert res["q_parallel_expansion"][0] <= TOL
    # the weak skew moves fbar^2 N off the normal bundle: gate must fire
    sub = cat_sphere_weak.obj
    p = sub.domain.sample(1, seed=37)[0]
    with pytest.raises(HypothesisNotMet) as err:
        lemma_parallel_claim(oracles.stack(
            induce_structure(sub, validate=False), [p], seed=0))
    assert err.value.gate == "fbar_sq_normal_is_normal"


def _givens(d, i, j, theta):
    r = np.eye(d)
    r[[i, i, j, j], [i, j, i, j]] = (np.cos(theta), -np.sin(theta),
                                     np.sin(theta), np.cos(theta))
    return r


def _tilted_subspace():
    """linear_subspace n=1 s=2 (x_1, x_2, y_1, y_2, z_1, z_2; normals z_i)
    with block weight 2 and fbar turned by rotations in the (y_1, z_2) and
    (x_1, z_1) planes: fbar N_1 leaves the tangent space, and fbar^2 N_1
    the normal bundle."""
    sub = linear_subspace(n=1, s=2, scales=(2.0,)).obj
    r = _givens(6, 0, 4, 0.3) @ _givens(6, 2, 5, 0.4)
    fbar = sub.ambient_skew.fn(None)
    return replace(sub, ambient_skew=constant_field(
        sub.ambient, "tensor11", r @ np.array(fbar) @ r.T, name="fbar"))


def _scaled_ambient(sub, c):
    """``sub`` in the ambient coordinates c y of its flat ambient: gbar
    becomes c^-2 I, the constant fbar keeps its components, and the
    embedding and the normals scale by c."""
    amb = sub.ambient
    amb = replace(amb, box=tuple((c * lo, c * hi) for lo, hi in amb.box))
    return replace(
        sub, ambient=amb,
        ambient_metric=constant_field(amb, "metric", np.eye(amb.dim) / c**2),
        ambient_skew=replace(sub.ambient_skew, chart=amb),
        embedding=lambda u, emb=sub.embedding: [c * y for y in emb(u)],
        normals=lambda u, nf=sub.normals: [[c * v for v in n] for n in nf(u)])


def test_ambient_residuals_are_gbar_norms():
    # scaling the ambient coordinates changes every ambient component but
    # no gbar-norm: both ambient vector residuals keep their values
    sub = _tilted_subspace()
    p = sub.domain.sample(1, seed=37)[0]

    def residuals(s):
        st = oracles.stack(induce_structure(s, validate=False), [p], seed=0)
        with pytest.raises(HypothesisNotMet) as err:
            lemma_parallel_claim(st)
        assert err.value.gate == "fbar_sq_normal_is_normal"
        return {**{key: float(rows[0])
                   for key, rows in frame_check(st.ambient).items()},
                "fbar_sq_normal_is_normal": err.value.residual}

    base = residuals(sub)
    assert base["xi_tangent"] > 0.1 and base["fbar_sq_normal_is_normal"] > 0.1
    for c in (0.25, 3.0):
        scaled = residuals(_scaled_ambient(sub, c))
        for key, want in base.items():
            assert scaled[key] == pytest.approx(want, rel=1e-12, abs=1e-15), key


def _broken_subspace(s=1, normal=None, dfbar=None):
    """linear_subspace n=1 with the constant normals ``normal`` (one row
    each) or fbar plus the constant ``dfbar``."""
    sub = linear_subspace(n=1, s=s).obj
    d = sub.ambient.dim
    if normal is not None:
        sub = replace(sub, normals=lambda u: [list(v) for v in normal])
    if dfbar is not None:
        fbar = np.array(sub.ambient_skew.fn(None)) + dfbar(np.eye(d))
        sub = replace(sub, ambient_skew=constant_field(
            sub.ambient, "tensor11", fbar, name="fbar"))
    return sub


# One broken embedding per frame_check key, built on linear_subspace, whose
# normals are constant. xi_tangent gets no case of its own: with
# orthonormal normals and a skew fbar it follows from earlier keys.
# Orthonormal normals perpendicular to the image span the normal space, so
# the normal part of fbar N_i is sum_j gbar(fbar N_i, N_j) N_j, which
# vanishes with the skew_normal_pairs residual. A gbar-skew fbar has
# gbar(fbar^2 X, X) = -gbar(fbar X, fbar X) <= 0, so fbar_sq_negative fails
# only where fbar is singular: with the tangent block on e_0, e_1 zeroed,
# fbar^2 has eigenvalues 0, 0, -1, -1, and every earlier key holds.
BROKEN_FRAMES = {
    "normals_orthonormal": lambda: _broken_subspace(normal=[2.0 * np.eye(4)[3]]),
    "normals_perp_image": lambda: _broken_subspace(
        normal=[np.sin(0.2) * np.eye(4)[0] + np.cos(0.2) * np.eye(4)[3]]),
    "skew_normal_pairs": lambda: _broken_subspace(
        s=2, dfbar=lambda e: 1e-3 * (np.outer(e[5], e[4]) - np.outer(e[4], e[5]))),
    "ambient_skew": lambda: _broken_subspace(
        dfbar=lambda e: 1e-3 * (np.outer(e[0], e[1]) + np.outer(e[1], e[0]))),
    "fbar_sq_negative": lambda: _broken_subspace(
        dfbar=lambda e: np.outer(e[0], e[1]) - np.outer(e[1], e[0])),
}


@pytest.mark.parametrize("key", list(BROKEN_FRAMES))
def test_setup_refuses_where_the_report_fails(key):
    # induce_structure refuses a broken frame naming the first key, in
    # frame_check's order, that the report's frame entries fail, and the
    # report's stack fails that key too
    bad = BROKEN_FRAMES[key]()
    with pytest.raises(InvalidExample, match=f"^normal frame violates {key} at"):
        induce_structure(bad)
    points = bad.domain.sample(3, seed=11)
    st = _FrameStack(induce_structure(bad, validate=False), Rows(points), 11)
    failing = [k for k, rows in frame_check(st.ambient).items()
               if not rows.max() <= TOL_EXACT]
    assert failing[0] == key


def test_setup_refusal_names_point_residual_and_tolerance():
    bad = BROKEN_FRAMES["ambient_skew"]()
    mid = tuple(0.5 * (lo + hi) for lo, hi in bad.domain.box)
    with pytest.raises(InvalidExample) as err:
        require_valid_frame(bad, mid)
    assert str(err.value) == (
        f"normal frame violates ambient_skew at {mid}: residual 2.000e-03 "
        "not within tolerance 1e-09")


@pytest.mark.parametrize("config", EMBEDDED)
def test_embedded_catalog_frames_validate(config):
    sub = oracles.config_example(config).submanifold
    mid = [0.5 * (lo + hi) for lo, hi in sub.domain.box]
    require_valid_frame(sub, mid)


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


# Every embedded catalog configuration; the tolerance was fixed before the
# first comparison: |closed form - nested| <= 1e-12 max(1, |nested|).
EMBEDDED = [
    ("hypersphere", {"n": 1}),
    ("hypersphere", {"n": 2}),
    ("hypersphere", {"n": 3}),
    ("hypersphere", {"n": 1, "normal": "outward"}),
    ("hypersphere", {"n": 1, "ambient_skew": "weak"}),
    ("hypersphere", {"n": 2, "ambient_skew": "weak"}),
    ("linear_subspace", {"n": 1, "s": 2}),
    ("linear_subspace", {"n": 2, "s": 2}),
]
CLOSED_FORM_TOL = 1e-12


@pytest.mark.parametrize("example, params", EMBEDDED,
                         ids=[f"{e}-{p}" for e, p in EMBEDDED])
def test_closed_form_matches_nested_oracle(example, params):
    sub = make_example(example, **params).obj
    closed = induce_structure(sub, validate=False)
    nested = oracles.nested_induced_pack(sub)
    pairs = [("g", closed.g, nested.g), ("f", closed.f, nested.f),
             ("q", closed.Q, nested.Q)]
    pairs += [(("xi", i), closed.xi[i], nested.xi[i]) for i in range(sub.s)]
    pairs += [(("eta", i), closed.eta[i], nested.eta[i]) for i in range(sub.s)]

    def close(got, want, what):
        err = np.abs(got - want).max()
        assert err <= CLOSED_FORM_TOL * max(1.0, np.abs(want).max()), (what, err)

    for p in sub.domain.sample(3, seed=53):
        fr = PackFrame(closed, p)
        for key, field, oracle in pairs:
            want0, want1 = oracle.jet(p, order=1)
            name, i = key if isinstance(key, tuple) else (key, None)
            got0, got1 = fr._jets[name]
            if i is not None:
                got0, got1 = got0[i], got1[i]
            close(got0, want0, (key, "value"))
            close(got1, want1, (key, "d1"))
            close(field.value(p), want0, (key, "SmoothField.value"))
        g0, g1, g2 = nested.g.jet(p, order=2)
        ginv = metric_inverse(g0, p)
        riem = oracles.riemann_from_jets(
            ginv, christoffel_from_jets(ginv, g1), g1, g2)
        close(fr._chunk.reeb_curvature[fr._k], oracles.reeb_of(riem, fr.xi0),
              "reeb_curvature")


# -- the stacked rows against the checks at one point -------------------------------

# One full chunk of points and part of another.
REFERENCE_SAMPLES = charts.CHUNK + 4

# The gates of each gated bundle in the order they are checked, and the
# bundle of the point oracle that holds them.
GATES = {
    "case_i": ("nearly_kahler", ("ambient_weak_nearly_kahler",)),
    "case_ii": ("nearly_kahler", ("ambient_weak_nearly_kahler",)),
    "parallel_q": ("parallel_q", ("fbar_sq_normal_is_normal",
                                  "tangential_nabla_fbar_sq")),
}


def _hex(rows):
    return [float(v).hex() for v in rows]


def _assert_rows_are_the_point_oracle(pack, seed=42):
    points = pack.chart.sample(REFERENCE_SAMPLES, seed)
    chunks = {}
    for fr in oracles.chunk_frames(pack, points, seed):
        chunks.setdefault(id(fr._chunk), (fr._chunk, []))[1].append(fr)
    assert [len(frs) for _, frs in chunks.values()] == [charts.CHUNK, 4]
    for st, frs in chunks.values():
        alone = [oracles.submanifold_at_point(fr) for fr in frs]

        def check(bundle, got, whole=True):
            want = alone[0][bundle]
            assert list(got) == list(want) if whole else got.keys() <= want.keys()
            for key, rows in got.items():
                assert _hex(rows) == [a[bundle][key].hex() for a in alone], (
                    bundle, key)

        check("frame", {**frame_check(st.ambient),
                        "gauss_split": gauss_split_residual(st)})
        check("nearly_kahler",
              {"ambient_weak_nearly_kahler": st.ambient.nearly_kahler})
        runs = {"case_i": lambda: thsubm_check(st, "i"),
                "case_ii": lambda: thsubm_check(st, "ii"),
                "parallel_q": lambda: lemma_parallel_claim(st)}
        for bundle, run in runs.items():
            held, gates = GATES[bundle]
            # the first point whose gate fails, and its first failing gate
            failing = [(k, gate, a[held][gate]) for k, a in enumerate(alone)
                       for gate in gates if not a[held][gate] <= TOL]
            try:
                got = run()
            except HypothesisNotMet as exc:
                k, gate, value = failing[0]
                assert (exc.row, exc.gate, exc.residual.hex()) == (
                    k, gate, value.hex()), bundle
                # the rows of the body, computed before the gate raised
                # unless it failed at the chunk's first point
                if bundle == "parallel_q":
                    check(bundle, submanifold._parallel_q_hypotheses(st), False)
                else:
                    parts = st.thsubm_parts
                    check(bundle, {"aa_symmetry": parts["aa_symmetry"],
                                   **parts["case_free"]}, False)
            else:
                assert not failing, bundle
                check(bundle, got)


EMBEDDED_CONFIGS = [c for c in CONFIGS
                    if oracles.config_example(c).submanifold]

# Fixed before the first comparison: |stacked - oracle| <= 1e-13 max(1, |r|).
REEB_TOL = 1e-13


@pytest.mark.parametrize("config", EMBEDDED_CONFIGS)
def test_reeb_curvature_is_the_gauss_equation_oracle(config):
    # the Gauss equation contracted with xibar = J xi and h(xi, .) over a
    # chunk against the whole Riemann tensor of each point from the Gauss
    # equation, contracted with xi
    pack = oracles.config_example(config)
    st = oracles.stack(pack, pack.chart.sample(REFERENCE_SAMPLES, 42)[:4])
    got = st.reeb_curvature
    assert got.shape == (4, pack.s, pack.dim, pack.dim)
    for k in range(4):
        want = oracles.reeb_of(oracles.induced_riemann(st.ambient, k),
                               st.xi0[k])
        err = np.abs(got[k] - want).max()
        assert err <= REEB_TOL * max(1.0, np.abs(want).max()), (k, err)


@pytest.mark.parametrize("config", EMBEDDED_CONFIGS)
def test_stacked_rows_are_the_point_oracle(config):
    _assert_rows_are_the_point_oracle(oracles.config_example(config))


def test_stacked_rows_are_the_point_oracle_where_the_gate_fails():
    sub = _non_kahler_sphere()
    pack = induce_structure(sub, validate=False)
    with pytest.raises(HypothesisNotMet):
        thsubm_check(oracles.stack(pack, sub.domain.sample(2, seed=42)), "i")
    _assert_rows_are_the_point_oracle(pack)
