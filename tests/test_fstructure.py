import sys
from functools import partial

import numpy as np
import pytest

import oracles
from oracles import (
    fundamental_form_field,
    phi,
    scale_field,
    structure_tensors,
    tensor_apply_field,
)
from report_digests import CONFIGS
from weakf import catalog, charts, classifiers, fstructure, submanifold
from weakf.charts import constant_field
from weakf.errors import DegenerateOperatorError
from weakf.fstructure import (PackFrame, StructurePack, _pair_rows, _rows_abs,
                              _rows_norm, axioms_residual)
from weakf.report import SuiteConfig, run_suite
from weakf.sampling import pair_form, sup_abs

TOL = 1e-9


def _replace(pack, **kw):
    fields = dict(
        chart=pack.chart, f=pack.f, Q=pack.Q, xi=pack.xi, eta=pack.eta,
        g=pack.g, n=pack.n, s=pack.s,
    )
    fields.update(kw)
    return StructurePack(**fields)


def _axioms_max(pack, count=5, seed=3, sub=None):
    worst = {}
    for i, p in enumerate(pack.chart.sample(count, seed)):
        fr = oracles.frame(pack, p, sub, seed=seed, index=i)
        for k, v in axioms_residual(fr).items():
            worst[k] = max(worst.get(k, 0.0), v)
    return worst


def test_axioms_pass_on_catalog_packs(all_packs):
    for cat in all_packs:
        worst = _axioms_max(cat.obj)
        assert max(worst.values()) <= TOL, (cat.name, worst)


def test_axioms_pass_on_induced_packs(cat_sphere, sphere_induced,
                                      cat_subspace, subspace_induced):
    for cat, pack in ((cat_sphere, sphere_induced),
                      (cat_subspace, subspace_induced)):
        worst = _axioms_max(pack, count=3, sub=cat.obj)
        assert max(worst.values()) <= 1e-10


def test_dimension_consistency_enforced(cat_flat):
    pack = cat_flat.obj
    with pytest.raises(ValueError):
        _replace(pack, n=1)


def test_scaled_f_detected(cat_sasakian):
    pack = cat_sasakian.obj
    broken = _replace(pack, f=scale_field(pack.f, 1.1))
    worst = _axioms_max(broken, count=3)
    assert worst["f_squared"] >= 0.1
    assert worst["compatibility"] >= 0.1


def test_scaled_eta_detected(cat_sasakian):
    pack = cat_sasakian.obj
    broken = _replace(pack, eta=tuple(scale_field(e, 1.05) for e in pack.eta))
    worst = _axioms_max(broken, count=3)
    assert worst["compatibility"] >= 0.1
    assert worst["eta_xi_pairing"] >= 0.04


def test_q_replaced_by_identity_detected(cat_flat):
    pack = cat_flat.obj  # weak pack: Q != id on the contact block
    broken = _replace(
        pack, Q=constant_field(pack.chart, "tensor11", np.eye(pack.dim))
    )
    worst = _axioms_max(broken, count=3)
    assert worst["f_squared"] >= 0.1


def test_indefinite_q_raises(cat_flat):
    pack = cat_flat.obj
    q_bad = np.eye(pack.dim)
    q_bad[0, 0] = -1.0
    broken = _replace(pack, Q=constant_field(pack.chart, "tensor11", q_bad))
    p = pack.chart.sample(1, seed=5)[0]
    with pytest.raises(DegenerateOperatorError) as err:
        axioms_residual(PackFrame(broken, p))
    assert err.value.min_eigenvalue <= 1e-12


def test_rank_check_flags_degenerate_f(cat_flat):
    pack = cat_flat.obj
    broken = _replace(pack, f=scale_field(pack.f, 1e-6))
    worst = _axioms_max(broken, count=2)
    assert worst["f_rank"] >= 1.0


def _assert_rows_are_the_point_oracle(pack, sub=None, seed=42):
    # a full chunk of points and a part of one
    points = pack.chart.sample(charts.CHUNK + 4, seed)
    for fr in oracles.chunk_frames(pack, points, sub, seed):
        stacked, alone = axioms_residual(fr), oracles.axioms_at_point(fr)
        assert list(stacked) == list(alone)
        # bitwise, the batched eigvalsh and svd included
        assert ([v.hex() for v in stacked.values()]
                == [v.hex() for v in alone.values()]), fr._k


@pytest.mark.parametrize("config", CONFIGS)
def test_stacked_axioms_are_the_point_oracle(config):
    _assert_rows_are_the_point_oracle(*oracles.config_example(config))


def test_stacked_axioms_are_the_point_oracle_on_sheared_and_broken_packs(
        cat_sasakian, cat_flat):
    sas, flat = cat_sasakian.obj, cat_flat.obj
    for pack in (
            oracles.sheared_pack(flat),
            oracles.sheared_pack(catalog.flat_pack(n=1, s=2).obj),
            _replace(sas, eta=tuple(scale_field(e, 1.05) for e in sas.eta)),
            _replace(flat, Q=constant_field(flat.chart, "tensor11",
                                            np.eye(flat.dim))),
            _replace(flat, f=scale_field(flat.f, 1e-6))):
        _assert_rows_are_the_point_oracle(pack)


def _assert_parts_are_the_point_oracle(pack, sub=None, seed=42):
    # a full chunk of points and a part of one, read as every gate reads
    # them: the frame's row of the chunk's stack
    points = pack.chart.sample(charts.CHUNK + 4, seed)
    for fr in oracles.chunk_frames(pack, points, sub, seed):
        alone = oracles.parts_at_point(fr)
        stacked = {part: classifiers.class_residual(pack, fr.p, tag, fr)[1][part]
                   for part, tag in CLASS_OF_PART.items()}
        stacked["killing"] = fr.killing.tolist()
        stacked.update(classifiers.frame_residuals(fr))
        stacked["q_parallel_expansion"] = classifiers.q_parallel_residual(fr)[1]
        assert stacked.keys() == alone.keys()
        for part, value in alone.items():
            assert (_hex(stacked[part]) == _hex(value)), (part, fr._k)


# A class that holds each part measured by one residual.
CLASS_OF_PART = {"nearly_s_defining": "weak_nearly_S",
                 "nearly_c_defining": "weak_nearly_C",
                 "s_structure_defining": "S_structure",
                 "phi_equals_deta": "weak_almost_S",
                 "deta_zero": "weak_almost_C", "dphi_zero": "weak_almost_K",
                 "n1_zero": "normal"}


def _hex(value):
    return [v.hex() for v in value] if isinstance(value, list) else value.hex()


@pytest.mark.parametrize("config", CONFIGS)
def test_stacked_class_parts_are_the_point_oracle(config):
    _assert_parts_are_the_point_oracle(*oracles.config_example(config))


def test_stacked_class_parts_are_the_point_oracle_on_sheared_and_broken_packs(
        cat_sasakian, cat_flat):
    sas, flat = cat_sasakian.obj, cat_flat.obj
    for pack in (
            oracles.sheared_pack(flat),
            oracles.sheared_pack(catalog.flat_pack(n=1, s=2).obj),
            oracles.sheared_pack(sas),
            _replace(sas, f=scale_field(sas.f, 1.1)),
            _replace(sas, eta=tuple(scale_field(e, 1.05) for e in sas.eta)),
            _replace(flat, Q=constant_field(flat.chart, "tensor11",
                                            np.eye(flat.dim))),
            _replace(flat, f=scale_field(flat.f, 1e-6))):
        _assert_parts_are_the_point_oracle(pack)


def test_phi_basics(cat_flat, cat_sasakian):
    pack = cat_flat.obj
    p = pack.chart.sample(1, seed=7)[0]
    fr = PackFrame(pack, p, seed=7)
    xi = fr.xi0[0]
    rng = np.random.default_rng(7)
    for _ in range(4):
        v = rng.standard_normal(pack.dim)
        assert abs(phi(pack, xi, v, p, frame=fr)) < 1e-14
        assert abs(
            phi(pack, v, xi, p, frame=fr) + phi(pack, xi, v, p, frame=fr)
        ) < 1e-14
    # standard block on the first two coordinates: f e2 = -e1, so
    # phi(e1, e2) = g(e1, f e2) = -1
    e = np.eye(pack.dim)
    assert phi(pack, e[0], e[1], p, frame=fr) == pytest.approx(-1.0, abs=1e-14)
    # fundamental form rank equals 2n
    sv = np.linalg.svd(fr.phi0, compute_uv=False)
    assert (sv > 1e-8).sum() == 2 * pack.n

    sas = cat_sasakian.obj
    p = sas.chart.sample(1, seed=7)[0]
    fr = PackFrame(sas, p, seed=7)
    rng = np.random.default_rng(8)
    x = constant_field(sas.chart, "vector", rng.standard_normal(3))
    y = constant_field(sas.chart, "vector", rng.standard_normal(3))
    de = oracles.d_oneform(sas.eta[0], x, y, p)
    assert abs(phi(sas, x.value(p), y.value(p), p, frame=fr) - de) < 1e-9


def test_structure_tensors_sasakian_n1_zero(cat_sasakian):
    pack = cat_sasakian.obj
    rng = np.random.default_rng(9)
    for p in pack.chart.sample(3, seed=11):
        n1 = structure_tensors(pack, p, "N1")
        for _ in range(3):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            assert np.abs(n1(x, y)).max() < TOL


def test_structure_tensors_product_pack(cat_product):
    pack = cat_product.obj
    rng = np.random.default_rng(10)
    for p in pack.chart.sample(2, seed=13):
        n3 = structure_tensors(pack, p, "N3")
        n4 = structure_tensors(pack, p, "N4")
        for i in range(pack.s):
            for _ in range(3):
                x = rng.standard_normal(pack.dim)
                assert np.abs(n3(i, x)).max() < TOL
                for j in range(pack.s):
                    assert abs(n4(i, j, x)) < TOL


def test_structure_tensors_flat_all_vanish(cat_flat):
    pack = cat_flat.obj
    p = pack.chart.sample(1, seed=17)[0]
    rng = np.random.default_rng(11)
    n1 = structure_tensors(pack, p, "N1")
    n2 = structure_tensors(pack, p, "N2")
    x, y = rng.standard_normal(pack.dim), rng.standard_normal(pack.dim)
    assert np.abs(n1(x, y)).max() < 1e-14
    assert abs(n2(0, x, y)) < 1e-14


def test_n2_matches_lie_derivative_route(cat_sasakian):
    pack = cat_sasakian.obj
    p = pack.chart.sample(1, seed=19)[0]
    fr = PackFrame(pack, p, seed=19)
    rng = np.random.default_rng(12)
    xv = rng.standard_normal(3)
    yv = rng.standard_normal(3)
    n2 = structure_tensors(pack, p, "N2", frame=fr)
    # (L_{fX} eta)(Y) - (L_{fY} eta)(X) with constant-extension X, Y
    fx = tensor_apply_field(pack.f, constant_field(pack.chart, "vector", xv))
    fy = tensor_apply_field(pack.f, constant_field(pack.chart, "vector", yv))
    lie_a = oracles.lie_derivative(pack.eta[0], fx, p)
    lie_b = oracles.lie_derivative(pack.eta[0], fy, p)
    assert abs(n2(0, xv, yv) - (lie_a @ yv - lie_b @ xv)) < 1e-12


def test_qtilde_invariants(all_packs):
    for cat in all_packs:
        pack = cat.obj
        for i, p in enumerate(pack.chart.sample(3, seed=23)):
            fr = PackFrame(pack, p, seed=23, index=i)
            qt = fr.qtilde
            assert np.abs(qt @ fr.f0 - fr.f0 @ qt).max() <= 1e-10
            assert np.abs(fr.eta0 @ qt).max() <= 1e-12


def test_tangent_splitting_and_eta_duality(all_packs):
    for cat in all_packs:
        pack = cat.obj
        worst = _axioms_max(pack, count=3)
        assert worst["tangent_split"] <= 1e-10
        assert worst["eta_metric_dual"] <= 1e-12


def test_d_basis_spans_contact_distribution(cat_product):
    pack = cat_product.obj
    p = pack.chart.sample(1, seed=29)[0]
    fr = PackFrame(pack, p, seed=29)
    db = fr.d_basis
    assert db.shape == (2 * pack.n, pack.dim)
    gram = np.einsum("ak,kl,bl->ab", db, fr.g0, db)
    assert np.abs(gram - np.eye(2 * pack.n)).max() < 1e-12
    assert np.abs(fr.eta0 @ db.T).max() < 1e-12


def test_fundamental_form_field_matches_frame(cat_sasakian):
    pack = cat_sasakian.obj
    p = pack.chart.sample(1, seed=31)[0]
    fr = PackFrame(pack, p, seed=31)
    field = fundamental_form_field(pack)
    assert np.abs(field.value(p) - fr.phi0).max() < 1e-15


def test_pack_evaluation_deterministic(cat_sasakian):
    pack = cat_sasakian.obj
    p = pack.chart.sample(1, seed=37)[0]
    a = pack.f.jet(p, order=2)
    b = pack.f.jet(p, order=2)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


# The reducers _pair_rows is called with: a scalar row per point, a vector
# row per point in the g-norm, and one row per Reeb field (the Killing part).
PAIR_REDUCERS = {"rows_abs": _rows_abs, "rows_norm": _rows_norm,
                 "sup_abs_lead2": partial(sup_abs, lead=2)}


def _pair_operands(c_value, points=5):
    """Coefficients c[P, 3, 4, 4] filled with ``c_value`` and finite test
    vectors X[P, 6, 4], Y[P, 7, 4]: an odd P leaves a partial sub-chunk."""
    rng = np.random.default_rng(5)
    return (np.full((points, 3, 4, 4), c_value),
            rng.standard_normal((points, 6, 4)),
            rng.standard_normal((points, 7, 4)))


@pytest.mark.parametrize("reducer", PAIR_REDUCERS)
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_vanishing_coefficients_give_the_contracted_rows(reducer, zero):
    # an identically zero c forms no test pair, and its rows are exactly
    # those of the contraction: every entry would be +-0.0, which the
    # reducers make +0.0
    reduce = PAIR_REDUCERS[reducer]
    c, X, Y = _pair_operands(zero)
    assert not c.any() and (np.signbit(c) == np.signbit(zero)).all()
    for y in (None, Y):
        rows = _pair_rows(reduce, c, X, y)
        full = reduce(pair_form(c, X[:, None], (X if y is None else y)[:, None]))
        assert rows.shape == full.shape == (len(c),) + (
            (c.shape[1],) if reducer == "sup_abs_lead2" else ())
        assert rows.dtype == full.dtype
        assert [float.hex(v) for v in rows.ravel().tolist()] == [
            float.hex(v) for v in full.ravel().tolist()]


@pytest.mark.parametrize("reducer", PAIR_REDUCERS)
def test_one_nan_coefficient_still_reads_nan(reducer):
    reduce = PAIR_REDUCERS[reducer]
    c, X, _ = _pair_operands(0.0)
    c[3, 1, 2, 0] = np.nan
    rows = _pair_rows(reduce, c, X)
    # NaN at the point, and on the Killing rows at its component alone
    expected = np.zeros(rows.shape, bool)
    expected[(3, 1)[:rows.ndim]] = True
    assert np.array_equal(np.isnan(rows), expected)


# The residuals formed by _pair_rows in a run on a constant pack at n=4
# s=2 (the flat factor of thm41, and its rotation): those whose
# coefficients are the derivative layer (D f, D Q, d eta, N1, L_xi g)
# vanish identically and form no test pair; those that read f, g and xi
# themselves are still contracted.
CONSTANT_PACK_SKIPPED = {"nearly_c_defining", "n1_zero", "q_parallel_d",
                         "q_parallel_expansion", "deta_zero", "killing"}
CONSTANT_PACK_CONTRACTED = {"nearly_s_defining", "s_structure_defining",
                            "phi_equals_deta"}


@pytest.mark.parametrize("example", ["flat_pack", "rotated_pack"])
def test_constant_pack_skips_exactly_the_vanishing_identities(example,
                                                              monkeypatch):
    formed, made = [0], {}
    pair_rows = fstructure._pair_rows

    def counted(t, X, Y):
        formed[0] += 1
        return pair_form(t, X, Y)

    def recorded(reduce, c, X, Y=None):
        caller = sys._getframe(1)
        while caller.f_code.co_name == "_vector_rows":
            caller = caller.f_back
        before = formed[0]
        rows = pair_rows(reduce, c, X, Y)
        made.setdefault(caller.f_code.co_name, set()).add(formed[0] > before)
        return rows

    monkeypatch.setattr(fstructure, "pair_form", counted)
    for mod in (classifiers, fstructure, submanifold):
        monkeypatch.setattr(mod, "_pair_rows", recorded)
    rep = run_suite(SuiteConfig(example=example, params={"n": 4, "s": 2},
                                samples=charts.CHUNK + 3))
    assert rep["overall"]["verdict"] == "pass"
    assert made.keys() == CONSTANT_PACK_SKIPPED | CONSTANT_PACK_CONTRACTED
    assert {name for name, m in made.items() if m == {False}} == (
        CONSTANT_PACK_SKIPPED)
    assert {name for name, m in made.items() if m == {True}} == (
        CONSTANT_PACK_CONTRACTED)
