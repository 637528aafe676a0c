import numpy as np
import pytest

from weakf.charts import (
    Chart,
    SmoothField,
    constant_field,
    euclidean_metric,
)
from oracles import metric_eigen_floor, scale_field
from weakf.jets import log, sin


def test_chart_point_validation():
    chart = Chart("box", 2, ((0.0, 1.0), (-1.0, 1.0)))
    p = chart.point([0.5, 0.0])
    assert p.shape == (2,)
    with pytest.raises(ValueError):
        chart.point([0.5])
    with pytest.raises(ValueError):
        chart.point([1.5, 0.0])
    with pytest.raises(ValueError):
        Chart("bad", 2, ((0.0, 1.0),))
    with pytest.raises(ValueError):
        Chart("empty", 1, ((1.0, 1.0),))


def test_sampling_inside_box_and_deterministic():
    chart = Chart("box", 3, ((0.2, 1.4), (-2.0, 2.0), (5.0, 6.0)))
    a = chart.sample(20, seed=11)
    b = chart.sample(20, seed=11)
    c = chart.sample(20, seed=12)
    for p, q in zip(a, b):
        assert np.array_equal(p, q)
        assert chart.contains(p)
    assert any(not np.array_equal(p, q) for p, q in zip(a, c))


def test_field_shapes_and_values():
    chart = Chart("r2", 2, ((-2.0, 2.0),) * 2)
    h = SmoothField(chart, "scalar", lambda u: sin(u[0]) * u[1])
    p = np.array([0.3, 0.7])
    assert h.value(p) == pytest.approx(np.sin(0.3) * 0.7)
    val, d1, d2 = h.jet(p)
    assert d1.shape == (2,) and d2.shape == (2, 2)
    v = constant_field(chart, "vector", [1.0, -2.0])
    val, d1 = v.jet(p, order=1)
    assert val.shape == (2,) and d1.shape == (2, 2)
    assert np.abs(d1).max() == 0.0
    g = euclidean_metric(chart)
    val, d1, d2 = g.jet(p)
    assert val.shape == (2, 2) and d2.shape == (2, 2, 2, 2)


def test_unknown_kind_rejected():
    chart = Chart("r1", 1, ((-1.0, 1.0),))
    with pytest.raises(ValueError):
        SmoothField(chart, "spinor", lambda u: u[0])


def test_scale_field_all_kinds():
    chart = Chart("r2", 2, ((-2.0, 2.0),) * 2)
    p = np.array([0.4, -0.1])
    t = constant_field(chart, "tensor11", [[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(scale_field(t, 0.5).value(p), 0.5 * t.value(p))
    w = constant_field(chart, "oneform", [2.0, -1.0])
    assert np.allclose(scale_field(w, 1.1).value(p), 1.1 * w.value(p))
    s = SmoothField(chart, "scalar", lambda u: u[0])
    assert scale_field(s, 3.0).value(p) == pytest.approx(1.2)


def test_non_finite_jet_rejected():
    chart = Chart("r1", 1, ((-1.0, 1.0),))
    # float overflow is silent, so the evaluator must flag the inf itself
    bad = SmoothField(chart, "scalar", lambda u: u[0] * 1e200 * 1e200)
    with pytest.raises(ValueError, match="non-finite"):
        bad.jet(np.array([0.5]))
    # domain errors from the math helpers surface as-is
    worse = SmoothField(chart, "scalar", lambda u: log(u[0]))
    with pytest.raises(ValueError):
        worse.jet(np.array([-0.5]))


def test_metric_eigen_floor_helper():
    assert metric_eigen_floor(np.diag([2.0, 0.5])) == pytest.approx(0.5)
    assert metric_eigen_floor(np.diag([1.0, -0.1])) == pytest.approx(-0.1)
