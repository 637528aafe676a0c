import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import entry_arrays, mat_inv, mat_vec, parts
from weakf.jets import (
    Jet,
    arrays,
    cos,
    exp,
    lift,
    log,
    sin,
    sqrt,
    tan,
    value_of,
)

FD_STEP = 1e-5

finite = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)


def _poly_trig(a, b, c):
    def fn(x, y):
        return (
            a * sin(x) * exp(0.3 * y)
            + b * x**3 / (2.0 + cos(y))
            + c * sqrt(4.0 + x * y)
        )

    return fn


def _fd_grad(fn, x, y, h=FD_STEP):
    return (
        (fn(x + h, y) - fn(x - h, y)) / (2 * h),
        (fn(x, y + h) - fn(x, y - h)) / (2 * h),
    )


@settings(max_examples=60, deadline=None)
@given(finite, finite, finite, finite, finite)
def test_gradient_matches_finite_differences(a, b, c, x, y):
    fn = _poly_trig(a, b, c)
    jx, jy = lift([x, y])
    out = fn(jx, jy)
    v, g, _ = parts(out, 2)
    assert math.isclose(value_of(v), fn(x, y), rel_tol=0, abs_tol=1e-12)
    fx, fy = _fd_grad(fn, x, y)
    scale = 1.0 + abs(fx) + abs(fy)
    assert abs(value_of(g[0]) - fx) <= 1e-6 * scale
    assert abs(value_of(g[1]) - fy) <= 1e-6 * scale


@settings(max_examples=60, deadline=None)
@given(finite, finite, finite, finite, finite)
def test_hessian_symmetric_and_matches_cross_difference(a, b, c, x, y):
    fn = _poly_trig(a, b, c)
    jx, jy = lift([x, y])
    _, _, h = parts(fn(jx, jy), 2)
    assert h[0][1] == h[1][0]
    step = 1e-4
    cross = (
        fn(x + step, y + step)
        - fn(x + step, y - step)
        - fn(x - step, y + step)
        + fn(x - step, y - step)
    ) / (4 * step * step)
    assert abs(value_of(h[0][1]) - cross) <= 5e-5 * (1.0 + abs(cross))


def test_division_and_log_rules():
    (x,) = lift([0.8])
    out = log(x) / (1.0 + x**2)
    v, g, h = parts(out, 1)
    f = lambda t: math.log(t) / (1.0 + t * t)
    assert math.isclose(value_of(v), f(0.8), abs_tol=1e-14)
    fd = (f(0.8 + FD_STEP) - f(0.8 - FD_STEP)) / (2 * FD_STEP)
    assert abs(value_of(g[0]) - fd) < 1e-9


def test_tan_consistent_with_sin_over_cos():
    (x,) = lift([0.6])
    diff = tan(x) - sin(x) / cos(x)
    v, g, h = parts(diff, 1)
    assert abs(value_of(v)) < 1e-15
    assert abs(value_of(g[0])) < 1e-14


def test_nested_lift_gives_third_derivatives():
    # inner lift over an outer jet: grad entries are outer jets of d(sin)/du
    (u,) = lift([0.5])
    inner = lift([u], order=2)
    s = sin(inner[0])
    dju = s.grad[0]  # cos(u) carried as an outer jet
    v, g, h = parts(dju, 1)
    assert abs(value_of(v) - math.cos(0.5)) < 1e-15
    assert abs(value_of(g[0]) + math.sin(0.5)) < 1e-15
    assert abs(value_of(h[0][0]) + math.cos(0.5)) < 1e-15


def test_level_isolation_outer_jet_constant_inside_inner_lift():
    (u,) = lift([0.7])
    w = Jet(0.2, [1.0], [[0.0]], level=u.level + 1)
    mixed = u * w + sin(u)
    # derivative with respect to the inner variable is exactly u
    v, g, _ = parts(mixed, 1, level=w.level)
    assert value_of(g[0]) == pytest.approx(0.7, abs=0)
    # the value keeps full outer-jet structure
    vv, vg, _ = parts(v, 1, level=u.level)
    assert abs(value_of(vg[0]) - (0.2 + math.cos(0.7))) < 1e-15


def test_order_one_jets_carry_no_hessian():
    x, y = lift([0.3, 0.4], order=1)
    out = sin(x) * y
    assert isinstance(out, Jet)
    assert out.hess is None


def test_generic_matrix_inverse_with_jets():
    x, y = lift([1.1, 0.4])
    m = [[x, y], [y, exp(x)]]
    inv = mat_inv(m)
    eye = [
        [value_of(sum_entry) for sum_entry in row]
        for row in [
            [inv[0][0] * m[0][0] + inv[0][1] * m[1][0],
             inv[0][0] * m[0][1] + inv[0][1] * m[1][1]],
            [inv[1][0] * m[0][0] + inv[1][1] * m[1][0],
             inv[1][0] * m[0][1] + inv[1][1] * m[1][1]],
        ]
    ]
    assert np.abs(np.array(eye) - np.eye(2)).max() < 1e-12

    def inv00(a, b):
        return float(np.linalg.inv(np.array([[a, b], [b, math.exp(a)]]))[0, 0])

    fd = (inv00(1.1 + FD_STEP, 0.4) - inv00(1.1 - FD_STEP, 0.4)) / (2 * FD_STEP)
    _, g, _ = parts(inv[0][0], 2)
    assert abs(value_of(g[0]) - fd) < 1e-8


def test_singular_generic_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        mat_inv([[1.0, 1.0], [1.0, 1.0]])


def test_mat_vec_mixed_scalars():
    (x,) = lift([0.25])
    out = mat_vec([[x, 1.0], [0.0, x]], [2.0, x])
    assert abs(value_of(out[0]) - (0.5 + 1.0 * 0.25)) < 1e-15


# -- bulk conversion to float arrays --------------------------------------------

# constants as component functions return them: floats of any size, and ints
constants = st.floats(width=64) | st.integers(-10**6, 10**6)


def _jets(level, m, scalars):
    """Jets of ``level`` over m coordinates whose entries come from
    ``scalars``, with and without a Hessian."""
    row = st.lists(scalars, min_size=m, max_size=m)
    hess = st.none() | st.lists(row, min_size=m, max_size=m)
    return st.builds(lambda v, g, h: Jet(v, g, h, level), scalars, row, hess)


@st.composite
def conversions(draw):
    """(entries, m, order, level): constants, level-1 jets, and level-2 jets
    whose value and partials are level-1 jets (over a lift of any size) or
    constants."""
    m = draw(st.integers(1, 3))
    inner = constants | _jets(1, draw(st.integers(1, 3)), constants)
    scalar = constants | _jets(1, m, constants) | _jets(2, m, inner)
    entries = draw(st.lists(scalar, max_size=6))
    return entries, m, draw(st.integers(0, 2)), draw(st.sampled_from((None, 1, 2)))


@settings(max_examples=300, deadline=None)
@given(conversions())
def test_bulk_conversion_equals_per_entry_reference(case):
    got = arrays(*case)
    ref = entry_arrays(*case)
    assert len(got) == len(ref) == case[2] + 1
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # bit for bit: signed zeros, NaN
