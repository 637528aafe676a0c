import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import mat_inv, mat_vec, parts, value_of
from weakf import jets
from weakf.jets import Jet, arrays, cos, exp, lift, log, sin, sqrt, tan

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


def _at(point, order=2):
    """Coordinate jets over the one point ``point``."""
    return lift(np.array([point]), order)


@settings(max_examples=60, deadline=None)
@given(finite, finite, finite, finite, finite)
def test_gradient_matches_finite_differences(a, b, c, x, y):
    fn = _poly_trig(a, b, c)
    out = fn(*_at([x, y]))
    assert math.isclose(out.val[0], fn(x, y), rel_tol=0, abs_tol=1e-12)
    fx, fy = _fd_grad(fn, x, y)
    scale = 1.0 + abs(fx) + abs(fy)
    assert abs(out.grad[0, 0] - fx) <= 1e-6 * scale
    assert abs(out.grad[0, 1] - fy) <= 1e-6 * scale


@settings(max_examples=60, deadline=None)
@given(finite, finite, finite, finite, finite)
def test_hessian_symmetric_and_matches_cross_difference(a, b, c, x, y):
    fn = _poly_trig(a, b, c)
    h = fn(*_at([x, y])).hess[0]
    assert h[0, 1] == h[1, 0]
    step = 1e-4
    cross = (
        fn(x + step, y + step)
        - fn(x + step, y - step)
        - fn(x - step, y + step)
        + fn(x - step, y - step)
    ) / (4 * step * step)
    assert abs(h[0, 1] - cross) <= 5e-5 * (1.0 + abs(cross))


def test_division_and_log_rules():
    (x,) = _at([0.8])
    out = log(x) / (1.0 + x**2)
    f = lambda t: math.log(t) / (1.0 + t * t)
    assert math.isclose(out.val[0], f(0.8), abs_tol=1e-14)
    fd = (f(0.8 + FD_STEP) - f(0.8 - FD_STEP)) / (2 * FD_STEP)
    assert abs(out.grad[0, 0] - fd) < 1e-9


def test_tan_consistent_with_sin_over_cos():
    (x,) = _at([0.6])
    diff = tan(x) - sin(x) / cos(x)
    assert abs(diff.val[0]) < 1e-15
    assert abs(diff.grad[0, 0]) < 1e-14


def test_order_one_jets_carry_no_hessian():
    x, y = _at([0.3, 0.4], order=1)
    out = sin(x) * y
    assert isinstance(out, Jet)
    assert out.hess is None


def test_domain_errors_match_math():
    # on arrays and on array jets, sqrt and log refuse what math refuses,
    # with its message, if any point is outside the domain
    stack = np.array([[0.5], [-0.25], [2.0]])
    (x,) = lift(stack)
    for fn, bad in ((sqrt, x), (log, x), (log, x * 0.0), (sqrt, stack[:, 0])):
        with pytest.raises(ValueError, match="^math domain error$"):
            fn(bad)
    with pytest.raises(ValueError, match="^math domain error$"):
        math.sqrt(-0.25)
    # NaN passes through, as math.sqrt(nan) does
    assert np.isnan(sqrt(np.array([np.nan]))).all()


# -- the nesting scalar jet of the test oracle ----------------------------------


def test_nested_lift_gives_third_derivatives():
    # inner lift over an outer jet: grad entries are outer jets of d(sin)/du
    (u,) = oracles.lift([0.5])
    inner = oracles.lift([u], order=2)
    s = sin(inner[0])
    dju = s.grad[0]  # cos(u) carried as an outer jet
    v, g, h = parts(dju, 1)
    assert abs(value_of(v) - math.cos(0.5)) < 1e-15
    assert abs(value_of(g[0]) + math.sin(0.5)) < 1e-15
    assert abs(value_of(h[0][0]) + math.cos(0.5)) < 1e-15


def test_level_isolation_outer_jet_constant_inside_inner_lift():
    (u,) = oracles.lift([0.7])
    w = oracles.Jet(0.2, [1.0], [[0.0]], level=u.level + 1)
    mixed = u * w + sin(u)
    # derivative with respect to the inner variable is exactly u
    v, g, _ = parts(mixed, 1, level=w.level)
    assert value_of(g[0]) == pytest.approx(0.7, abs=0)
    # the value keeps full outer-jet structure
    vv, vg, _ = parts(v, 1, level=u.level)
    assert abs(value_of(vg[0]) - (0.2 + math.cos(0.7))) < 1e-15


def test_oracle_lift_over_array_jets():
    # a nested oracle lift over the package's jets: the array jets are its
    # constants, so the inner derivative of sin is cos, as an array jet
    # carrying d(cos)/du at the point
    (u,) = _at([0.5])
    (x,) = oracles.lift([u], order=1)
    _, g, _ = parts(sin(x), 1, order=1)
    assert isinstance(g[0], Jet)
    assert g[0].val[0] == pytest.approx(math.cos(0.5), abs=1e-15)
    assert g[0].grad[0, 0] == pytest.approx(-math.sin(0.5), abs=1e-15)


def test_generic_matrix_inverse_with_jets():
    x, y = oracles.lift([1.1, 0.4])
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
    (x,) = oracles.lift([0.25])
    out = mat_vec([[x, 1.0], [0.0, x]], [2.0, x])
    assert abs(value_of(out[0]) - (0.5 + 1.0 * 0.25)) < 1e-15


# -- array jets against the oracle on random expressions ------------------------

# Fixed before the first run: every value, gradient and Hessian entry of the
# array jet is within ORACLE_TOL * max(1, |oracle|) of the oracle's. Both
# use the same formulas; numpy's exp, log and pow may differ from math's by
# an ulp, and NODE_BOUND keeps every intermediate small enough that such
# differences cannot grow past the tolerance through cancellation.
ORACLE_TOL = 1e-9
NODE_BOUND = 1e4
M = 2

UNARY = ("sin", "cos", "tan", "exp", "log", "sqrt")
BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}
EXPONENTS = (0, 1, 2, 3, -1, -2, 0.5, 1.5)

leaves = st.one_of(
    st.tuples(st.just("x"), st.integers(0, M - 1)),
    st.tuples(st.just("c"), st.floats(-2.0, 2.0, allow_nan=False)),
)
trees = st.recursive(leaves, lambda sub: st.one_of(
    st.tuples(st.sampled_from(sorted(BINARY)), sub, sub),
    st.tuples(st.just("**"), sub, st.sampled_from(EXPONENTS)),
    st.tuples(st.sampled_from(UNARY), sub),
), max_leaves=8)


class Rejected(Exception):
    """The expression leaves the region where the comparison is meaningful."""


def evaluate(tree, coords, check=lambda node: None):
    op = tree[0]
    if op == "x":
        out = coords[tree[1]]
    elif op == "c":
        out = tree[1]
    elif op == "**":
        out = evaluate(tree[1], coords, check) ** tree[2]
    elif op in BINARY:
        out = BINARY[op](evaluate(tree[1], coords, check),
                         evaluate(tree[2], coords, check))
    else:
        out = getattr(jets, op)(evaluate(tree[1], coords, check))
    check(out)
    return out


def _oracle_parts(x):
    """(value, gradient, Hessian) floats of an oracle result over M
    coordinates."""
    v, g, h = parts(x, M)
    return (np.array(v, dtype=float), np.array(g, dtype=float),
            np.array(h, dtype=float))


def _bounded(node):
    try:
        arrs = _oracle_parts(node)
    except TypeError:           # a complex power of a negative base
        raise Rejected from None
    if not all(np.isfinite(a).all() and np.abs(a).max() <= NODE_BOUND
               for a in arrs):
        raise Rejected


def oracle_jet(tree, point):
    """The oracle's (value, gradient, Hessian) of ``tree`` at ``point``."""
    coords = oracles.lift([float(c) for c in point])
    return _oracle_parts(evaluate(tree, coords, _bounded))


def array_jet(tree, points):
    """The array jet's (value, gradient, Hessian) stacks over ``points``."""
    out = evaluate(tree, lift(points))
    count = len(points)
    if not isinstance(out, Jet):      # an expression free of coordinates
        out = Jet(np.full(count, float(out)), np.zeros((count, M)),
                  np.zeros((count, M, M)))
    return [np.broadcast_to(a, (count,) + (M,) * k)
            for k, a in enumerate((out.val, out.grad, out.hess))]


stacks = st.lists(st.lists(finite, min_size=M, max_size=M),
                  min_size=1, max_size=5).map(np.array)


@settings(max_examples=400, deadline=None)
@given(trees, stacks)
def test_array_jet_matches_oracle_jet(tree, points):
    try:
        want = [oracle_jet(tree, p) for p in points]
    except (Rejected, ValueError, ZeroDivisionError, OverflowError):
        assume(False)
    got = array_jet(tree, points)
    assert (got[2] == got[2].swapaxes(1, 2)).all()      # exactly symmetric
    for k, ref in enumerate(want):
        for a, b in zip((g[k] for g in got), ref):
            assert np.all(np.abs(a - b) <= ORACLE_TOL * np.maximum(1.0, np.abs(b)))


@settings(max_examples=300, deadline=None)
@given(trees, stacks)
def test_stack_rows_equal_single_point_jets_bitwise(tree, points):
    try:
        for p in points:
            oracle_jet(tree, p)
    except (Rejected, ValueError, ZeroDivisionError, OverflowError):
        assume(False)
    stacked = array_jet(tree, points)
    for k, p in enumerate(points):
        alone = array_jet(tree, p[None])
        for a, b in zip(stacked, alone):
            assert np.ascontiguousarray(a[k]).tobytes() == \
                np.ascontiguousarray(b[0]).tobytes()


# -- bulk conversion to float stacks ----------------------------------------------

# constants as component functions return them: floats of any size, and ints
constants = st.floats(width=64) | st.integers(-10**6, 10**6)


@st.composite
def conversions(draw):
    """(entries, count, m, order): constants and array jets over count
    points and m coordinates, with and without a Hessian."""
    count, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def block(*shape):
        return np.array(draw(st.lists(constants, min_size=math.prod(shape),
                                      max_size=math.prod(shape))),
                        dtype=float).reshape(shape)

    def jet():
        hess = block(count, m, m) if draw(st.booleans()) else None
        return Jet(block(count), block(count, m), hess)

    entries = [jet() if draw(st.booleans()) else draw(constants)
               for _ in range(draw(st.integers(0, 6)))]
    return entries, count, m, draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(conversions())
def test_bulk_conversion_stacks_every_entry(case):
    entries, count, m, order = case
    got = arrays(*case)
    assert [a.shape for a in got] == [(count, len(entries)) + (m,) * k
                                       for k in range(order + 1)]
    for i, e in enumerate(entries):
        want = [e.val, e.grad, e.hess] if isinstance(e, Jet) else [e]
        for k, a in enumerate(got):
            w = want[k] if k < len(want) and want[k] is not None else 0.0
            ref = np.broadcast_to(np.asarray(w, dtype=float), a[:, i].shape)
            assert a[:, i].tobytes() == np.ascontiguousarray(ref).tobytes()
    if not any(isinstance(e, Jet) for e in entries):
        # a constant field: broadcast views, no per-point memory
        assert all(not a.flags.writeable for a in got)
