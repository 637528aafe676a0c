"""Field-level tensor calculus: the independent oracle of the test suite.

The engine in ``src/weakf`` evaluates every identity as numpy contractions
of the jet arrays cached on a ``FrameStack``, over a chunk of points or, as
``PackFrame``, over one point alone: a point is a stack of one. The
per-point bodies here read one row of such a stack (``FrameRow``). The
field-level functions take genuine fields instead: vector-field arguments
are ``SmoothField`` objects, brackets and exterior derivatives use the
co-boundary formulas on those extensions, and the Nijenhuis torsion exists
in both its commutator and connection forms. The tests compare the engine
against them, and them against central finite differences. Conventions are
those of ``weakf.calculus``. The nesting scalar jet below is the oracle of
the package's array jets.
"""

import math
from dataclasses import replace

import numpy as np

from weakf.calculus import (
    christoffel_from_jets,
    lie_metric_kernel,
    lie_tensor11_kernel,
    metric_inverse,
    nabla_tensor11_kernel,
)
from weakf import charts, cli
from weakf.catalog import make_example
from weakf.charts import Rows, SmoothField, jet_stack
from weakf.errors import DegenerateOperatorError, WeakfError
from weakf.fstructure import (
    _Q_EIGEN_FLOOR,
    _RANK_POSITIVE_FLOOR,
    _RANK_ZERO_CEIL,
    PackFrame,
    StructurePack,
    FrameStack,
)
from weakf import jets
from weakf.jets import cos, sin
from weakf.errors import HypothesisNotMet
from weakf.sampling import (TestVectors, lead_dot, pair_form, sup_abs,
                            sup_norm, unit_rows)
from weakf.submanifold import _AmbientPoint, _induced, induce_structure


def worst(residuals):
    """The largest of ``residuals``, and NaN if any of them is NaN.

    Python's ``max`` keeps a NaN only when it comes first, so a NaN part
    could leave a composite check passing.
    """
    values = list(residuals)
    return math.nan if any(map(math.isnan, values)) else max(values)


# -- the nesting scalar jet -------------------------------------------------------
#
# The package's jets are array-backed and never nest. This is the scalar
# forward-mode jet they replaced, kept as their independent oracle and for
# the nested lifts below: every lift carries a level tag so that nested
# lifts never mix their perturbations (a jet of a lower level behaves as a
# constant inside a higher level), and seeding a lift whose entries are
# jets yields derivatives of derivative data. The package's math helpers
# (``weakf.jets.sin``, ...) apply to it through its ``_chain``.


class Jet:
    """Truncated Taylor scalar at one point: value, gradient, optional Hessian.

    ``grad`` is a list of length m, ``hess`` either ``None`` (first-order
    jet) or an m-by-m list of lists. Entries are generic scalars: floats,
    jets of a strictly lower level, or the package's array jets, which count
    as constants here.
    """

    __slots__ = ("val", "grad", "hess", "level")
    __array_ufunc__ = None  # force numpy scalars to defer to our operators

    def __init__(self, val, grad, hess=None, level=1):
        self.val = val
        self.grad = grad
        self.hess = hess
        self.level = level

    @property
    def dim(self):
        return len(self.grad)

    def __repr__(self):
        return f"Jet({self.val!r}, grad={self.grad!r}, level={self.level})"

    @staticmethod
    def _sym(m, build):
        """Assemble a Hessian from its upper triangle; symmetry is exact."""
        h = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                e = build(i, j)
                h[i][j] = e
                h[j][i] = e
        return h

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            if other.level > self.level:
                return other.__radd__(self)
            if other.level == self.level:
                h = None
                if self.hess is not None and other.hess is not None:
                    h = [
                        [a + b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.hess, other.hess)
                    ]
                return Jet(
                    self.val + other.val,
                    [a + b for a, b in zip(self.grad, other.grad)],
                    h,
                    self.level,
                )
        return Jet(self.val + other, self.grad, self.hess, self.level)

    __radd__ = __add__

    def __neg__(self):
        h = None
        if self.hess is not None:
            h = [[-a for a in row] for row in self.hess]
        return Jet(-self.val, [-a for a in self.grad], h, self.level)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            if other.level > self.level:
                return other.__rmul__(self)
            if other.level == self.level:
                sv, ov = self.val, other.val
                g = [
                    a * ov + sv * b for a, b in zip(self.grad, other.grad)
                ]
                h = None
                if self.hess is not None and other.hess is not None:
                    h = Jet._sym(
                        len(self.grad),
                        lambda i, j: self.hess[i][j] * ov
                        + self.grad[i] * other.grad[j]
                        + self.grad[j] * other.grad[i]
                        + sv * other.hess[i][j],
                    )
                return Jet(sv * ov, g, h, self.level)
        h = None
        if self.hess is not None:
            h = [[a * other for a in row] for row in self.hess]
        return Jet(self.val * other, [a * other for a in self.grad], h, self.level)

    __rmul__ = __mul__

    def _recip(self):
        # 1/u: d = -1/u^2, dd = 2/u^3
        v = self.val
        inv = 1.0 / v
        d = -inv * inv
        g = [d * a for a in self.grad]
        h = None
        if self.hess is not None:
            dd = 2.0 * inv * inv * inv
            h = Jet._sym(
                len(self.grad),
                lambda i, j: dd * self.grad[i] * self.grad[j]
                + d * self.hess[i][j],
            )
        return Jet(inv, g, h, self.level)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            if other.level > self.level:
                return other.__rtruediv__(self)
            if other.level == self.level:
                return self * other._recip()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._recip() * other

    def __pow__(self, p):
        if isinstance(p, Jet):
            raise TypeError("jet exponents are not supported")
        if p == 0:
            return Jet(1.0, [0.0] * len(self.grad),
                       None if self.hess is None else
                       [[0.0] * len(self.grad) for _ in self.grad],
                       self.level)
        if p == 1:
            return self
        if p == 2:
            return self * self
        return self._chain(
            lambda t: t ** p,
            lambda t: p * t ** (p - 1),
            lambda t: p * (p - 1) * t ** (p - 2),
        )

    # -- chain rule ---------------------------------------------------------

    def _chain(self, f, df, ddf):
        """Compose with a scalar function given its first two derivatives."""
        fv = f(self.val)
        d1 = df(self.val)
        g = [d1 * a for a in self.grad]
        h = None
        if self.hess is not None:
            d2 = ddf(self.val)
            h = Jet._sym(
                len(self.grad),
                lambda i, j: d2 * self.grad[i] * self.grad[j]
                + d1 * self.hess[i][j],
            )
        return Jet(fv, g, h, self.level)


def lift(coords, order=2):
    """Seed coordinate jets over ``coords`` (floats, lower-level jets, or
    array jets)."""
    lvl = 1 + max(
        (c.level for c in coords if isinstance(c, Jet)), default=0
    )
    m = len(coords)
    out = []
    for k, c in enumerate(coords):
        g = [1.0 if j == k else 0.0 for j in range(m)]
        h = None if order < 2 else [[0.0] * m for _ in range(m)]
        out.append(Jet(c, g, h, lvl))
    return out


def value_of(x):
    """Strip all jet layers from a scalar; an array jet must be over one
    point."""
    while isinstance(x, (Jet, jets.Jet)):
        x = x.val
    return float(np.reshape(x, ()))


class DegeneratePlaneError(WeakfError):
    """Sectional curvature requested on a (nearly) degenerate 2-plane."""


# -- kernels on raw jet arrays -------------------------------------------------


def nabla_vector_kernel(gamma, x0, y0, y1):
    """(D_X Y)^k at a point from Y's first jets; X enters by value only."""
    return x0 @ y1.T + np.einsum("kij,i,j->k", gamma, x0, y0)


def lie_bracket_kernel(x0, x1, y0, y1):
    """[X,Y]^k = X^i d_i Y^k - Y^i d_i X^k."""
    return np.einsum("i,ki->k", x0, y1) - np.einsum("i,ki->k", y0, x1)


def lie_oneform_kernel(w0, w1, x0, x1):
    """(L_X w)_a = X^k d_k w_a + w_k d_a X^k."""
    return np.einsum("k,ak->a", x0, w1) + np.einsum("k,ka->a", w0, x1)


def nijenhuis_nabla_kernel(gamma, s0, s1, x0, y0):
    """(S D_Y S - D_{SY} S)X - (S D_X S - D_{SX} S)Y."""
    ns = nabla_tensor11_kernel(gamma, s0, s1)  # [i,k,j]
    sx = s0 @ x0
    sy = s0 @ y0

    def half(u, su, w):
        # (S D_u S - D_{su} S) w
        a = s0 @ np.einsum("ikj,i,j->k", ns, u, w)
        b = np.einsum("ikj,i,j->k", ns, su, w)
        return a - b

    return half(y0, sy, x0) - half(x0, sx, y0)


# -- field-level operations ----------------------------------------------------
#
# Every field jet here comes from the scalar Jet above, not from the engine's
# array jets.


def field_jet(field, p, order=2):
    """(value, d1[, d2]) arrays of ``field`` at ``p``, laid out as
    ``SmoothField.jet`` lays them out, from one call of the component
    function on the scalar :class:`Jet`."""
    m = len(p)
    out = np.array(field.fn(lift([float(c) for c in p], order)), dtype=object)
    entries = [parts(x, m, order) for x in out.flat]
    return tuple(
        np.array([e[k] for e in entries], dtype=float).reshape(
            out.shape + (m,) * k)
        for k in range(order + 1))


def _vec_jets(x, p, order=1):
    return field_jet(x, p, order)


def riemann_from_jets(ginv, gamma, g1, g2):
    """Riem[l,i,j,k] with (R(e_i,e_j)e_k)^l = Riem[l,i,j,k], the whole
    Riemann tensor at one point.

    ``ginv`` and ``gamma`` are the metric inverse and Christoffel symbols at
    the point; ``g2`` holds the second metric partials, from which
    dGamma[k,i,j,c] = d_c Gamma^k_ij is formed. The engine reads only
    R(xi, .)xi, from ``calculus.reeb_curvature_kernel``.
    """
    dginv = -np.moveaxis(ginv @ np.moveaxis(g1, 2, 0) @ ginv, 0, 2)
    # t[l,i,j] = d_i g_jl + d_j g_il - d_l g_ij, and dt[l,i,j,c] = d_c t[l,i,j]
    t = (np.einsum("jli->lij", g1) + np.einsum("ilj->lij", g1)
         - np.einsum("ijl->lij", g1))
    dt = (np.einsum("jlic->lijc", g2) + np.einsum("iljc->lijc", g2)
          - np.einsum("ijlc->lijc", g2))
    dga = 0.5 * (
        np.einsum("klc,lij->kijc", dginv, t)
        + np.einsum("kl,lijc->kijc", ginv, dt)
    )
    return (
        np.einsum("ljki->lijk", dga)
        - np.einsum("likj->lijk", dga)
        + np.einsum("lia,ajk->lijk", gamma, gamma)
        - np.einsum("lja,aik->lijk", gamma, gamma)
    )


def reeb_of(riem, xi):
    """r[i, l, j] = (R(xi_i, e_j) xi_i)^l of the Riemann tensor ``riem`` for
    the vectors xi[i, m], as ``FrameStack.reeb_curvature`` holds a point's."""
    return np.einsum("lajb,ia,ib->ilj", riem, xi, xi)


def christoffel(g, p):
    """Levi-Civita coefficients Gamma^k_ij of ``g`` at ``p``."""
    g0, g1 = field_jet(g, p, 1)
    return christoffel_from_jets(metric_inverse(g0, p), g1)


def riemann(g, p):
    """Riem[l,i,j,k] of ``g`` at ``p`` from its second jets."""
    g0, g1, g2 = field_jet(g, p, 2)
    ginv = metric_inverse(g0, p)
    return riemann_from_jets(ginv, christoffel_from_jets(ginv, g1), g1, g2)


def nabla_vector(g, x, y, p):
    """Covariant derivative (D_X Y) at ``p``; Y must be a field near p."""
    gamma = christoffel(g, p)
    x0 = x.value(p)
    y0, y1 = _vec_jets(y, p)
    return nabla_vector_kernel(gamma, x0, y0, y1)


def nabla_tensor11(g, t, x, y, p):
    """((D_X T) Y) at ``p``; tensorial in both X and Y."""
    gamma = christoffel(g, p)
    t0, t1 = field_jet(t, p, 1)
    nt = nabla_tensor11_kernel(gamma, t0, t1)
    return np.einsum("ikj,i,j->k", nt, x.value(p), y.value(p))


def lie_bracket(x, y, p):
    """[X, Y] at ``p``."""
    x0, x1 = _vec_jets(x, p)
    y0, y1 = _vec_jets(y, p)
    return lie_bracket_kernel(x0, x1, y0, y1)


def lie_derivative(target, x, p):
    """(L_X target) at ``p``; kind read off the target field."""
    x0, x1 = _vec_jets(x, p)
    t0, t1 = field_jet(target, p, 1)
    if target.kind == "metric":
        return lie_metric_kernel(t0, t1, x0, x1)
    if target.kind == "tensor11":
        return lie_tensor11_kernel(t0, t1, x0, x1)
    if target.kind == "oneform":
        return lie_oneform_kernel(t0, t1, x0, x1)
    raise ValueError(f"lie_derivative does not handle kind {target.kind!r}")


def d_oneform(w, x, y, p):
    """dw(X,Y) at ``p`` via the half-normalized co-boundary formula."""
    x0, x1 = _vec_jets(x, p)
    y0, y1 = _vec_jets(y, p)
    w0, w1 = field_jet(w, p, 1)
    # X(w(Y)) = X^i d_i (w_k Y^k)
    xwy = np.einsum("i,ki,k->", x0, w1, y0) + np.einsum("i,k,ki->", x0, w0, y1)
    ywx = np.einsum("i,ki,k->", y0, w1, x0) + np.einsum("i,k,ki->", y0, w0, x1)
    br = lie_bracket_kernel(x0, x1, y0, y1)
    return 0.5 * (xwy - ywx - w0 @ br)


def d_twoform(w, x, y, z, p):
    """dw(X,Y,Z) at ``p`` via the third-normalized co-boundary formula."""
    x0, x1 = _vec_jets(x, p)
    y0, y1 = _vec_jets(y, p)
    z0, z1 = _vec_jets(z, p)
    w0, w1 = field_jet(w, p, 1)

    def dirderiv(u0, a0, a1, b0, b1):
        # U(w(A,B)) with all three fields varying
        return (
            np.einsum("i,abi,a,b->", u0, w1, a0, b0)
            + np.einsum("i,ab,ai,b->", u0, w0, a1, b0)
            + np.einsum("i,ab,a,bi->", u0, w0, a0, b1)
        )

    term = (
        dirderiv(x0, y0, y1, z0, z1)
        + dirderiv(y0, z0, z1, x0, x1)
        + dirderiv(z0, x0, x1, y0, y1)
    )
    bxy = lie_bracket_kernel(x0, x1, y0, y1)
    bzx = lie_bracket_kernel(z0, z1, x0, x1)
    byz = lie_bracket_kernel(y0, y1, z0, z1)
    term -= np.einsum("ab,a,b->", w0, bxy, z0)
    term -= np.einsum("ab,a,b->", w0, bzx, y0)
    term -= np.einsum("ab,a,b->", w0, byz, x0)
    return term / 3.0


def nijenhuis(s, x, y, p, mode="bracket", g=None):
    """Nijenhuis torsion [S,S](X,Y) at ``p``.

    ``mode="bracket"`` uses the commutator definition on the given field
    extensions; ``mode="nabla"`` rewrites it through the Levi-Civita
    connection of ``g`` and is tensorial in X and Y.
    """
    s0, s1 = field_jet(s, p, 1)
    if mode == "bracket":
        x0, x1 = _vec_jets(x, p)
        y0, y1 = _vec_jets(y, p)
        sx0 = s0 @ x0
        sy0 = s0 @ y0
        # first jets of the composite fields SX, SY
        sx1 = np.einsum("kji,j->ki", s1, x0) + s0 @ x1
        sy1 = np.einsum("kji,j->ki", s1, y0) + s0 @ y1
        term = s0 @ (s0 @ lie_bracket_kernel(x0, x1, y0, y1))
        term = term + lie_bracket_kernel(sx0, sx1, sy0, sy1)
        term = term - s0 @ lie_bracket_kernel(sx0, sx1, y0, y1)
        term = term - s0 @ lie_bracket_kernel(x0, x1, sy0, sy1)
        return term
    if mode == "nabla":
        if g is None:
            raise ValueError("mode='nabla' needs the metric g")
        gamma = christoffel(g, p)
        return nijenhuis_nabla_kernel(gamma, s0, s1, x.value(p), y.value(p))
    raise ValueError(f"unknown nijenhuis mode {mode!r}")


def curvature(g, x, y, z, p):
    """R(X,Y)Z at ``p``; tensorial, needs second metric derivatives."""
    return np.einsum(
        "lijk,i,j,k->l", riemann(g, p), x.value(p), y.value(p), z.value(p)
    )


def sectional(g, x, y, p):
    """Sectional curvature of the plane spanned by X and Y at ``p``."""
    riem = riemann(g, p)
    g0 = g.value(p)
    x0 = x.value(p) if hasattr(x, "value") else np.asarray(x, dtype=float)
    y0 = y.value(p) if hasattr(y, "value") else np.asarray(y, dtype=float)
    return sectional_from_riemann(riem, g0, x0, y0)


def sectional_from_riemann(riem, g0, x0, y0):
    gram = (x0 @ g0 @ x0) * (y0 @ g0 @ y0) - (x0 @ g0 @ y0) ** 2
    if gram < 1e-12:
        raise DegeneratePlaneError(
            f"degenerate plane: |X wedge Y|^2 = {gram:.3e}"
        )
    rxyyx = np.einsum("lijk,i,j,k->l", riem, x0, y0, y0) @ g0 @ x0
    return float(rxyyx / gram)


# -- fields built from other fields --------------------------------------------


def scale_field(f, factor, name=""):
    """Pointwise scaling of all components; used to build broken packs."""
    factor = float(factor)

    def fn(x, base=f.fn, c=factor):
        out = base(x)
        if f.kind == "scalar":
            return c * out
        if f.kind in ("vector", "oneform"):
            return [c * e for e in out]
        return [[c * e for e in row] for row in out]

    return SmoothField(f.chart, f.kind, fn, name=name or f.name)


def metric_eigen_floor(g_val):
    """Smallest eigenvalue of a symmetric matrix (diagnostic helper)."""
    return float(np.linalg.eigvalsh(0.5 * (g_val + g_val.T)).min())


def fundamental_form_field(pack):
    """Phi as a twoform field on the pack's chart (for exterior calculus)."""

    def fn(u, gfn=pack.g.fn, ffn=pack.f.fn):
        return mat_mul(gfn(u), ffn(u))

    return SmoothField(pack.chart, "twoform", fn, name="fundamental_form")


def tensor_apply_field(t_field, v_field, name=""):
    """The vector field T(V) built from a (1,1)-tensor field and a vector field."""

    def fn(u, tfn=t_field.fn, vfn=v_field.fn):
        return mat_vec(tfn(u), vfn(u))

    return SmoothField(t_field.chart, "vector", fn, name=name)


# -- pack and submanifold evaluators -------------------------------------------


def phi(pack, x, y, p, fr=None):
    """Fundamental two-form Phi(X, Y) = g(X, fY) at ``p``."""
    fr = fr or frame(pack, p)
    x0 = np.asarray(x, dtype=float)
    y0 = np.asarray(y, dtype=float)
    return float(x0 @ fr.phi0 @ y0)


def structure_tensors(pack, p, which, fr=None):
    """Evaluator for one of the four structure tensors at ``p``.

    ``N1(X, Y)`` returns a tangent vector; ``N2(i, X, Y)`` a scalar;
    ``N3(i, X)`` a tangent vector; ``N4(i, j, X)`` a scalar. Arguments are
    coordinate vectors at ``p``.
    """
    fr = fr or frame(pack, p)
    if which == "N1":
        def n1(x, y):
            x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
            return fr.n1_coeff @ y @ x
        return n1
    if which == "N2":
        def n2(i, x, y):
            x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
            return float(x @ fr.n2_coeff[i] @ y)
        return n2
    if which == "N3":
        mats = lie_tensor11_kernel(fr.f0, fr.f1, fr.xi0, fr.xi1)
        def n3(i, x):
            return mats[i] @ np.asarray(x, dtype=float)
        return n3
    if which == "N4":
        def n4(i, j, x):
            x = np.asarray(x, dtype=float)
            return 2.0 * float(fr.xi0[i] @ fr.deta[j] @ x)
        return n4
    raise ValueError(f"unknown structure tensor {which!r}")


def second_fundamental(sub, x, y, p):
    """(h(X,Y) as an ambient normal vector, [A_i X] as domain tangents).

    Built for one pair of vectors from the embedding's second derivatives,
    the normals' first derivatives and the ambient Christoffel symbols.
    """
    ap = ambient_point(sub, p)
    jx, jy = ap.jac @ x, ap.jac @ y
    # ambient D_X of the pushed constant field Y
    dxy = np.einsum("cab,a,b->c", ap.hess, x, y) + np.einsum(
        "cab,a,b->c", ap.gammabar, jx, jy)
    h_vec = ap.normal_part(dxy)
    a_list = []
    for i in range(sub.s):
        # ambient D_X N_i
        dn = ap.dnormals[i] @ x + np.einsum(
            "cab,a,b->c", ap.gammabar, jx, ap.normals[i])
        a_list.append(ap.to_domain(ap.tangent_part(-dn)))
    return h_vec, a_list


# -- parts of an oracle jet ---------------------------------------------------------


def parts(x, m, order=2, level=None):
    """(value, grad, hess) of a scalar with respect to one lift.

    Constants produced by component functions carry zero derivatives; with
    ``level`` given, jets of any other level count as constants too (they
    belong to a different lift).
    """
    if isinstance(x, Jet) and (level is None or x.level == level):
        g = list(x.grad)
        if order < 2:
            return x.val, g, None
        h = x.hess if x.hess is not None else [[0.0] * m for _ in range(m)]
        return x.val, g, h
    zeros = [0.0] * m
    if order < 2:
        return x, zeros, None
    return x, zeros, [[0.0] * m for _ in range(m)]


# -- small dense linear algebra over generic scalars ------------------------------
#
# Entries can be floats or jets of any level. Partial pivoting compares
# stripped float magnitudes only.


def dot(u, v):
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def mat_vec(a, v):
    return [dot(row, v) for row in a]


def mat_mul(a, b):
    n = len(b[0])
    return [[dot(row, [b[k][j] for k in range(len(b))]) for j in range(n)] for row in a]


def mat_inv(a):
    """Gauss-Jordan inverse of a small matrix of generic scalars."""
    m = len(a)
    aug = [list(row) + [1.0 if i == j else 0.0 for j in range(m)] for i, row in enumerate(a)]
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(value_of(aug[r][col])))
        if abs(value_of(aug[piv][col])) < 1e-14:
            raise ZeroDivisionError("singular matrix in generic inverse")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1.0 / aug[col][col]
        aug[col] = [e * inv_p for e in aug[col]]
        for r in range(m):
            if r == col:
                continue
            factor = aug[r][col]
            if isinstance(factor, Jet) or factor != 0.0:
                aug[r] = [e - factor * p for e, p in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


# -- induced structure through nested lifts ----------------------------------------


def nested_pullback(sub, coords, full=True):
    """The induced g, and with ``full`` also eta, xi, f and Q, at ``coords``.

    Entries of ``coords`` may be floats or jets of any level and the result
    stays at the caller's level: the induced components depend on the first
    derivatives of the embedding, which a nested order-1 lift supplies. This
    is generic jet arithmetic, independent of the closed form in
    ``weakf.submanifold``.
    """
    m = sub.domain.dim
    d = sub.ambient.dim
    inner = lift(list(coords), order=1)
    lvl = inner[0].level
    vals, jac = [], []
    for a in sub.embedding(inner):
        v, g, _ = parts(a, m, order=1, level=lvl)
        vals.append(v)
        jac.append(g)
    gbar = sub.ambient_metric.fn(vals)
    cols = [[jac[al][a] for al in range(d)] for a in range(m)]
    # lowered frame vectors: gj[a] = gbar . (J e_a)
    gj = [mat_vec(gbar, col) for col in cols]
    out = {"g": [[dot(cols[b], gj[a]) for b in range(m)] for a in range(m)]}
    if not full:
        return out
    fbar = sub.ambient_skew.fn(vals)
    fn = [mat_vec(fbar, nrm) for nrm in sub.normals(list(coords))]
    eta = [[dot(fn[i], gj[a]) for a in range(m)] for i in range(sub.s)]
    ginv = mat_inv(out["g"])
    fcols = [mat_vec(fbar, col) for col in cols]
    f2cols = [mat_vec(fbar, fcol) for fcol in fcols]
    out["eta"] = eta
    out["xi"] = [mat_vec(ginv, row) for row in eta]
    out["f"] = mat_mul(
        ginv, [[dot(gj[c], fcols[b]) for b in range(m)] for c in range(m)]
    )
    out["q"] = mat_mul(
        ginv, [[-dot(gj[c], f2cols[b]) for b in range(m)] for c in range(m)]
    )
    return out


def nested_induced_pack(sub):
    """The induced pack of ``sub`` with generic component functions.

    Its fields have jets of every order by :func:`nested_pullback`, so the
    field-level calculus applies to it directly; the metric evaluates g
    alone.
    """
    def square(piece):
        return lambda u: nested_pullback(sub, u, piece != "g")[piece]

    def row(piece, i):
        return lambda u: nested_pullback(sub, u)[piece][i]

    dom = sub.domain
    return StructurePack(
        chart=dom,
        f=SmoothField(dom, "tensor11", square("f"), name="nested_f"),
        Q=SmoothField(dom, "tensor11", square("q"), name="nested_Q"),
        xi=tuple(SmoothField(dom, "vector", row("xi", i), name=f"nested_xi_{i + 1}")
                 for i in range(sub.s)),
        eta=tuple(SmoothField(dom, "oneform", row("eta", i), name=f"nested_eta_{i + 1}")
                  for i in range(sub.s)),
        g=SmoothField(dom, "metric", square("g"), name="nested_metric"),
        n=sub.n,
        s=sub.s,
    )


def induced_values(sub, coords):
    """Values of the induced g, g^-1, f, Q, eta and xi at a float point,
    from the embedding's order-1 jet and the values of the ambient fields
    and normals: the reference of the induced fields' values."""
    iota, jac = (a[0] for a in jet_stack(sub.embedding, np.array([coords]), 1,
                                         "the embedding"))
    normals = np.array(sub.normals(coords), dtype=float)
    out = _induced(jac[None, None], sub.ambient_metric.value(iota)[None, None],
                   sub.ambient_skew.value(iota)[None, None],
                   normals.T[None, None], [coords])
    return {k: a[0, 0] for k, a in out.items()}


# -- one point's row of a frame stack -----------------------------------------


def take(value, k):
    """Row ``k`` of a stacked value: an array, the test vectors, or a tuple
    or dict of them."""
    if isinstance(value, dict):
        return {key: take(v, k) for key, v in value.items()}
    if isinstance(value, tuple):
        return tuple(take(v, k) for v in value)
    if isinstance(value, TestVectors):
        return replace(value, vectors=value.vectors[k],
                       triples=value.triples[k], factor=value.factor[k],
                       chain=value.chain[k])
    return value[k]


class FrameRow:
    """Row ``k`` of the frame stack ``stack``: one point's quantities, each
    the row of the stack's quantity of the same name, taken on first read.
    The per-point oracle bodies read a point through it."""

    def __init__(self, stack, k):
        self._chunk, self._k = stack, k
        self.pack = stack.pack
        self.p = stack.rows.points[k]

    def __getattr__(self, name):
        if name.startswith("__") or name in ("_chunk", "_k"):
            raise AttributeError(name)
        row = take(getattr(self._chunk, name), self._k)
        setattr(self, name, row)
        return row


def frame(pack, p, seed=0, index=0):
    """The row of the point ``p``'s own stack, sample ``index`` of a run."""
    return FrameRow(PackFrame(pack, p, seed=seed, index=index), 0)


def config_example(argv):
    """The pack of a ``weakf verify`` argument list's example, as the runner
    builds it: on an embedded example the induced pack, which carries its
    submanifold."""
    args = cli.build_parser().parse_args(["verify", *argv.split()])
    cat = make_example(args.example, **cli._parse_params(args.param))
    return cat.obj if cat.is_pack else induce_structure(cat.obj,
                                                        validate=False)


def config_frames(argv, samples, seed=42):
    """The frames of the first ``samples`` points of a ``weakf verify``
    argument list's example, each the row of its point's own stack, built
    with the seed and index the runner gives it."""
    pack = config_example(argv)
    return [frame(pack, p, seed=seed, index=i)
            for i, p in enumerate(pack.chart.sample(samples, seed))]


def stack(pack, points, seed=42):
    """The set-up stack of ``points`` as one chunk, as the runner builds it."""
    return FrameStack(pack, Rows(np.asarray(points, dtype=float)), seed)


def chunk_frames(pack, points, seed=42):
    """The frames of ``points`` as the runner's stacks hold them: the rows
    of the set-up stacks of chunks of ``charts.CHUNK`` points."""
    points, frames = np.asarray(points, dtype=float), []
    for start in range(0, len(points), charts.CHUNK):
        st = FrameStack(pack, Rows(points[start:start + charts.CHUNK], start),
                        seed)
        frames += [FrameRow(st, k) for k in range(len(st.rows))]
    return frames


# -- the submanifold checks at one point -----------------------------------------
#
# The engine checks an embedded example over a chunk of points at once, on
# the chunk's ambient stack. These are the checks at one point, on the row
# of that stack, as the engine made them point by point: the reference of
# the stacked rows.

AMBIENT_QUANTITIES = (
    "iota", "jac", "hess", "normals", "dnormals", "gbar0", "gbar1", "fbar0",
    "fbar1", "ginvbar", "gammabar", "g0", "coordinate_derivative", "hn",
    "shape_operators", "ubar", "basis", "nabla_fbar",
)


class AmbientRow:
    """Row ``k`` of an ambient stack: one point's ambient data, with
    ambient vectors at the image indexed v[c, ...]."""

    def __init__(self, stack, k):
        self.sub = stack.sub
        for name in AMBIENT_QUANTITIES:
            setattr(self, name, take(getattr(stack, name), k))
        self.induced_jets = take(stack.induced_jets, k)

    def to_domain(self, v):
        """Coordinates of tangent ambient vectors in the embedded basis."""
        return np.linalg.solve(self.g0, self.jac.T @ (self.gbar0 @ v))

    def normal_coefficients(self, v):
        return lead_dot(self.normals @ self.gbar0, v)

    def normal_part(self, v):
        return lead_dot(self.normals.T, self.normal_coefficients(v))

    def tangent_part(self, v):
        return v - self.normal_part(v)


def induced_riemann(stack, k):
    """Riem[l,i,j,k] of the induced metric at row ``k`` of the ambient stack
    ``stack``, from the Gauss equation

    g(R(X,Y)Z, W) = gbar(Rbar(X,Y)Z, W) + gbar(h(Y,Z), h(X,W))
                    - gbar(h(X,Z), h(Y,W)),

    with Rbar from a second-order jet of gbar: the whole tensor at one
    point, the reference of ``_AmbientStack.reeb_curvature``.
    """
    gbar = stack.sub.ambient_metric
    gbar2 = jet_stack(gbar.fn, stack.iota, 2, gbar.label)[2][k]
    rbar = riemann_from_jets(
        stack.ginvbar[k], stack.gammabar[k], stack.gbar1[k], gbar2)
    low = lead_dot(stack.gbar0[k], rbar)        # [w, i, j, k], lowered
    jac = stack.jac[k]
    for _ in range(4):                          # each slot through J
        low = (low.reshape(len(low), -1).T @ jac).reshape(
            low.shape[1:] + (-1,))
    hn = stack.hn[k]
    flat = hn.reshape(len(hn), -1)
    hh = (flat.T @ flat).reshape(hn.shape[1:] * 2)     # [a, b, c, e]
    low = low + np.einsum("jkiw->wijk", hh) - np.einsum("ikjw->wijk", hh)
    return lead_dot(stack.induced_jets["ginv"][k], low)


def ambient_point(sub, p):
    """The ambient data of ``sub`` at the one domain point ``p``."""
    return AmbientRow(_AmbientPoint(sub, p), 0)


def ambient_of(fr):
    """The ambient data at a frame's point, or None on a pack that is not
    induced."""
    ambient = fr._chunk.ambient
    return None if ambient is None else AmbientRow(ambient, fr._k)


def nearly_kahler_at_point(ap):
    """Sup of (D_X fbar)Y + (D_Y fbar)X over an ambient frame at the image."""
    nf = ap.nabla_fbar.transpose(1, 0, 2)
    c = lead_dot(ap.ubar, nf + nf.transpose(0, 2, 1))
    return sup_norm(pair_form(c, ap.basis, ap.basis))


def frame_check_at_point(ap):
    """The normal-frame requirements at the ambient point ``ap``."""
    res = {}
    gram = pair_form(ap.gbar0, ap.normals, ap.normals)
    res["normals_orthonormal"] = sup_abs(gram - np.eye(ap.sub.s))
    res["normals_perp_image"] = sup_abs(ap.normals @ ap.gbar0 @ ap.jac)
    fn = ap.normals @ ap.fbar0.T
    res["skew_normal_pairs"] = sup_abs(pair_form(ap.gbar0, fn, ap.normals))
    res["xi_tangent"] = sup_norm(lead_dot(ap.ubar, ap.normal_part(fn.T)))
    gf = ap.gbar0 @ ap.fbar0
    eb = ap.basis
    res["ambient_skew"] = sup_abs(pair_form(gf + gf.T, eb, eb))
    f2 = ap.fbar0 @ ap.fbar0
    f2_mat = eb @ ap.gbar0 @ (f2 @ eb.T)
    res["fbar_sq_negative"] = float(np.maximum(
        np.linalg.eigvalsh(0.5 * (f2_mat + f2_mat.T)).max()
        + _RANK_POSITIVE_FLOOR ** 2, 0.0))
    return res


def thsubm_at_point(fr, ap, case):
    """The residuals of the thsubm criterion for ``case`` at the frame's
    point, whatever its gate reads."""
    xi0, eta0, V, hn = fr.xi0, fr.eta0, fr.V, ap.hn
    a_mats = ap.shape_operators
    hxx = pair_form(hn, xi0, xi0)
    jv = ap.jac.T
    t = pair_form(ap.nabla_fbar.transpose(1, 0, 2), jv, jv)
    lhs_t = ap.tangent_part(t + t.transpose(0, 2, 1))
    dom = fr.nabla_f.transpose(1, 0, 2) + np.einsum("iA,ikB->kAB", eta0, a_mats)
    dom = dom + dom.transpose(0, 2, 1) - 2.0 * lead_dot(xi0.T, hn)
    disp = pair_form(hxx, eta0.T, eta0.T)
    a_disp = pair_form(hxx.transpose(0, 2, 1), xi0.T, eta0.T)
    if case == "i":
        f2 = fr.f0 @ fr.f0
        disp = disp - f2.T @ fr.g0
        a_disp = a_disp - f2
    res = {
        "aa_symmetry": sup_abs(hxx - hxx.transpose(1, 0, 2)),
        "h_display": sup_abs(pair_form(hn - disp, V, V)),
        "shape_display_duality": sup_abs(
            pair_form(a_disp.transpose(0, 2, 1) @ fr.g0 - disp, V, V)),
        "weingarten_duality": sup_abs(
            pair_form(a_mats.transpose(0, 2, 1) @ fr.g0 - hn, V, V)),
        "h_symmetric": sup_abs(pair_form(hn - hn.transpose(0, 2, 1), V, V)),
        "tangential_expansion": sup_norm(
            lead_dot(ap.ubar, lhs_t - lead_dot(ap.jac, dom))),
    }
    conclusion = "nearly_s_defining" if case == "i" else "nearly_c_defining"
    key = "conclusion_weak_nearly_S" if case == "i" else "conclusion_weak_nearly_C"
    res[key] = float(getattr(fr, conclusion))
    return res


def parallel_q_at_point(fr, ap):
    """The hypotheses and the conclusion of the parallel-Q lemma at the
    frame's point, whatever its hypotheses read."""
    f2n = ap.normals @ (ap.fbar0 @ ap.fbar0).T
    nf = ap.nabla_fbar.transpose(1, 0, 2)
    jx = ap.jac.T
    jy = fr.d_basis @ ap.jac.T
    t = pair_form(nf, jx, jy @ ap.fbar0.T) + lead_dot(
        ap.fbar0, pair_form(nf, jx, jy))
    return {
        "fbar_sq_normal_is_normal": sup_norm(
            lead_dot(ap.ubar, ap.tangent_part(f2n.T))),
        "tangential_nabla_fbar_sq": sup_norm(
            lead_dot(ap.ubar, ap.tangent_part(t))),
        "q_parallel_d": float(fr.q_parallel_d),
        "q_parallel_expansion": float(fr.q_parallel_expansion),
    }


def submanifold_at_point(fr):
    """Every residual and gate of the submanifold suite at the frame's
    point: {bundle: {key: value}}, the thsubm gate under "nearly_kahler"."""
    a = ambient_of(fr)
    r = (a.coordinate_derivative - lead_dot(a.jac, fr.gamma)
         - lead_dot(a.normals.T, a.hn))
    return {
        "frame": {**frame_check_at_point(a),
                  "gauss_split": sup_norm(lead_dot(a.ubar, r))},
        "nearly_kahler": {"ambient_weak_nearly_kahler":
                          nearly_kahler_at_point(a)},
        "case_i": thsubm_at_point(fr, a, "i"),
        "case_ii": thsubm_at_point(fr, a, "ii"),
        "parallel_q": parallel_q_at_point(fr, a),
    }


# -- the f-K-contact theorem bodies at one point ---------------------------------
#
# The engine runs fk_contact_nabla and thm32_chain over a chunk of points at
# once, on the chunk's stack. These are the bodies at one point, on a frame
# that is a row of that stack, as the engine ran them point by point: the
# reference of the stacked rows.


def fk_gates_at_point(fr):
    """The gates of both f-K-contact bundles at the frame's point, in the
    order they are checked."""
    return {"weak_metric_f_axioms": float(fr.worst_axiom),
            "phi_equals_deta": float(fr.phi_equals_deta),
            "killing_reeb": worst(fr.killing)}


def fk_contact_nabla_at_point(fr):
    res = pair_form(fr.nabla_xi + fr.f0, fr.u, fr.V)
    return {"nabla_xi_plus_f": sup_norm(res.transpose(1, 0, 2))}


def thm32_chain_at_point(fr, r):
    """The chain's residuals at the frame's point, given its Reeb curvature
    r[i, l, j] = (R(xi_i, e_j) xi_i)^l. The 4 random units of the contact
    distribution have their coefficients on its basis in the point's test
    vectors."""
    db = fr.d_basis
    xs = np.vstack([db, unit_rows(fr.tv.chain @ db, fr.g0)])
    g0, f0 = fr.g0, fr.f0

    def g_xs(w):
        return ((w @ g0) * xs).sum(1)

    fx = xs @ f0.T
    f2x = fx @ f0.T
    g_f2x = g_xs(f2x)
    final = 2.0 * g_f2x
    peak = np.zeros(4)
    for xi, r_xi in zip(fr.xi0, r):
        lhs = g_xs(xs @ r_xi.T)
        nf_xi = lead_dot(xi, fr.nabla_f)
        mid1 = g_xs(f2x - xs @ nf_xi.T)
        mid2 = g_xs(xs @ (fr.nabla_f @ xi)) - ((fx @ g0) * fx).sum(1)
        steps = (lhs - mid1, mid1 - mid2, mid2 - final, lhs - final)
        peak = np.maximum(peak, [np.abs(d).max() for d in steps])
    return {
        "chain_connection_step": float(peak[0]),
        "chain_nearly_c_step": float(peak[1]),
        "chain_algebra_step": float(peak[2]),
        "f2_nonpositive": float(np.maximum(g_f2x.max(), 0.0)),
        "chain_total": float(peak[3]),
    }


# -- the stacked theorem bodies at one point ------------------------------------
#
# The engine runs prop1, prop_normal, thm41, thm01_i and thm01_ii over a
# chunk of points at once, on the chunk's stack. These are the bodies at one
# point, on a frame that is a row of that stack, as the engine ran them
# point by point: the reference of the stacked rows.


def prop1_at_point(fr):
    res = {
        "reeb_parallel_pairs": sup_norm(
            lead_dot(fr.u, fr.nabla_xi_xi.transpose(2, 0, 1)))
    }
    ne = np.einsum("jab,ia->ijb", fr.nabla_eta, fr.xi0)
    dual = ((ne @ fr.ginv) * ne).sum(-1)
    res["reeb_coparallel"] = float(np.sqrt(np.maximum(dual.max(), 0.0)))
    res["reeb_killing"] = worst(fr.killing)
    return res


def thm41_at_point(fr):
    db = fr.d_basis
    res = {"nabla_xi_zero": sup_norm(
        pair_form(fr.nabla_xi, fr.u, fr.V).transpose(1, 0, 2))}
    de_d = pair_form(fr.deta, db, db)
    res["deta_on_d"] = sup_abs(de_d)
    # conn[i,A,B] = g(D_{e_A} xi_i, e_B) for e_A, e_B in D
    conn = pair_form(fr.nabla_xi, db @ fr.g0, db).transpose(0, 2, 1)
    res["coboundary_vs_connection"] = sup_abs(
        2.0 * de_d - (conn - conn.transpose(0, 2, 1))
    )
    res["d_totally_geodesic"] = sup_abs(conn)
    return res


def thm01_i_at_point(fr):
    V = fr.V
    eta_n1 = lead_dot(fr.eta0, fr.n1_coeff)
    phq = fr.q0.T @ fr.phi0                     # Phi(QX, Y) = g(QX, fY)
    res = {"deta_equals_phi_q": sup_abs(pair_form(fr.deta - phq, V, V))}
    # proof-internal: eta^j(N1(X,Y)) - 2 d eta^j(X,Y) = eta^j([f,f](X,Y))
    eta_ff = lead_dot(fr.eta0, fr.ff_coeff)
    res["eta_n1_expansion"] = sup_abs(
        pair_form(eta_n1 - 2.0 * fr.deta - eta_ff, V, V))
    # and its reduction through the nearly-S identity:
    # eta^j([f,f](X,Y)) = 2 d eta^j(X,Y) - 4 g(QX, fY)
    res["eta_ff_reduction"] = sup_abs(
        pair_form(eta_ff - (2.0 * fr.deta - 4.0 * phq), V, V))
    return res


def _on_basis(fr, t):
    """t(e_A, e_B, e_C) of a trilinear form on the frame's orthonormal basis."""
    e = fr.tv.basis
    return lead_dot(e, pair_form(t, e, e))


def thm01_ii_at_point(fr):
    V = fr.V
    phqt = fr.qtilde.T @ fr.phi0                # Phi((Q - id)X, Y)
    c = fr.n1_coeff + 2.0 * fr.xibar[:, None, None] * phqt
    res = {"n1_equals_qtilde_phi": sup_norm(pair_form(lead_dot(fr.u, c), V, V))}
    # proof-internal: 3 dPhi(X,Y,Z) + 3 g((D_X f)Y, Z)
    #                 + 3 g(f^2 X, Y) etabar(Z) - 3 g(f^2 X, Z) etabar(Y) = 0
    gf2 = (fr.f0 @ fr.f0).T @ fr.g0             # g(f^2 X, Y)
    gf2_ebar = gf2[:, :, None] * fr.etabar
    expr = 3.0 * (fr.dphi + fr.nabla_f.transpose(0, 2, 1) @ fr.g0
                  + gf2_ebar - gf2_ebar.transpose(0, 2, 1))
    res["dphi_nabla_f_expansion"] = sup_abs(_on_basis(fr, expr))
    return res


def prop_normal_at_point_body(fr):
    V = fr.V
    res = {}
    n3 = lie_tensor11_kernel(fr.f0, fr.f1, fr.xi0, fr.xi1)
    res["lie_xi_f"] = sup_norm(pair_form(n3, fr.u, V).transpose(1, 0, 2))
    # N4[i,j,A] = 2 d eta^j(xi_i, X)
    res["deta_xi_contraction"] = sup_abs(2.0 * pair_form(fr.deta, fr.xi0, V))
    # d eta^i(fX, Y) - d eta^i(fY, X) = (1/2) eta^i([(Q - id)X, fY]), where
    # [(Q - id)X, fY] = ((Q - id)X)^a d_a (fY) - (fY)^a d_a (Q X)
    b = (fr.f1 @ fr.qtilde).transpose(0, 2, 1) - fr.q1 @ fr.f0
    res["deta_f_swap"] = sup_abs(
        pair_form(0.5 * (fr.n2_coeff - lead_dot(fr.eta0, b)), V, V))
    res["reeb_derivatives_in_d"] = fr.reeb_totally_geodesic
    # eta^j([X, xi_i]) for X in D, extended as the section
    # X - sum_k eta^k(X) xi_k of D: for X constant in the chart,
    # eta^j([X, xi_i]) = eta^j(X^a d_a xi_i), and the extension adds
    # sum_k eta^j(xi_k) xi_i(eta^k(X))
    db = fr.d_basis
    brk = np.einsum("Aa,ika->ikA", db, fr.xi1)
    xi_eta_x = pair_form(fr.eta1, db, fr.xi0)  # [k, A, i] = xi_i(eta^k(X_A))
    ext = lead_dot(fr.eta0 @ fr.xi0.T, xi_eta_x).transpose(2, 0, 1)
    res["d_brackets_stay_in_d"] = sup_abs(
        np.einsum("jk,ikA->ijA", fr.eta0, brk) + ext
    )
    nxx = fr.nabla_xi_xi
    res["reeb_symmetric_geodesic"] = sup_norm(
        lead_dot(fr.u, (nxx + nxx.transpose(1, 0, 2)).transpose(2, 0, 1)))
    return res


STACKED_AT_POINT = {"prop1": prop1_at_point,
                    "prop_normal": prop_normal_at_point_body,
                    "thm41": thm41_at_point, "thm01_i": thm01_i_at_point,
                    "thm01_ii": thm01_ii_at_point}


# -- the consequences of normality at one point --------------------------------
#
# The engine forms prop_normal from the jet arrays of a chunk's stack. This
# is the same bundle from genuine fields and the field-level calculus above,
# on the frame's test vectors, extended as constant fields: its reference.


def prop_normal_at_point(fr, pack=None):
    """The keys of ``classifiers._prop_normal`` (without its gate) at the
    frame's point, on the fields of ``pack``: by default the frame's pack;
    on an induced pack, :func:`nested_induced_pack` of its submanifold,
    whose fields take jet coordinates.

    Every key is R-linear in each test vector, extended as a constant
    field, so it is formed on the coordinate fields e_a and then taken on
    the frame's test vectors (``fr.V``, and ``fr.d_basis`` for D).
    """
    pk, p = pack or fr.pack, fr.p
    xis, etas, s = pk.xi, pk.eta, pk.s
    g0, f0 = pk.g.value(p), pk.f.value(p)
    eta0 = np.array([w.value(p) for w in etas])
    E = [charts.constant_field(pk.chart, "vector", e) for e in np.eye(pk.dim)]
    fE = [tensor_apply_field(pk.f, e) for e in E]
    qE = [tensor_apply_field(pk.Q, e) for e in E]

    def sup_gnorm(vectors):
        return max(math.sqrt(max(float(v @ g0 @ v), 0.0)) for v in vectors)

    def sup_on(rows, vectors):
        """max |rows(v)| over the vectors, for rows[..., a] on the e_a."""
        return float(np.abs(rows @ np.transpose(vectors)).max())

    def section(a):
        """The field e_a - sum_k eta^k(e_a) xi_k, which lies in D."""
        def fn(u):
            out = [1.0 if b == a else 0.0 for b in range(pk.dim)]
            for w, xi in zip(etas, xis):
                c = w.fn(u)[a]
                out = [o - c * x for o, x in zip(out, xi.fn(u))]
            return out
        return SmoothField(pk.chart, "vector", fn)

    res = {}
    # (L_xi f)e_a = [xi, f e_a] - f [xi, e_a], as rows over a
    lie = np.array([[lie_bracket(xi, fe, p) - f0 @ lie_bracket(xi, e, p)
                     for e, fe in zip(E, fE)] for xi in xis])
    res["lie_xi_f"] = sup_gnorm((fr.V @ lie).reshape(-1, pk.dim))
    res["deta_xi_contraction"] = sup_on(np.array(
        [[[2.0 * d_oneform(w, xi, e, p) for e in E] for xi in xis]
         for w in etas]), fr.V)
    # d eta(fX, Y) - d eta(fY, X) - (1/2) eta([(Q - id)X, fY]) on X = e_a,
    # Y = e_b, with [(Q - id)X, fY] = [QX, fY] - [X, fY]
    deta_f = np.array([[[d_oneform(w, fe, e, p) for e in E] for fe in fE]
                       for w in etas])
    brk = np.array([[lie_bracket(qa, fb, p) - lie_bracket(ea, fb, p)
                     for fb in fE] for ea, qa in zip(E, qE)])
    swap = (deta_f - deta_f.transpose(0, 2, 1)
            - 0.5 * np.moveaxis(brk @ eta0.T, 2, 0))
    res["deta_f_swap"] = float(np.abs(fr.V @ swap @ fr.V.T).max())
    nxx = [[nabla_vector(pk.g, xi, xj, p) for xj in xis] for xi in xis]
    res["reeb_derivatives_in_d"] = float(np.abs(np.array(nxx) @ eta0.T).max())
    res["d_brackets_stay_in_d"] = sup_on(np.array(
        [[[e0 @ lie_bracket(section(a), xi, p) for a in range(pk.dim)]
          for xi in xis] for e0 in eta0]), fr.d_basis)
    res["reeb_symmetric_geodesic"] = sup_gnorm(
        nxx[i][j] + nxx[j][i] for i in range(s) for j in range(s))
    return res


# -- the theorem gates at one point ----------------------------------------------
#
# The engine reads every theorem gate as a row of the chunk's stack, under
# classifiers.gated_rows. These are the gates at one point, on a frame that
# is a row of that stack, as the engine checked them point by point before
# each body: the reference of the gate rows.


def gate(check, name, residual, tol):
    """Raise unless ``residual <= tol``: a NaN residual does not pass."""
    if not residual <= tol:
        raise HypothesisNotMet(check, name, residual)


def nearly_class_gate(fr, check, tol):
    """Require the pack to be weak nearly S or weak nearly C."""
    rs = fr.nearly_s_defining
    if rs <= tol:
        return "weak_nearly_S"
    rc = fr.nearly_c_defining
    if rc <= tol:
        return "weak_nearly_C"
    if rs <= rc:
        raise HypothesisNotMet(check, "weak_nearly_S", rs)
    raise HypothesisNotMet(check, "weak_nearly_C", rc)


def frame_gates(fr, check, tol):
    for name in ("reeb_brackets", "reeb_totally_geodesic", "reeb_flat",
                 "q_parallel_d"):
        gate(check, name, getattr(fr, name), tol)


def thm01_gates(fr, check, tol):
    gate(check, "weak_nearly_S", fr.nearly_s_defining, tol)
    frame_gates(fr, check, tol)


def eta_circ_n1_at_point(fr):
    """The gate eta o N1 = 0 of thm01_i at the frame's point."""
    return sup_abs(pair_form(lead_dot(fr.eta0, fr.n1_coeff), fr.V, fr.V))


def q_equals_id_at_point(fr):
    """The gate Q = id of the rigidity corollary at the frame's point."""
    return sup_norm(pair_form(fr.qtilde, fr.u, fr.V))


def theorem_gates_at_point(fr, which, tol=1e-9):
    """Check the gates of the theorem bundle ``which`` at the frame's point
    in their order, the axioms first; raise at the first that fails."""
    gate(which, "weak_metric_f_axioms", float(fr.worst_axiom), tol)
    if which == "prop1":
        nearly_class_gate(fr, which, tol)
        frame_gates(fr, which, tol)
    elif which == "prop_normal":
        gate(which, "normality", fr.n1_zero, tol)
    elif which in ("fk_contact_nabla", "thm32_chain"):
        for name, value in fk_gates_at_point(fr).items():
            gate(which, name, value, tol)
    elif which == "thm41":
        gate(which, "weak_nearly_C", fr.nearly_c_defining, tol)
    elif which == "thm01_i":
        thm01_gates(fr, which, tol)
        gate(which, "eta_circ_n1", eta_circ_n1_at_point(fr), tol)
    elif which == "thm01_ii":
        thm01_gates(fr, which, tol)
        gate(which, "phi_equals_deta", fr.phi_equals_deta, tol)
    else:
        gate(which, "weak_nearly_S", fr.nearly_s_defining, tol)
        gate(which, "normal", fr.n1_zero, tol)
        gate(which, "Q_equals_id", q_equals_id_at_point(fr), tol)


# -- pair-level residuals ------------------------------------------------------------
#
# The engine sums the terms of each bilinear identity as coefficients at the
# point, lowers a vector-valued one by the Cholesky factor of g0 and
# contracts it with the test pairs once. These evaluate every term on the
# test pairs first, sum the pair values and take g-norms with g0 itself.


def orthonormal_basis(g0, vectors=None, against=(), floor=None):
    """Gram-Schmidt of ``vectors`` (rows; the coordinate frame by default)
    with respect to ``g0``, one vector at a time at one point: the
    reference of ``sampling.gram_schmidt`` and of the Cholesky test basis.

    Each vector is made g0-orthogonal to the rows of ``against`` and to the
    rows kept before it, then normalized. With a ``floor``, a vector whose
    remainder has norm at most ``floor`` is dropped. Returns the kept rows.
    """
    basis = list(against)
    start = len(basis)
    for v in np.eye(len(g0)) if vectors is None else vectors:
        for u in basis:
            v = v - (u @ g0 @ v) * u
        q = v @ g0 @ v
        if floor is None or q > floor * floor:
            basis.append(v / math.sqrt(q))
    return np.array(basis[start:])


def q_eigen_floor(fr):
    """Smallest eigenvalue of Q's matrix in a g-orthonormal basis."""
    e = fr.tv.basis  # rows g-orthonormal
    q_mat = e @ fr.g0 @ (fr.q0 @ e.T)
    return float(np.linalg.eigvalsh(0.5 * (q_mat + q_mat.T)).min())


def rank_residual(fr):
    """Rank-2n check: s singular values below 1e-8, 2n above 1e-4."""
    e = fr.tv.basis
    f_mat = e @ fr.g0 @ (fr.f0 @ e.T)
    sv = np.sort(np.linalg.svd(f_mat, compute_uv=False))
    s = fr.pack.s
    if sv.size > s and sv[s] <= _RANK_POSITIVE_FLOOR:
        return 1.0
    small = float(sv[s - 1]) if s > 0 else 0.0
    return 0.0 if small <= _RANK_ZERO_CEIL else small


def axioms_at_point(fr):
    """Every axiom residual of the frame's point, computed from its arrays
    alone: the reference of the row of the chunk's stacked map
    (``weakf.fstructure.FrameStack.axioms``)."""
    V, u = fr.V, fr.u
    g0, f0, q0 = fr.g0, fr.f0, fr.q0
    eta0, xi0 = fr.eta0, fr.xi0
    s = fr.pack.s

    floor = q_eigen_floor(fr)
    if floor <= _Q_EIGEN_FLOOR:
        raise DegenerateOperatorError(fr.p, floor)

    res = {}
    gf = g0 @ f0
    res["f_skew"] = sup_abs(pair_form(gf + gf.T, V, V))
    gq = g0 @ q0
    res["q_selfadjoint"] = sup_abs(pair_form(gq - gq.T, V, V))
    res["q_positive"] = float(np.maximum(-floor, 0.0))   # a NaN stays
    res["eta_xi_pairing"] = sup_abs(
        np.einsum("ia,ja->ij", eta0, xi0) - np.eye(s)
    )
    res["q_fixes_xi"] = sup_norm(u @ (q0 @ xi0.T - xi0.T))
    # f^2 = -Q + sum eta^i (x) xi_i, applied to test vectors
    f2 = f0 @ f0
    corr = np.einsum("ik,ia->ka", xi0, eta0)
    res["f_squared"] = sup_norm(pair_form(f2 + q0 - corr, u, V))
    # g(fX, fY) = g(X, QY) - sum eta^i(X) eta^i(Y)
    res["compatibility"] = sup_abs(
        pair_form(f0.T @ g0 @ f0 - gq + eta0.T @ eta0, V, V))
    etaV = eta0 @ V.T
    res["f_kills_xi"] = sup_norm(pair_form(f0, u, xi0))
    res["eta_after_f"] = sup_abs(pair_form(f0, eta0, V))
    res["eta_after_q"] = sup_abs(pair_form(q0, eta0, V) - etaV)
    qf = q0 @ f0 - f0 @ q0
    res["qf_commute"] = sup_norm(pair_form(qf, u, V))
    res["eta_metric_dual"] = sup_abs(etaV - pair_form(g0.T, xi0, V))
    res["xi_orthonormal"] = sup_abs(pair_form(g0, xi0, xi0) - np.eye(s))
    res["f_rank"] = rank_residual(fr)
    # f-invariance of D = cap ker eta^i, checked on a basis of D
    db = fr.d_basis
    res["d_f_invariant"] = sup_abs(pair_form(f0, eta0, db))
    # splitting X = (X - sum eta^i(X) xi_i) + sum eta^i(X) xi_i with D-part in D
    res["tangent_split"] = sup_abs((eta0 - eta0 @ xi0.T @ eta0) @ V.T)
    return res


def parts_at_point(fr):
    """Every class part, the Killing residuals, the Reeb-frame conditions
    and the q_parallel pair of the frame's point, computed from its arrays
    alone: the reference of the chunk's stacked rows, keyed by the names of
    the ``weakf.fstructure.FrameStack`` attributes that hold them."""
    V, u = fr.V, fr.u
    f0 = fr.f0

    def lowered(c, Y=V):
        """Max g-norm of a vector identity with coefficients c[k, a, b]."""
        return sup_norm(pair_form(lead_dot(u, c), V, Y))

    res = {}
    # (D_X f)Y, g(fX,fY) xibar and etabar(Y) f^2 X as coefficients [k, a, b]
    nf = fr.nabla_f.transpose(1, 0, 2)
    gff = fr.xibar[:, None, None] * (f0.T @ fr.g0 @ f0)
    ef2 = (f0 @ f0)[:, :, None] * fr.etabar
    res["nearly_s_defining"] = lowered(
        nf + nf.transpose(0, 2, 1) - 2.0 * gff - ef2.transpose(0, 2, 1) - ef2)
    res["nearly_c_defining"] = lowered(nf + nf.transpose(0, 2, 1))
    res["s_structure_defining"] = lowered(nf - gff - ef2)
    res["phi_equals_deta"] = sup_abs(pair_form(fr.deta - fr.phi0, V, V))
    res["deta_zero"] = sup_abs(pair_form(fr.deta, V, V))
    # dPhi on the orthonormal basis, and dPhi(x_t, y_t, z_t) for each
    # random triple t
    e = fr.tv.basis
    x, y, z = fr.tv.triples.transpose(1, 0, 2)
    extra = y[:, None] @ lead_dot(x, fr.dphi) @ z[:, :, None]
    res["dphi_zero"] = worst((sup_abs(lead_dot(e, pair_form(fr.dphi, e, e))),
                              sup_abs(extra)))
    res["n1_zero"] = lowered(fr.n1_coeff)
    r = pair_form(fr.lie_g_xi, V, V)
    res["killing"] = [float(x) for x in np.abs(r).reshape(len(r), -1).max(1)]
    # xi_i^a d_a xi_j, for [xi_i, xi_j] = w[i,j] - w[j,i]
    w = lead_dot(fr.xi0, fr.xi1.transpose(2, 0, 1))
    res["reeb_brackets"] = sup_norm(
        lead_dot(u, (w - w.transpose(1, 0, 2)).transpose(2, 0, 1)))
    res["reeb_flat"] = sup_abs((fr.xi0 @ fr.g0.T) @ fr.nabla_xi @ V.T)
    res["reeb_totally_geodesic"] = sup_abs(fr.nabla_xi_xi @ fr.eta0.T)
    nq = fr.nabla_q.transpose(1, 0, 2)
    res["q_parallel_d"] = lowered(nq, fr.d_basis)
    # sum_i eta^i(e_b) ((Q - id) D_{e_a} xi_i)^k
    corr = (fr.qtilde @ fr.nabla_xi).transpose(1, 2, 0) @ fr.eta0
    res["q_parallel_expansion"] = lowered(nq + corr)
    return res


def sup_gnorm(res, g0):
    """Max g0-norm over the trailing test axes of ``res[k, ...]``: the
    g0-weighted sum that ``sampling.sup_norm`` of the lowered residual
    replaces."""
    r = res.reshape(res.shape[0], -1)
    q = ((g0 @ r) * r).sum(0)
    return float(np.sqrt(max(q.max(), 0.0)))


def nabla_f_pairs(fr, V):
    """T[k,A,B] = ((D_{V_A} f) V_B)^k."""
    return pair_form(fr.nabla_f.transpose(1, 0, 2), V, V)


def nearly_s_terms(fr, V):
    """(f^2 V, g(fX,fY) xibar, etabar(Y) f^2 X) over all test pairs."""
    fV = V @ fr.f0.T
    f2V = fV @ fr.f0.T
    gff = np.einsum("AB,k->kAB", pair_form(fr.g0, fV, fV), fr.xibar)
    ef2 = np.einsum("B,Ak->kAB", V @ fr.etabar, f2V)
    return f2V, gff, ef2


def nearly_s_residual(fr, V):
    t = nabla_f_pairs(fr, V)
    _, gff, ef2 = nearly_s_terms(fr, V)
    res = t + t.transpose(0, 2, 1) - 2.0 * gff - ef2.transpose(0, 2, 1) - ef2
    return sup_gnorm(res, fr.g0)


def nearly_c_residual(fr, V):
    t = nabla_f_pairs(fr, V)
    return sup_gnorm(t + t.transpose(0, 2, 1), fr.g0)


def s_structure_residual(fr, V):
    _, gff, ef2 = nearly_s_terms(fr, V)
    return sup_gnorm(nabla_f_pairs(fr, V) - gff - ef2, fr.g0)


def nijenhuis_ff(fr, V):
    """[f,f](X,Y) for all test pairs: tensor [k, A, B]."""
    f0, f1 = fr.f0, fr.f1
    # P[k,A,B] = (fV_B)^a d_a (f V_A)^k, with f1[k,b,a] = d_a f^k_b;
    # R is the same with V_B in place of fV_B
    P = pair_form(f1, V, V @ f0.T)
    R = pair_form(f1, V, V)
    return P.transpose(0, 2, 1) - P - np.tensordot(f0, R.transpose(0, 2, 1) - R, 1)


def n1(fr, V):
    """N1[k,A,B] = [f,f](X,Y) + 2 sum_i deta^i(X,Y) xi_i."""
    return nijenhuis_ff(fr, V) + 2.0 * np.tensordot(
        fr.xi0, pair_form(fr.deta, V, V), (0, 0))


def normality_residual(fr, V):
    return sup_gnorm(n1(fr, V), fr.g0)


def h_pairs(ap, V):
    """gbar(h(V_A, V_B), N_i) from the ambient derivative of the pushed
    constant fields on each pair."""
    vj = V @ ap.jac.T
    dxy = pair_form(ap.hess, V, V) + pair_form(ap.gammabar, vj, vj)
    return np.tensordot(ap.normals @ ap.gbar0, dxy, 1)


def thsubm_displays(ap, fr, case):
    """The h-display residuals of ``thsubm_check`` for ``case``."""
    V, xi0, eta0 = fr.V, fr.xi0, fr.eta0

    def g_shaped(mats):
        return pair_form(fr.g0, V @ mats.transpose(0, 2, 1), V)

    hmat, hxx = h_pairs(ap, V), h_pairs(ap, xi0)
    etaV = eta0 @ V.T
    disp = pair_form(hxx, etaV.T, etaV.T)
    a_disp = pair_form(hxx.transpose(0, 2, 1), xi0.T, eta0.T)
    if case == "i":
        disp = disp - pair_form(fr.g0, nearly_s_terms(fr, V)[0], V)
        a_disp = a_disp - fr.f0 @ fr.f0
    return {
        "h_display": sup_abs(hmat - disp),
        "shape_display_duality": sup_abs(g_shaped(a_disp) - disp),
        "weingarten_duality": sup_abs(g_shaped(ap.shape_operators) - hmat),
        "h_symmetric": sup_abs(hmat - hmat.transpose(0, 2, 1)),
    }


# -- reparametrized packs --------------------------------------------------------


def _shear(m, row, col, t):
    """The m x m identity with ``t`` at (row, col)."""
    out = [[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)]
    out[row][col] = t
    return out


def _transpose(a):
    return [list(col) for col in zip(*a)]


def d_homothetic_pack(pack, lam):
    """The D-homothetic deformation of the s = 1 pack ``pack`` by ``lam``:
    f = sqrt(lam) phi, Q = lam id + (1 - lam) eta (x) xi,
    eta' = sqrt(lam) eta, xi' = xi / sqrt(lam) and
    g' = g + (lam - 1) eta (x) eta, for the pack's phi, xi, eta and g.

    Every axiom holds on it: f^2 = -lam id + lam eta (x) xi = -Q + eta' (x)
    xi', and g'(fX, fY) = lam (g(X, Y) - eta(X) eta(Y)) = g'(X, QY) -
    eta'(X) eta'(Y). Q = id only at lam = 1.
    """
    (xi,), (eta,) = pack.xi, pack.eta
    m, root = pack.dim, math.sqrt(lam)

    def f_fn(u):
        return [[root * c for c in row] for row in pack.f.fn(u)]

    def q_fn(u):
        x, e = xi.fn(u), eta.fn(u)
        return [[(lam if k == j else 0.0) + (1.0 - lam) * x[k] * e[j]
                 for j in range(m)] for k in range(m)]

    def g_fn(u):
        e = eta.fn(u)
        return [[c + (lam - 1.0) * e[a] * e[b] for b, c in enumerate(row)]
                for a, row in enumerate(pack.g.fn(u))]

    chart = pack.chart
    return replace(
        pack, f=SmoothField(chart, "tensor11", f_fn, name="deformed_f"),
        Q=SmoothField(chart, "tensor11", q_fn, name="deformed_Q"),
        xi=(SmoothField(chart, "vector", lambda u: [
            c / root for c in xi.fn(u)], name="deformed_xi"),),
        eta=(SmoothField(chart, "oneform", lambda u: [
            root * c for c in eta.fn(u)], name="deformed_eta"),),
        g=SmoothField(chart, "metric", g_fn, name="deformed_metric"))


def sheared_pack(pack, eps=0.3):
    """``pack`` pulled back by the shear phi = S_b o S_a, where S_a adds
    eps sin(u_l) to u_d and S_b adds eps sin(u_d) to u_l; d = 2n - 1 is the
    last contact coordinate and l the last coordinate.

    Both Jacobians are unipotent, so dphi = J_b J_a has the closed-form
    inverse (I - a e_d e_l^T)(I - b e_l e_d^T) with a = eps cos(u_l) and
    b = eps cos(phi_d). The pulled-back fields are g' = dphi^T g dphi,
    f' = dphi^-1 f dphi, Q' = dphi^-1 Q dphi, xi' = dphi^-1 xi and
    eta' = eta dphi, with the base fields read at phi(u). Every tensorial
    identity holds on it exactly when it holds on ``pack``.
    """
    m, d, last = pack.dim, 2 * pack.n - 1, pack.dim - 1

    def pulled(u):
        """(phi(u), dphi, dphi^-1)."""
        pd = u[d] + eps * sin(u[last])
        phi = [*u[:d], pd, *u[d + 1:last], u[last] + eps * sin(pd)]
        a, b = eps * cos(u[last]), eps * cos(pd)
        jac = mat_mul(_shear(m, last, d, b), _shear(m, d, last, a))
        inv = mat_mul(_shear(m, d, last, -a), _shear(m, last, d, -b))
        return phi, jac, inv

    def metric(u):
        phi, jac, _ = pulled(u)
        return mat_mul(_transpose(jac), mat_mul(pack.g.fn(phi), jac))

    def conjugated(field):
        def fn(u):
            phi, jac, inv = pulled(u)
            return mat_mul(inv, mat_mul(field.fn(phi), jac))
        return SmoothField(pack.chart, "tensor11", fn, name=f"sheared_{field.name}")

    def vector(field):
        def fn(u):
            phi, _, inv = pulled(u)
            return mat_vec(inv, field.fn(phi))
        return SmoothField(pack.chart, "vector", fn, name=f"sheared_{field.name}")

    def oneform(field):
        def fn(u):
            phi, jac, _ = pulled(u)
            return mat_vec(_transpose(jac), field.fn(phi))
        return SmoothField(pack.chart, "oneform", fn, name=f"sheared_{field.name}")

    return StructurePack(
        chart=pack.chart,
        f=conjugated(pack.f),
        Q=conjugated(pack.Q),
        xi=tuple(vector(x) for x in pack.xi),
        eta=tuple(oneform(w) for w in pack.eta),
        g=SmoothField(pack.chart, "metric", metric, name="sheared_metric"),
        n=pack.n,
        s=pack.s,
    )
