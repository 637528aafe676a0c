"""Forward-mode scalars carrying exact first and second partial derivatives.

Chart component functions are written against the math helpers exported here
(``sin``, ``cos``, ``exp``, ...) so that the same code runs on plain floats
and on :class:`Jet` scalars. A ``Jet`` stores the value, the gradient and
(optionally) the Hessian of a quantity with respect to the coordinates of
one *lift*. Lifts nest: seeding a lift whose entries are themselves jets
yields derivatives of derivative data. The package itself never nests (the
induced structure of an embedding is differentiated in closed form); the
test suite's independent pullback oracle does.

Every lift carries a level tag so that nested lifts never mix their
perturbations: a jet of a lower level behaves as a constant inside a higher
level. All arithmetic is non-mutating; jets can be shared freely.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Jet",
    "lift",
    "value_of",
    "arrays",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
]


class Jet:
    """Truncated Taylor scalar: value, gradient, optional Hessian.

    ``grad`` is a list of length m, ``hess`` either ``None`` (first-order
    jet) or an m-by-m list of lists. Entries are generic scalars: floats, or
    jets of a strictly lower level.
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
            lambda t: _pow(t, p),
            lambda t: p * _pow(t, p - 1),
            lambda t: p * (p - 1) * _pow(t, p - 2),
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
    """Seed coordinate jets over ``coords`` (floats or lower-level jets)."""
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
    """Strip all jet layers from a scalar."""
    while isinstance(x, Jet):
        x = x.val
    return float(x)


def _stripped(xs):
    """The scalars ``xs`` with every jet layer stripped."""
    while any(isinstance(x, Jet) for x in xs):
        xs = [x.val if isinstance(x, Jet) else x for x in xs]
    return xs


def arrays(entries, m, order, level=None):
    """Float (value, d1, ..., up to ``order``) arrays of a flat list of
    scalars with respect to one lift, stacked on a leading entry axis.

    Constants, and with ``level`` given jets of any other level, get zero
    partials, a first-order jet gets a zero Hessian, and values lose every
    jet layer, as with :func:`value_of`. A jet's partials are copied in as
    one row; only a jet above level 1 can hold lower-level jets there, and
    those are stripped too.
    """
    n = len(entries)
    out = [np.array(_stripped(entries), dtype=float)]
    out += [np.zeros((n,) + (m,) * k) for k in range(1, order + 1)]
    if order < 1:
        return out
    for i, e in enumerate(entries):
        if not isinstance(e, Jet) or level is not None and e.level != level:
            continue
        nested = e.level > 1
        out[1][i] = _stripped(e.grad) if nested else e.grad
        if order > 1 and e.hess is not None:
            out[2][i] = [_stripped(r) for r in e.hess] if nested else e.hess
    return out


# -- generic math functions --------------------------------------------------


def _pow(t, p):
    return t ** p


def sin(x):
    if isinstance(x, Jet):
        return x._chain(sin, cos, lambda t: -sin(t))
    return math.sin(x)


def cos(x):
    if isinstance(x, Jet):
        return x._chain(cos, lambda t: -sin(t), lambda t: -cos(t))
    return math.cos(x)


def tan(x):
    return sin(x) / cos(x)


def exp(x):
    if isinstance(x, Jet):
        return x._chain(exp, exp, exp)
    return math.exp(x)


def log(x):
    if isinstance(x, Jet):
        return x._chain(log, lambda t: 1.0 / t, lambda t: -1.0 / (t * t))
    return math.log(x)


def sqrt(x):
    if isinstance(x, Jet):
        return x._chain(
            sqrt,
            lambda t: 0.5 / sqrt(t),
            lambda t: -0.25 / (t * sqrt(t)),
        )
    return math.sqrt(x)
