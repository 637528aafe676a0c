"""Forward-mode jets over stacks of points: exact first and second partials.

Chart component functions are written against the math helpers exported here
(``sin``, ``cos``, ``exp``, ...) so that the same code runs on plain floats
and on :class:`Jet` scalars. A ``Jet`` holds the value, the gradient and
(optionally) the Hessian of a quantity with respect to the coordinates of
one :func:`lift`, at every point of a stack at once: one call of a component
function on lifted coordinates differentiates it at all P points. This is
forward mode with vectorised tangents.

Arithmetic and the chain rule are broadcasting numpy operations that keep
the association order of the scalar formulas, so every row is bitwise the
jet of its point evaluated alone, and a Hessian is exactly symmetric: its
lower triangle is a mirror of the upper one. All arithmetic is
non-mutating; jets can be shared freely. A jet's value may differ in the
last bit from the same formula on floats: a jet divides as a * (1/b)
(``Jet.__truediv__``) and squares by multiplying, where floats use ``/``
and ``**``.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

__all__ = [
    "Jet",
    "lift",
    "arrays",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
]

# Scalars a jet combines with as constants; anything else (such as a jet of
# another implementation) gets NotImplemented, so that it can take over.
_CONSTANTS = (int, float, np.number, np.ndarray)


def _col(v, k=1):
    """``v`` with ``k`` trailing axes added when it is an array, so that it
    broadcasts against a gradient (k = 1) or a Hessian (k = 2)."""
    return v[(...,) + (None,) * k] if isinstance(v, np.ndarray) else v


@cache
def _upper(m):
    mask = np.triu(np.ones((m, m), dtype=bool))
    mask.flags.writeable = False        # shared by every caller
    return mask


def _mirrored(h):
    """The Hessian stack ``h`` with its lower triangle mirrored from the upper."""
    return np.where(_upper(h.shape[-1]), h, h.swapaxes(-1, -2))


class Jet:
    """Truncated Taylor scalar over a stack of points.

    ``val`` is a float or a ``(P,)`` array, ``grad`` a ``(..., m)`` array and
    ``hess`` a ``(..., m, m)`` array, or ``None`` for a first-order jet.
    """

    __slots__ = ("val", "grad", "hess")
    __array_ufunc__ = None  # force numpy scalars to defer to our operators

    def __init__(self, val, grad, hess=None):
        self.val = val
        self.grad = grad
        self.hess = hess

    def __repr__(self):
        return f"Jet({self.val!r}, grad={self.grad!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            h = None
            if self.hess is not None and other.hess is not None:
                h = self.hess + other.hess
            return Jet(self.val + other.val, self.grad + other.grad, h)
        if not isinstance(other, _CONSTANTS):
            return NotImplemented
        return Jet(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad,
                   None if self.hess is None else -self.hess)

    def __sub__(self, other):
        if not isinstance(other, (Jet,) + _CONSTANTS):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, _CONSTANTS):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            sv, ov = self.val, other.val
            g, og = self.grad, other.grad
            grad = g * _col(ov) + _col(sv) * og
            h = None
            if self.hess is not None and other.hess is not None:
                outer = g[..., :, None] * og[..., None, :]   # g_i og_j
                h = _mirrored(self.hess * _col(ov, 2) + outer
                              + outer.swapaxes(-1, -2)
                              + _col(sv, 2) * other.hess)
            return Jet(sv * ov, grad, h)
        if not isinstance(other, _CONSTANTS):
            return NotImplemented
        return Jet(self.val * other, self.grad * _col(other),
                   None if self.hess is None else self.hess * _col(other, 2))

    __rmul__ = __mul__

    def _recip(self):
        # 1/u: d = -1/u^2, dd = 2/u^3
        inv = 1.0 / self.val
        d = -inv * inv
        h = None
        if self.hess is not None:
            dd = 2.0 * inv * inv * inv
            h = self._curvature(dd, d)
        return Jet(inv, _col(d) * self.grad, h)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._recip()
        if not isinstance(other, _CONSTANTS):
            return NotImplemented
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        if not isinstance(other, _CONSTANTS):
            return NotImplemented
        return self._recip() * other

    def __pow__(self, p):
        if isinstance(p, Jet):
            raise TypeError("jet exponents are not supported")
        if p == 0:
            return Jet(np.ones_like(self.val), np.zeros_like(self.grad),
                       None if self.hess is None else np.zeros_like(self.hess))
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

    def _curvature(self, d2, d1):
        """Hessian of a composite: d2 g_i g_j + d1 h_ij, in that order."""
        g = self.grad
        return _mirrored((_col(d2, 2) * g[..., :, None]) * g[..., None, :]
                         + _col(d1, 2) * self.hess)

    def _chain(self, f, df, ddf):
        """Compose with a scalar function given its first two derivatives."""
        fv, d1 = f(self.val), df(self.val)
        h = None if self.hess is None else self._curvature(ddf(self.val), d1)
        return Jet(fv, _col(d1) * self.grad, h)


def lift(points, order=2):
    """Coordinate jets over a ``(P, m)`` stack of points, one per coordinate.

    Coordinate k has the values ``points[:, k]``, the unit gradient e_k and,
    from ``order`` 2, a zero Hessian; the constant partials are broadcast
    views, so lifting costs no per-point memory beyond the values.
    """
    cols = np.array(points, dtype=float).T.copy()   # one contiguous row each
    m, count = cols.shape
    eye = np.eye(m)
    hess = None if order < 2 else np.broadcast_to(0.0, (count, m, m))
    return [Jet(c, np.broadcast_to(eye[k], (count, m)), hess)
            for k, c in enumerate(cols)]


def arrays(entries, count, m, order):
    """Float stacks (value, d1, ..., up to ``order``) of a flat list of
    scalars over ``count`` points, shaped ``(count, n) + (m,) * k``.

    Constants get zero partials and a first-order jet a zero Hessian. When
    every entry is a constant, the stacks are read-only broadcast views of
    one row.
    """
    n = len(entries)
    shapes = [(count, n) + (m,) * k for k in range(order + 1)]
    if not any(isinstance(e, Jet) for e in entries):
        rows = [np.array(entries, dtype=float)]
        rows += [np.zeros(s[1:]) for s in shapes[1:]]
        return [np.broadcast_to(r, s) for r, s in zip(rows, shapes)]
    out = [np.empty(shapes[0])] + [np.zeros(s) for s in shapes[1:]]
    for i, e in enumerate(entries):
        if not isinstance(e, Jet):
            out[0][:, i] = e
            continue
        out[0][:, i] = e.val
        if order > 0:
            out[1][:, i] = e.grad
        if order > 1 and e.hess is not None:
            out[2][:, i] = e.hess
    return out


# -- generic math functions --------------------------------------------------


def _elementary(name, on_float, on_array, d1, d2, allowed=None):
    """The generic function ``name``: a float goes to ``on_float`` (from
    ``math``), an array to ``on_array`` (from numpy), and a jet (anything
    with a ``_chain``) through the chain rule with the first and second
    derivatives ``d1`` and ``d2``. An array entry outside ``allowed`` is
    refused with the message ``math`` gives for it."""
    def f(x):
        if isinstance(x, np.ndarray):
            if allowed is not None and not np.all(allowed(x)):
                raise ValueError("math domain error")
            return on_array(x)
        if hasattr(x, "_chain"):
            return x._chain(f, d1, d2)
        return on_float(x)
    f.__name__ = f.__qualname__ = name
    return f


sin = _elementary("sin", math.sin, np.sin, lambda t: cos(t), lambda t: -sin(t))
cos = _elementary("cos", math.cos, np.cos, lambda t: -sin(t), lambda t: -cos(t))
exp = _elementary("exp", math.exp, np.exp, lambda t: exp(t), lambda t: exp(t))
log = _elementary("log", math.log, np.log,
                  lambda t: 1.0 / t, lambda t: -1.0 / (t * t),
                  allowed=lambda t: ~(t <= 0.0))
sqrt = _elementary("sqrt", math.sqrt, np.sqrt,
                   lambda t: 0.5 / sqrt(t), lambda t: -0.25 / (t * sqrt(t)),
                   allowed=lambda t: ~(t < 0.0))


def tan(x):
    return sin(x) / cos(x)
