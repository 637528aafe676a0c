"""Coordinate charts and smooth fields given by chart-component functions.

A :class:`Chart` is an open coordinate box with a safe region chosen to stay
clear of coordinate singularities. A :class:`SmoothField` wraps a component
function ``fn(coords) -> components`` where ``coords`` is a list of generic
scalars: floats, or jets over a stack of points. The same function therefore
yields values at one point, and first and second partial derivatives at a
whole stack of points in one call (:class:`PointStacks` keeps those stacks
for a run). Evaluation is deterministic: the same point always produces
bitwise-identical output, alone or in a stack.

Component layout per kind:

=========  =======================  =============================
kind       fn returns               meaning
=========  =======================  =============================
scalar     scalar                   h
vector     list, length m           X^k
oneform    list, length m           w_k
tensor11   m x m nested list        T[k][j] = (T e_j)^k
metric     m x m nested list        g[a][b] = g(e_a, e_b)
twoform    m x m nested list        w[a][b] = w(e_a, e_b)
=========  =======================  =============================
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .jets import arrays, lift

KINDS = ("scalar", "vector", "oneform", "tensor11", "metric", "twoform")


@dataclass(frozen=True)
class Chart:
    """An open coordinate box of dimension ``dim``.

    ``box`` holds per-coordinate (low, high) bounds of the safe region in
    which points may be sampled and evaluated.
    """

    name: str
    dim: int
    box: tuple

    def __post_init__(self):
        if len(self.box) != self.dim:
            raise ValueError("box must have one (low, high) pair per coordinate")
        for lo, hi in self.box:
            if not lo < hi:
                raise ValueError("empty box interval")

    def contains(self, coords):
        if len(coords) != self.dim:
            return False
        return all(lo < c < hi for c, (lo, hi) in zip(coords, self.box))

    def point(self, coords):
        """Validate and return a chart point as a float vector."""
        p = np.asarray(coords, dtype=float)
        if p.shape != (self.dim,):
            raise ValueError(
                f"point has {p.size} coordinates, chart {self.name!r} has dim {self.dim}"
            )
        if not self.contains(p):
            raise ValueError(f"point {tuple(p)} outside safe box of chart {self.name!r}")
        return p

    def sample(self, count, seed):
        """Deterministic seeded points, uniform over the safe box."""
        rng = np.random.default_rng([int(seed), _stable_chart_key(self.name)])
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        # shrink slightly so samples respect the open box
        pad = 1e-6 * (hi - lo)
        pts = rng.uniform(lo + pad, hi - pad, size=(int(count), self.dim))
        return [pts[i] for i in range(int(count))]


def _stable_chart_key(name):
    # stable across processes (hash() is salted)
    acc = 0
    for ch in name:
        acc = (acc * 131 + ord(ch)) % (2**31 - 1)
    return acc


def jet_stack(fn, points, order, what):
    """(value, d1[, d2]) stacks of the component function ``fn`` over the
    ``(P, m)`` stack ``points``: one call of ``fn`` on lifted coordinates.

    Each stack is shaped ``(P,) + output shape + (m,) * k``, the derivative
    axes last. Every entry must be finite; a non-finite row means that point
    left the domain where the components are smooth, and is named by
    ``what`` and its coordinates.
    """
    count, m = points.shape
    with np.errstate(all="ignore"):     # non-finite rows are refused below
        out = np.array(fn(lift(points, order)), dtype=object)
    stacks = [a.reshape((count,) + out.shape + a.shape[2:])
              for a in arrays(list(out.flat), count, m, order)]
    if not all(np.isfinite(a).all() for a in stacks):
        finite = np.logical_and.reduce(
            [np.isfinite(a).reshape(count, -1).all(axis=1) for a in stacks])
        p = points[np.argmin(finite)]
        raise ValueError(
            f"non-finite jet of {what} at {tuple(float(c) for c in p)}")
    return stacks


@dataclass(frozen=True)
class SmoothField:
    """A chart field with exact derivatives up to second order."""

    chart: Chart
    kind: str
    fn: object
    name: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @property
    def label(self):
        """How error messages name the field."""
        return f"field {self.name or self.kind!r}"

    def value(self, p):
        """Component values at ``p`` as a float array (fast path, no jets)."""
        val = np.array(self.fn([float(c) for c in p]), dtype=float)
        return float(val) if self.kind == "scalar" else val

    def jet(self, p, order=2):
        """(value, d1[, d2]) arrays at ``p``; trailing axes index the
        derivative. The one-point case of :func:`jet_stack`."""
        points = np.asarray(p, dtype=float)[None]
        return tuple(a[0] for a in jet_stack(self.fn, points, order, self.label))


# Sample points per stacked evaluation, picked from a measured speed and
# peak-RSS curve over chunk sizes (see CHANGES.md): smaller chunks are
# slower, and beyond it the time stays flat while the peak RSS grows.
CHUNK = 50


class PointStacks:
    """Jet stacks of component functions over one case's sample points.

    ``jet(i, fn, order, what)`` reads row i of the stack of ``fn`` at
    ``order``. A stack is built on first use, by one call of ``fn`` over
    the chunk of ``CHUNK`` consecutive points that holds i, and all stacks
    are dropped when the walk reaches the next chunk, so memory does not
    grow with the number of samples. With ``at = (fn', order', what')`` the
    points are the values of the stack of ``fn'`` instead of the sample
    points: an ambient field along the image of an embedding.

    A stack whose evaluation raises, or has a non-finite row, is not used:
    ``fn`` is then evaluated at each point asked for alone, so the exception
    surfaces at the point it belongs to, as it would point by point.
    """

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        self._start = None
        self._stacks = {}

    def row(self, i):
        """``jet`` at point ``i``: called as ``row(fn, order, what, at=None)``."""
        return partial(self.jet, i)

    def jet(self, i, fn, order, what, at=None):
        start = i - i % CHUNK
        if start != self._start:
            self._start, self._stacks = start, {}
        stack = self._stack(start, fn, order, what, at)
        if stack is not None:
            return tuple(a[i - start] for a in stack)
        p = self.points[i] if at is None else self.jet(i, *at)[0]
        return tuple(a[0] for a in jet_stack(fn, p[None], order, what))

    def _stack(self, start, fn, order, what, at):
        """The chunk's stack of ``fn`` at ``order``, or None if it failed."""
        key = (fn, order, at)
        if key not in self._stacks:
            if at is None:
                points = self.points[start:start + CHUNK]
            else:
                source = self._stack(start, *at, None)
                points = None if source is None else source[0]
            try:
                stack = None if points is None else jet_stack(
                    fn, points, order, what)
            except Exception:       # raised again point by point by jet()
                stack = None
            self._stacks[key] = stack
        return self._stacks[key]


# -- constructors -------------------------------------------------------------


def constant_field(chart, kind, data, name=""):
    """Field with coordinate-independent components."""
    if kind == "scalar":
        c = float(data)
        return SmoothField(chart, kind, lambda x, c=c: c, name=name)
    arr = np.asarray(data, dtype=float)
    if kind in ("vector", "oneform"):
        vals = tuple(float(v) for v in arr)
        return SmoothField(chart, kind, lambda x, v=vals: list(v), name=name)
    rows = tuple(tuple(float(v) for v in row) for row in arr)
    return SmoothField(
        chart, kind, lambda x, r=rows: [list(row) for row in r], name=name
    )


def euclidean_metric(chart, name="euclidean"):
    return constant_field(chart, "metric", np.eye(chart.dim), name=name)
