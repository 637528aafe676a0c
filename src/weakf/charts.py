"""Coordinate charts and smooth fields given by chart-component functions.

A :class:`Chart` is an open coordinate box with a safe region chosen to stay
clear of coordinate singularities. A :class:`SmoothField` wraps a component
function ``fn(coords) -> components`` where ``coords`` is a list of generic
scalars (floats or jets); the same function therefore yields values, first
and second partial derivatives. Evaluation is deterministic: the same point
always produces bitwise-identical output.

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


def _structure(values, kind, m, order, level=None):
    """Convert fn output (nested generic scalars) into value[/d1/d2] arrays."""
    if kind == "scalar":
        entries = [values]
        shape = ()
    elif kind in ("vector", "oneform"):
        entries = list(values)
        shape = (m,)
    else:
        entries = [e for row in values for e in row]
        shape = (m, m)
    return tuple(a.reshape(shape + a.shape[1:])
                 for a in arrays(entries, m, order, level))


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

    def value(self, p):
        """Component values at ``p`` as a float array (fast path, no jets)."""
        (val,) = _structure(self.fn([float(c) for c in p]), self.kind,
                            self.chart.dim, 0)
        return float(val) if self.kind == "scalar" else val

    def jet(self, p, order=2):
        """(value, d1[, d2]) arrays; trailing axes index the derivative.

        All entries are required to be finite; a non-finite jet means the
        point left the domain where the components are smooth.
        """
        coords = lift([float(c) for c in p], order=order)
        arrs = _structure(self.fn(coords), self.kind, self.chart.dim, order,
                          coords[0].level)
        for arr in arrs:
            if not np.all(np.isfinite(arr)):
                raise ValueError(
                    f"non-finite jet of field {self.name or self.kind!r} "
                    f"at {tuple(float(c) for c in p)}"
                )
        return arrs


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
