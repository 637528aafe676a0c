"""Coordinate charts and smooth fields given by chart-component functions.

A :class:`Chart` is an open coordinate box with a safe region chosen to stay
clear of coordinate singularities. A :class:`SmoothField` wraps a component
function ``fn(coords) -> components`` where ``coords`` is a list of generic
scalars: floats, or jets over a stack of points. The same function therefore
yields values at one point, and first and second partial derivatives at a
whole stack of points in one call: the runner walks a run's points in
chunks of ``CHUNK``, each a :class:`Rows`, and evaluates a field's stack
over a chunk with :func:`jet_stack`. Evaluation is deterministic: the same
point always produces bitwise-identical jets, alone or in a stack. The float
path (:meth:`SmoothField.value`) may differ from them in the last bit (see
:mod:`weakf.jets`).

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

    def sample(self, count, seed):
        """Deterministic seeded points (rows), uniform over the safe box."""
        rng = np.random.default_rng([int(seed), _stable_chart_key(self.name)])
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        # shrink slightly so samples respect the open box
        pad = 1e-6 * (hi - lo)
        return rng.uniform(lo + pad, hi - pad, size=(int(count), self.dim))


def _stable_chart_key(name):
    # stable across processes (hash() is salted)
    acc = 0
    for ch in name:
        acc = (acc * 131 + ord(ch)) % (2**31 - 1)
    return acc


def jet_stack(fn, points, order, what):
    """The tuple (value, d1[, d2]) of stacks of the component function
    ``fn`` over the ``(P, m)`` stack ``points``: one call of ``fn`` on lifted
    coordinates. A frame reads its row of each (see :func:`take`).

    Each stack is shaped ``(P,) + output shape + (m,) * k``, the derivative
    axes last. Every entry must be finite; a non-finite row means that point
    left the domain where the components are smooth, and is named by
    ``what`` and its coordinates.
    """
    count, m = points.shape
    with np.errstate(all="ignore"):     # non-finite rows are refused below
        out = np.array(fn(lift(points, order)), dtype=object)
    stacks = tuple(a.reshape((count,) + out.shape + a.shape[2:])
                   for a in arrays(list(out.flat), count, m, order))
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
        """Component values at ``p`` as a float array (fast path, no jets).

        They may differ from the jets' values in the last bit (on
        sasakian_s3, in tan and -1/tan of f), so they serve independent
        checks at a tolerance."""
        val = np.array(self.fn([float(c) for c in p]), dtype=float)
        return float(val) if self.kind == "scalar" else val

    def jet(self, p, order=2):
        """(value, d1[, d2]) arrays at ``p``; trailing axes index the
        derivative. The one-point case of :func:`jet_stack`."""
        points = np.asarray(p, dtype=float)[None]
        return tuple(a[0] for a in jet_stack(self.fn, points, order, self.label))


# Sample points per chunk, for the jet stacks and the set-up stacks alike,
# picked from a measured speed and peak-RSS curve over chunk sizes (see
# CHANGES.md): a (P, 10, 10, 10) float64 stack stays below glibc's 128 KiB
# mmap threshold for P <= 16, and larger chunks raised the peak RSS more
# than they saved time.
CHUNK = 16


def take(value, k):
    """Row ``k`` of a stacked value: an array, a tuple or dict of them, or
    an object that takes its own ``row(k)``. A library frame, which no run
    builds, reads every quantity of its stack through it
    (``PackFrame.__getattr__``)."""
    if isinstance(value, np.ndarray):
        return value[k]
    if isinstance(value, dict):
        return {key: take(v, k) for key, v in value.items()}
    if isinstance(value, tuple):
        return tuple(take(v, k) for v in value)
    return value.row(k)


class Rows:
    """Consecutive sample points ``start``, ``start + 1``, ...: a chunk of a
    case's points, or one point alone."""

    def __init__(self, points, start=0):
        self.points = points
        self.start = start

    def __len__(self):
        return len(self.points)


# -- constructors -------------------------------------------------------------


def constant_field(chart, kind, data, name=""):
    """Field with coordinate-independent components: every call returns the
    same float components, which no caller mutates."""
    vals = np.asarray(data, dtype=float).tolist()
    return SmoothField(chart, kind, lambda x: vals, name=name)


def euclidean_metric(chart, name="euclidean"):
    return constant_field(chart, "metric", np.eye(chart.dim), name=name)
