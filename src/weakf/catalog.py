"""Deterministic builders for the concrete structures used in verification.

Every builder is a pure function of its parameters: the same (name, params)
always produces identical component functions, so residual reports are
bitwise reproducible under a fixed seed.

Built-in examples
-----------------

``flat_pack(n, s, scales)``, ``product_pack(n, s, scales)``
    One block-weight pack: R^(2n+s) = R^2n x R^s with f the constant skew
    block tensor of the weights ``scales`` on R^2n, Q = -f^2 there and the
    identity on the unit translations xi_i of R^s. Constant and flat, hence
    a weak C-structure; flat_pack's weights default to 1, 2, .., n and
    product_pack's (the flat weak Kahler factor of thm41) to 1.

``rotated_pack(n, s, t, rotation)``
    Two constant classical structures f_1 (standard blocks) and
    f_2 = R f_1 R^T sharing the Reeb frame and metric, blended into
    f = cos(t) f_1 + sin(t) f_2 with Q = id - sin(t)cos(t) psi,
    psi = f_1 f_2 + f_2 f_1. The default conjugation is the coordinate
    reflection diag(1,-1,1,..,1) on the rotation block, for which psi has
    eigenvalues +-2 and Q degenerates exactly at |sin 2t| = 1; a Givens
    conjugation ``rotation="givens:i:j:theta"`` or an orthogonal matrix can
    be selected instead. The Givens psi is -2 cos(theta) id on the 2x2
    blocks of i and j when they differ and -2 id on every other block (on
    all of them when i and j share one), so Q = (1 + sin 2t cos theta) id
    or (1 + sin 2t) id there, and t is refused where either is at most
    1e-8 (see below). A conjugation with psi = 0, f_2 anticommuting with
    f_1, blends to Q = id: the classical case, for every t.

``sasakian_s3()``
    The round unit 3-sphere in Hopf-style coordinates (al, be, ga) with
    metric diag(1, cos^2 al, sin^2 al), Reeb field d_be + d_ga and the
    compatible f with Q = id. Satisfies the full S-structure equation and
    has Killing Reeb flow; the one curved, non-product catalog member.

``hypersphere(n, ambient_skew, normal)``
    Unit S^(2n+1) in R^(2n+2) with the analytic position normal (inward by
    default) and a constant ambient skew tensor: the standard one (blocks
    of weight 1, induced Q = id) or a "weak" one (blocks of weight k,
    induced Q != id). Returns an embedded submanifold.

``linear_subspace(n, s, scales)``
    R^(2n+s) embedded as a linear subspace of flat R^(2n+2s) with constant
    normals and a constant ambient skew exchanging the last s tangent and
    normal directions; totally geodesic, its induced pack is the product
    pack.

Every parameter passes one checked converter (``_integer``, ``_number``,
``_choice``, ``_block_weights`` or ``_rotation_matrix``, which reads a
matrix entry by entry with ``_numbers``): a bool, a string where a number
is expected, anything else that is no real number (None, a sequence, a
complex) or a non-finite value is refused with an InvalidExample that
names the parameter, never coerced.

A parameter is valid only where the axioms can hold, and the catalog takes
its floor from them: the ``f_rank`` axiom needs f's singular values on D
above 1e-4 (``fstructure._RANK_POSITIVE_FLOOR``). A block weight is such a
singular value, so it needs 1e-4 < |weight| <= 2.3757e51 (the ceiling keeps
its sixth power finite). On ``rotated_pack`` they are the square roots of
Q's eigenvalues, so a blend angle t with smallest eigenvalue
lambda_min(Q) <= 1e-8 is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import Chart, SmoothField, constant_field, euclidean_metric
from .errors import InvalidExample
from .fstructure import _RANK_POSITIVE_FLOOR, StructurePack
from .jets import cos, sin, tan
from .submanifold import EmbeddedSubmanifold

_CONSTANT_PACK_CLASSES = (
    "weak_metric_f",
    "weak_almost_C",
    "weak_almost_K",
    "normal",
    "weak_C",
    "weak_K",
    "weak_nearly_C",
)

_SASAKIAN_CLASSES = (
    "weak_metric_f",
    "weak_almost_S",
    "weak_almost_K",
    "normal",
    "weak_S",
    "weak_K",
    "weak_nearly_S",
    "S_structure",
    "f_K_contact",
)


@dataclass(frozen=True)
class CatalogObject:
    """A built example plus its pinned verdict table."""

    name: str
    params: dict
    obj: object                    # StructurePack or EmbeddedSubmanifold
    declared_classes: tuple = ()
    declared_cases: tuple = ()     # submanifold criterion cases expected to hold

    @property
    def is_pack(self):
        return isinstance(self.obj, StructurePack)

    @property
    def chart(self):
        return self.obj.chart if self.is_pack else self.obj.domain


# -- constant-tensor helpers ------------------------------------------------------


def _block_skew(n, scales):
    """Block-diagonal skew matrix with 2x2 blocks of the given weights."""
    a = np.zeros((2 * n, 2 * n))
    for k, c in enumerate(scales):
        a[2 * k, 2 * k + 1] = -float(c)
        a[2 * k + 1, 2 * k] = float(c)
    return a


# Values that float() converts but that are no numbers (True would be 1,
# "3" would be 3).
_NOT_NUMBERS = (bool, np.bool_, str)


def _integer(name, value):
    """An integer parameter, an int taken as it is (no float round trip); a
    bool, a string, anything else that is no real number or a fractional
    value is rejected, never coerced."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, _NOT_NUMBERS):
        return int(value)
    try:
        if _number(name, value).is_integer():
            return int(value)
    except InvalidExample:
        pass
    raise InvalidExample(f"{name} must be an integer, got {value!r}")


def _number(name, value):
    """A finite float parameter; a bool, a string or a non-finite value is
    rejected, never coerced."""
    try:
        number = None if isinstance(value, _NOT_NUMBERS) else float(value)
    except OverflowError:                   # an int beyond the float range
        number = math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        number = None
    if number is None:
        raise InvalidExample(f"{name} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise InvalidExample(f"{name} must be finite, got {number!r}")
    return number


def _numbers(name, value):
    """A nested sequence or array of numbers as a float array of its shape,
    every entry passed through :func:`_number` under ``name``."""
    entries = np.asarray(value, dtype=object)
    return np.array([_number(name, x) for x in entries.flat],
                    dtype=float).reshape(entries.shape)


def _choice(name, value, options):
    """One of the strings ``options``."""
    if not (isinstance(value, str) and value in options):
        raise InvalidExample(
            f"{name} must be {' or '.join(map(repr, options))}, got {value!r}")
    return value


# The largest ambient dimension 2n + 2s of an example (a pack's chart has
# 2n + s): at 32, on hypersphere n=15 with all suites, the most of any
# builder, one chunk's allocations peak at 90 MB under tracemalloc and a
# whole run at 127 MB of process ru_maxrss (16 samples; see CHANGES.md).
MAX_AMBIENT_DIM = 32


def _dimensions(example, n, s=None):
    """``n`` and ``s`` as integers, both >= 1, with 2n + 2s at most
    MAX_AMBIENT_DIM; ``s`` is None where the example fixes s = 1."""
    fixed = s is None
    n, s = _integer("n", n), 1 if fixed else _integer("s", s)
    if n < 1 or s < 1:
        raise InvalidExample(
            f"{example} needs n >= 1" + ("" if fixed else " and s >= 1"))
    if 2 * n + 2 * s > MAX_AMBIENT_DIM:
        raise InvalidExample(
            f"{example} needs an ambient dimension 2n + 2s <= "
            f"{MAX_AMBIENT_DIM}, got {2 * n + 2 * s}")
    return n, s


# Q f is the third power of a block weight, and the squared g-norm of its
# residual (sampling.sup_norm) the sixth, the largest power any residual
# forms: above this ceiling that power overflows float64.
_WEIGHT_CEIL = np.finfo(float).max ** (1 / 6)


def _block_weights(example, n, scales, default):
    """One finite weight per complex block, as a float tuple.

    A bare number is the weight of a single block (``--param scales=2``).
    """
    if scales is None:
        return default
    # a ragged list has a dimension too: its sequence entry is refused below
    given = scales if np.asarray(scales, dtype=object).ndim else (scales,)
    weights = tuple(_number(f"{example} block weight {c!r} in scales", c)
                    for c in given)
    if len(weights) != n:
        raise InvalidExample(f"{example} needs one block weight per complex block")
    bad = [c for c in weights
           if not _RANK_POSITIVE_FLOOR < abs(c) <= _WEIGHT_CEIL]
    if bad:
        raise InvalidExample(
            f"{example} block weight {bad[0]!r} in scales must have "
            f"{_RANK_POSITIVE_FLOOR:.4e} < |weight| <= {_WEIGHT_CEIL:.4e}, where "
            "it, a singular value of f on D, exceeds the f_rank floor and its "
            "sixth power, the squared g-norm of Q f, stays finite")
    return weights


def _flat_chart(m, label, half=1.5):
    """The box (-half, half)^m named ``label_rm``."""
    return Chart(name=f"{label}_r{m}", dim=m, box=((-half, half),) * m)


def _constant_pack(f_block, q_block, example, label, params):
    """The constant pack on R^(2n+s) with f and Q given on the rank-2n block:
    the unit Reeb frame on the last s coordinates, where f = 0 and Q = id,
    and the Euclidean metric."""
    n, s = params["n"], params["s"]
    m = 2 * n + s
    chart = _flat_chart(m, label)
    f = np.zeros((m, m))
    f[: 2 * n, : 2 * n] = f_block
    q = np.eye(m)
    q[: 2 * n, : 2 * n] = q_block
    pack = StructurePack(
        chart=chart,
        f=constant_field(chart, "tensor11", f, name="f"),
        Q=constant_field(chart, "tensor11", q, name="Q"),
        xi=tuple(constant_field(chart, "vector", np.eye(m)[2 * n + i],
                                name=f"xi_{i + 1}") for i in range(s)),
        eta=tuple(constant_field(chart, "oneform", np.eye(m)[2 * n + i],
                                 name=f"eta_{i + 1}") for i in range(s)),
        g=euclidean_metric(chart),
        n=n,
        s=s,
    )
    return CatalogObject(name=example, params=params, obj=pack,
                         declared_classes=_CONSTANT_PACK_CLASSES)


def _flat_embedding(example, params, domain, half, skew, embedding, normals,
                    declared_classes, declared_cases):
    """``domain`` embedded in flat R^d, d = len(skew), on the box
    (-half, half)^d with the Euclidean metric and the constant ambient skew
    tensor ``skew``: s is the codimension, and the domain has dimension
    2n + s."""
    ambient = _flat_chart(len(skew), "flat", half)
    s = ambient.dim - domain.dim
    sub = EmbeddedSubmanifold(
        domain=domain,
        ambient=ambient,
        ambient_metric=euclidean_metric(ambient),
        ambient_skew=constant_field(ambient, "tensor11", skew, name="fbar"),
        embedding=embedding,
        normals=normals,
        n=(domain.dim - s) // 2,
        s=s,
    )
    return CatalogObject(name=example, params=params, obj=sub,
                         declared_classes=declared_classes,
                         declared_cases=declared_cases)


def _block_weight_pack(example, label, n, s, scales, default):
    """f the block skew tensor of the weights, Q = -f^2 on its block; the
    weights are ``default(n)`` unless ``scales`` gives them."""
    n, s = _dimensions(example, n, s)
    scales = _block_weights(example, n, scales, default(n))
    a = _block_skew(n, scales)
    return _constant_pack(a, -a @ a, example, label,
                          {"n": n, "s": s, "scales": scales})


# -- pack builders -----------------------------------------------------------------


def flat_pack(n=2, s=1, scales=None):
    """Constant weak C-structure on R^(2n+s), block weights 1, 2, .., n."""
    return _block_weight_pack("flat_pack", "flat", n, s, scales,
                              lambda n: tuple(float(k + 1) for k in range(n)))


def product_pack(n=1, s=2, scales=None):
    """Flat weak Kahler factor times R^s, unit block weights; weak nearly C."""
    return _block_weight_pack("product_pack", "product", n, s, scales,
                              lambda n: (1.0,) * n)


def _rotation_matrix(n, rotation):
    """Orthogonal conjugation on the rank-2n block: the reflection (the
    default), a Givens rotation ``"givens:i:j:theta"`` or a matrix of numbers."""
    if rotation is None or (isinstance(rotation, str) and rotation == "reflection"):
        r = np.eye(2 * n)
        r[1, 1] = -1.0
        return r
    if isinstance(rotation, str):
        kind, *args = rotation.split(":")
        if kind != "givens" or len(args) != 3:
            raise InvalidExample(f"unknown rotation descriptor {rotation!r}")
        try:
            i, j, theta = map(float, args)
        except ValueError:
            raise InvalidExample(f"rotation givens:i:j:theta needs numbers, "
                                 f"got {rotation!r}") from None
        i = _integer("rotation givens index i", i)
        j = _integer("rotation givens index j", j)
        theta = _number("rotation givens angle", theta)
        if not (0 <= i < 2 * n and 0 <= j < 2 * n and i != j):
            raise InvalidExample(f"rotation givens indices out of range, got {i}, {j}")
        r = np.eye(2 * n)
        r[i, i] = r[j, j] = np.cos(theta)
        r[i, j], r[j, i] = -np.sin(theta), np.sin(theta)
        return r
    r = _numbers("rotation matrix entry", rotation)
    if r.shape != (2 * n, 2 * n):
        raise InvalidExample("rotation matrix must act on the rank-2n block")
    if np.abs(r @ r.T - np.eye(2 * n)).max() > 1e-10:
        raise InvalidExample("rotation matrix must be orthogonal")
    return r


def rotated_pack(n=2, s=1, t=0.1, rotation=None):
    """Blend of two conjugate constant structures; weak nearly C."""
    n, s = _dimensions("rotated_pack", n, s)
    t = _number("rotated_pack blend angle t", t)
    f1 = _block_skew(n, (1.0,) * n)
    r = _rotation_matrix(n, rotation)
    f2 = r @ f1 @ r.T
    q = np.eye(2 * n) - np.sin(t) * np.cos(t) * (f1 @ f2 + f2 @ f1)
    # f^T f = Q on the block, so f's singular values on D are sqrt(lambda(Q))
    eigmin = float(np.linalg.eigvalsh(0.5 * (q + q.T)).min())
    if eigmin <= _RANK_POSITIVE_FLOOR ** 2:
        raise InvalidExample(
            f"rotated_pack blend angle t={t!r} gives Q the smallest eigenvalue "
            f"{eigmin:.3e}: Q must be positive-definite with every eigenvalue "
            f"above {_RANK_POSITIVE_FLOOR ** 2:.4e}, the square of the f_rank "
            f"floor {_RANK_POSITIVE_FLOOR:.4e}, because f's singular values on "
            "D are their square roots")
    return _constant_pack(
        np.cos(t) * f1 + np.sin(t) * f2, q, "rotated_pack", "rotated",
        {"n": n, "s": s, "t": t, "rotation": r.tolist() if np.ndim(rotation)
         else rotation or "reflection"})


def sasakian_s3():
    """Round unit 3-sphere with its standard Sasakian structure, Q = id."""
    chart = Chart(
        name="hopf_s3",
        dim=3,
        box=((0.2, np.pi / 2 - 0.2), (0.3, 5.9), (0.3, 5.9)),
    )

    def metric_fn(u):
        al = u[0]
        c2 = cos(al) ** 2
        s2 = sin(al) ** 2
        return [[1.0, 0.0, 0.0], [0.0, c2, 0.0], [0.0, 0.0, s2]]

    def f_fn(u):
        al = u[0]
        sc = sin(al) * cos(al)
        ta = tan(al)
        return [
            [0.0, -sc, sc],
            [ta, 0.0, 0.0],
            [-1.0 / ta, 0.0, 0.0],
        ]

    def eta_fn(u):
        al = u[0]
        return [0.0, cos(al) ** 2, sin(al) ** 2]

    pack = StructurePack(
        chart=chart,
        f=SmoothField(chart, "tensor11", f_fn, name="f"),
        Q=constant_field(chart, "tensor11", np.eye(3), name="Q"),
        xi=(constant_field(chart, "vector", [0.0, 1.0, 1.0], name="xi_1"),),
        eta=(SmoothField(chart, "oneform", eta_fn, name="eta_1"),),
        g=SmoothField(chart, "metric", metric_fn, name="round_metric"),
        n=1,
        s=1,
    )
    return CatalogObject(
        name="sasakian_s3",
        params={},
        obj=pack,
        declared_classes=_SASAKIAN_CLASSES,
    )


# -- embedded submanifolds ----------------------------------------------------------


def _sphere_embedding(n):
    """Iterated polar chart of unit S^(2n+1) in R^(2n+2)."""

    def emb(u):
        als = u[:n]
        phis = u[n:]
        radii = []
        prefix = 1.0
        for k in range(n):
            radii.append(prefix * cos(als[k]))
            prefix = prefix * sin(als[k])
        radii.append(prefix)
        out = []
        for r, ph in zip(radii, phis):
            out.append(r * cos(ph))
            out.append(r * sin(ph))
        return out

    return emb


def hypersphere(n=1, ambient_skew="standard", normal="inward"):
    """Unit S^(2n+1) in flat R^(2n+2) with the position normal, s = 1."""
    n, _ = _dimensions("hypersphere", n)
    ambient_skew = _choice("ambient_skew", ambient_skew, ("standard", "weak"))
    normal = _choice("normal", normal, ("inward", "outward"))
    domain = Chart(
        name=f"hopf_s{2 * n + 1}",
        dim=2 * n + 1,
        box=tuple((0.25, np.pi / 2 - 0.25) for _ in range(n))
        + tuple((0.3, 5.9) for _ in range(n + 1)),
    )
    standard = ambient_skew == "standard"
    weights = (1.0,) * (n + 1) if standard else tuple(
        float(k + 1) for k in range(n + 1))
    emb = _sphere_embedding(n)
    sign = -1.0 if normal == "inward" else 1.0

    def normals_fn(u, emb=emb, sign=sign):
        return [[sign * c for c in emb(u)]]

    # A constant non-standard skew cannot normalize the Reeb data on a full
    # sphere (that needs fbar^2 N = -N pointwise), so the "weak" variant is
    # a diagnostics example: the f^2 and compatibility identities hold with
    # a positive-definite Q != id, while the Reeb axioms fail by design.
    return _flat_embedding(
        "hypersphere", {"n": n, "ambient_skew": ambient_skew, "normal": normal},
        domain, 1.2, _block_skew(n + 1, weights), emb, normals_fn,
        _SASAKIAN_CLASSES if standard else (), ("i",) if standard else ())


def linear_subspace(n=1, s=1, scales=None):
    """R^(2n+s) as a totally geodesic linear subspace of flat R^(2n+2s)."""
    n, s = _dimensions("linear_subspace", n, s)
    scales = _block_weights("linear_subspace", n, scales, (1.0,) * n)
    d = 2 * n + 2 * s
    skew = np.zeros((d, d))
    skew[: 2 * n, : 2 * n] = _block_skew(n, scales)
    for i in range(s):
        # fbar z_i = y_i, fbar y_i = -z_i
        skew[2 * n + i, 2 * n + s + i] = 1.0
        skew[2 * n + s + i, 2 * n + i] = -1.0

    def emb(u):
        return list(u) + [0.0] * s

    basis = np.eye(d)

    def normals_fn(u):
        return [list(basis[2 * n + s + i]) for i in range(s)]

    return _flat_embedding(
        "linear_subspace", {"n": n, "s": s, "scales": scales},
        _flat_chart(2 * n + s, "subspace"), 2.0, skew, emb, normals_fn,
        _CONSTANT_PACK_CLASSES, ("ii",))


# -- registry ------------------------------------------------------------------------


BUILDERS = {
    "flat_pack": flat_pack,
    "rotated_pack": rotated_pack,
    "product_pack": product_pack,
    "sasakian_s3": sasakian_s3,
    "hypersphere": hypersphere,
    "linear_subspace": linear_subspace,
}


def make_example(name, /, **params):
    """Build the catalog object ``name`` with the builder's ``params``."""
    builder = BUILDERS.get(name)
    if builder is None:
        known = ", ".join(sorted(BUILDERS))
        raise InvalidExample(f"unknown example {name!r} (known: {known})")
    try:
        return builder(**params)
    except (TypeError, ValueError) as exc:
        raise InvalidExample(f"bad parameters for {name!r}: {exc}") from exc
