"""Suite runner: evaluate identity residuals over seeded points, report.

A run is described by a :class:`SuiteConfig`; the output is a plain dict
(the report) that serializes to stable JSON: entry lists are emitted in
fixed registry order, object keys are sorted at dump time, and every number
is a deterministic function of (example, params, suites, samples, seed), so
two runs with the same configuration are byte-identical.

Verdict semantics per entry:

* ``pass`` / ``fail``: max residual versus the entry's tolerance;
* ``skipped``: a gated check whose hypotheses the object does not satisfy
  (the note names the failing gate and its residual);
* entries with ``counted: false`` are informational: they never flip the
  overall verdict. Class entries are counted only for the classes the
  catalog declares for the object, and the chain step of the Reeb-sectional
  curvature argument that needs the nearly-C hypothesis is always
  informational (it is expected to break on packs that are not nearly C).

The overall verdict is ``pass`` iff every counted entry passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import __version__, charts
from .catalog import _number, make_example
from .charts import Rows
from .classifiers import (
    CLASS_TAGS,
    THEOREM_CHECKS,
    TOL_EXACT,
    class_residual,
    frame_residuals,
    q_parallel_residual,
    theorem_check,
)
from .errors import HypothesisNotMet, InvalidExample, WeakfError
from .fstructure import _FrameStack, axioms_residual
from .submanifold import (
    frame_check,
    gauss_split_residual,
    induce_structure,
    lemma_parallel_claim,
    thsubm_check,
)

SUITES = ("axioms", "classes", "frames", "theorems", "submanifold")

CONVENTION_NOTE = (
    "exterior derivative normalized with the 1/2 factor on one-forms and "
    "the 1/3 factor on two-forms"
)


class EvaluationFailure(WeakfError):
    """Internal evaluation failure, tagged with the identity being checked."""

    def __init__(self, identity, cause):
        self.identity = identity
        self.cause = cause
        super().__init__(
            f"evaluation failed in {identity}: {type(cause).__name__}: {cause}"
        )


FORMULAS = {
    # axioms
    "f_skew": "g(fX,Y) + g(X,fY) = 0",
    "q_selfadjoint": "g(QX,Y) = g(X,QY)",
    "q_positive": "Q positive-definite",
    "eta_xi_pairing": "eta^i(xi_j) = delta^i_j",
    "q_fixes_xi": "Q xi_i = xi_i",
    "f_squared": "f^2 = -Q + sum_i eta^i (x) xi_i",
    "compatibility": "g(fX,fY) = g(X,QY) - sum_i eta^i(X) eta^i(Y)",
    "f_kills_xi": "f xi_i = 0",
    "eta_after_f": "eta^i o f = 0",
    "eta_after_q": "eta^i o Q = eta^i",
    "qf_commute": "Qf = fQ",
    "eta_metric_dual": "eta^i(X) = g(X, xi_i)",
    "xi_orthonormal": "g(xi_i, xi_j) = delta_ij",
    "f_rank": "rank f = 2n",
    "d_f_invariant": "f(D) in D for D = cap_i ker eta^i",
    "tangent_split": "X - sum_i eta^i(X) xi_i lies in D",
    # classes
    "weak_metric_f": "all defining identities of the weak metric f-structure",
    "weak_almost_C": "dPhi = 0 and d eta^i = 0",
    "weak_almost_S": "Phi = d eta^1 = ... = d eta^s",
    "weak_almost_K": "dPhi = 0",
    "normal": "[f,f](X,Y) + 2 sum_i d eta^i(X,Y) xi_i = 0",
    "weak_C": "weak almost C and normal",
    "weak_S": "weak almost S and normal",
    "weak_K": "weak almost K and normal",
    "weak_nearly_S": "(D_X f)Y + (D_Y f)X = 2 g(fX,fY) xibar"
                     " + etabar(X) f^2 Y + etabar(Y) f^2 X",
    "weak_nearly_C": "(D_X f)Y + (D_Y f)X = 0",
    "S_structure": "(D_X f)Y = g(fX,fY) xibar + etabar(Y) f^2 X",
    "f_K_contact": "weak almost S with Killing Reeb fields",
    # frame conditions
    "reeb_brackets": "[xi_i, xi_j] = 0",
    "reeb_flat": "g(D_X xi_i, xi_j) = 0",
    "reeb_totally_geodesic": "eta^k(D_{xi_i} xi_j) = 0",
    "q_parallel_d": "(D_X Q)Y = 0 for Y in D",
    "q_parallel_expansion":
        "(D_X Q)Y = -sum_i eta^i(Y) (Q - id) D_X xi_i",
    # theorem checks (whole-bundle formulas are shown on skipped entries)
    "prop1": "flat totally geodesic Reeb foliation and Killing Reeb fields"
             " on weak nearly S/C packs with the frame conditions",
    "prop_normal": "consequences of normality (N1 = 0)",
    "fk_contact_nabla": "D xi_i = -f on weak f-K-contact packs",
    "thm32_chain": "Reeb-sectional curvature chain on weak f-K-contact packs",
    "thm41": "parallel Reeb frame characterizes the product of a flat factor"
             " with a weak nearly Kahler factor (constructive direction)",
    "thm01_i": "eta o N1 = 0 forces d eta^j = Phi(Q., .) on gated packs",
    "thm01_ii": "Phi = d eta^i forces N1 = -2 Phi((Q-id)., .) xibar"
                " on gated packs",
    "corollary_rigidity": "a normal nearly-S pack with Q = id satisfies the"
                          " full S-structure equation",
    "prop1.reeb_parallel_pairs": "D_{xi_i} xi_j = 0",
    "prop1.reeb_coparallel": "D_{xi_i} eta^j = 0",
    "prop1.reeb_killing": "L_{xi_i} g = 0",
    "prop_normal.lie_xi_f": "L_{xi_i} f = 0",
    "prop_normal.deta_xi_contraction": "d eta^j(xi_i, .) = 0",
    "prop_normal.deta_f_swap":
        "d eta^i(fX,Y) - d eta^i(fY,X) = (1/2) eta^i([(Q-id)X, fY])",
    "prop_normal.reeb_derivatives_in_d": "D_{xi_i} xi_j in D",
    "prop_normal.d_brackets_stay_in_d": "[X, xi_i] in D for X in D",
    "prop_normal.reeb_symmetric_geodesic":
        "D_{xi_i} xi_j + D_{xi_j} xi_i = 0",
    "fk_contact_nabla.nabla_xi_plus_f": "D xi_i = -f",
    "thm32_chain.chain_connection_step":
        "g(R(xi,X)xi, X) = g(-(D_xi f)X + f^2 X, X)",
    "thm32_chain.chain_nearly_c_step":
        "g(-(D_xi f)X + f^2 X, X) = g((D_X f)xi, X) - g(fX,fX)"
        " [needs the nearly-C identity]",
    "thm32_chain.chain_algebra_step":
        "g((D_X f)xi, X) - g(fX,fX) = 2 g(f^2 X, X)",
    "thm32_chain.f2_nonpositive": "g(f^2 X, X) <= 0",
    "thm32_chain.chain_total": "g(R(xi,X)xi, X) = 2 g(f^2 X, X) [full chain]",
    "thm41.nabla_xi_zero": "D xi_i = 0",
    "thm41.deta_on_d": "d eta^i(X,Y) = 0 for X,Y in D",
    "thm41.coboundary_vs_connection":
        "2 d eta^i(X,Y) = g(D_X xi_i, Y) - g(D_Y xi_i, X)",
    "thm41.d_totally_geodesic": "g(Y, D_X xi_i) = 0 for X,Y in D",
    "thm01_i.deta_equals_phi_q": "d eta^j(X,Y) = Phi(QX, Y)",
    "thm01_i.eta_n1_expansion":
        "eta^j(N1(X,Y)) - 2 d eta^j(X,Y) = eta^j([f,f](X,Y))",
    "thm01_i.eta_ff_reduction":
        "eta^j([f,f](X,Y)) = 2 d eta^j(X,Y) - 4 g(QX, fY)",
    "thm01_ii.n1_equals_qtilde_phi": "N1(X,Y) = -2 Phi((Q-id)X, Y) xibar",
    "thm01_ii.dphi_nabla_f_expansion":
        "3 dPhi(X,Y,Z) + 3 g((D_X f)Y, Z) + 3 g(f^2 X, Y) etabar(Z)"
        " - 3 g(f^2 X, Z) etabar(Y) = 0",
    "corollary_rigidity.s_structure_defining":
        "(D_X f)Y = g(fX,fY) xibar + etabar(Y) f^2 X",
    # submanifold
    "normals_orthonormal": "gbar(N_i, N_j) = delta_ij",
    "normals_perp_image": "gbar(dI X, N_i) = 0",
    "skew_normal_pairs": "gbar(fbar N_i, N_j) = 0",
    "xi_tangent": "fbar N_i tangent to the image",
    "ambient_skew": "gbar(fbar X, Y) + gbar(X, fbar Y) = 0",
    "fbar_sq_negative": "fbar^2 negative-definite",
    "gauss_split": "ambient D_X Y = dI(D_X Y) + h(X,Y)",
    "aa_symmetry": "h_{N_i}(xi_j, xi_k) = h_{N_j}(xi_i, xi_k)",
    "case_i.h_display":
        "h_{N_i}(X,Y) = g(-f^2 X, Y)"
        " + sum_{j,k} h_{N_i}(xi_j,xi_k) eta^j(X) eta^k(Y)",
    "case_ii.h_display":
        "h_{N_i}(X,Y) = sum_{j,k} h_{N_i}(xi_j,xi_k) eta^j(X) eta^k(Y)",
    "shape_display_duality": "the A-display is the g-transpose of the h-display",
    "weingarten_duality": "gbar(h(X,Y), N_i) = g(A_i X, Y)",
    "h_symmetric": "h(X,Y) = h(Y,X)",
    "tangential_expansion":
        "((D_X fbar)Y + (D_Y fbar)X)^T = (D_X f)Y + (D_Y f)X"
        " + sum_i (eta^i(X) A_i Y + eta^i(Y) A_i X - 2 h_{N_i}(X,Y) xi_i)",
    "conclusion_weak_nearly_S": "(induced pack) weak nearly S",
    "conclusion_weak_nearly_C": "(induced pack) weak nearly C",
    "fbar_sq_normal_is_normal": "fbar^2 N_i perp TM",
    "tangential_nabla_fbar_sq": "((D_X fbar^2)Y)^T = 0 for Y in D",
}


# The most sample points of a run. They are drawn before the first check,
# into one array: 256 B each at catalog.MAX_AMBIENT_DIM, 26 MB here, under
# the 90 MB tracemalloc peak of one chunk that bounds the dimension; the
# fastest run (sasakian_s3, axioms alone) takes about 10 s here (see
# CHANGES.md).
MAX_SAMPLES = 100_000


@dataclass(frozen=True)
class SuiteConfig:
    """One verification run: example, suites, sampling and tolerances."""

    example: str
    params: dict = field(default_factory=dict)
    suites: tuple = SUITES
    samples: int = 50
    seed: int = 42
    tol_exact: float = TOL_EXACT
    tol_curvature: float = 1e-6
    fmt: str = "json"

    def __post_init__(self):
        suites = list(self.suites)
        if not suites or any(s not in SUITES or suites.count(s) > 1
                             for s in suites):
            raise InvalidExample(f"suites must be distinct names from "
                                 f"{','.join(SUITES)}, got {suites}")
        for name, least in (("samples", 1), ("seed", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                    or value < least):
                raise InvalidExample(
                    f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.samples > MAX_SAMPLES:
            raise InvalidExample(
                f"samples must be at most {MAX_SAMPLES}, got {self.samples}")
        if self.fmt not in ("json", "text"):
            raise InvalidExample(f"format must be json or text, got {self.fmt!r}")
        for name in ("tol_exact", "tol_curvature"):
            tol = getattr(self, name)
            if _number(name, tol) < 0.0:
                raise InvalidExample(f"{name} must be finite and >= 0, got {tol}")

    def echo(self):
        return {
            "example": self.example,
            "params": _jsonable(self.params),
            "suites": list(self.suites),
            "samples": self.samples,
            "seed": self.seed,
            "tol_exact": self.tol_exact,
            "tol_curvature": self.tol_curvature,
            "format": self.fmt,
        }


def _jsonable(value):
    """``value`` as strict JSON data: numpy arrays become lists, numpy scalars
    Python numbers and a non-finite float the string "NaN", "Infinity" or
    "-Infinity"."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return json.dumps(value)
    return value


class _Agg:
    __slots__ = ("max", "total", "count")

    def __init__(self):
        self.max = 0.0
        self.total = 0.0
        self.count = 0

    def add(self, rows):
        """Fold a row of residuals in point order, one at a time: a pairwise
        sum such as ``np.sum`` would move the mean."""
        for v in rows.tolist():
            if v > self.max or math.isnan(v):   # a NaN max stays: it fails
                self.max = v
            self.total += v
            self.count += 1


def _fold(found, skipped, aggs, skips):
    """Fold a walk's residuals into their bundles' aggregates, and its skips."""
    for b, res in found:
        for key, val in res.items():
            if key not in aggs[b]:
                aggs[b][key] = _Agg()
            aggs[b][key].add(val)
    skips.update(skipped)


def _entry(identity, formula_key, agg, tol, counted, note=None, verdict=None):
    e = {
        "identity": identity,
        "formula": FORMULAS[formula_key],
        "max_residual": agg.max if agg.count else None,
        "mean_residual": (agg.total / agg.count) if agg.count else None,
        "tolerance": tol,
        "points": agg.count,
        "counted": bool(counted),
        "verdict": verdict or ("pass" if agg.count and agg.max <= tol else "fail"),
    }
    if note is not None:
        e["note"] = note
    return e


def run_suite(config):
    """Execute the configured suites and assemble the report dict.

    Points are walked once, in chunks of ``charts.CHUNK``, each a
    :class:`~weakf.charts.Rows`. The walk builds each chunk's set-up stack,
    a :class:`_FrameStack` (over the ambient stack of the same rows on an
    embedded example), so component functions are evaluated, and set-up
    quantities built, once per chunk, and hands it to every bundle, which
    returns one row of residuals over the chunk per key. A failed gate skips
    its bundle for good: a bundle raises at the chunk's first point whose
    gate fails, at once if that is the chunk's first point and else once
    every row is computed, and the note names that point
    (:func:`~weakf.classifiers.gated_rows`). Any other exception, from the
    engine or a component function, may belong to any point of the chunk:
    the chunk's results are dropped and its points walked again, each as
    rows of its own (with a fresh generator). Only an exception raised there
    becomes an :class:`EvaluationFailure`, naming the suite, the bundle and
    the point.
    """
    cat = make_example(config.example, **config.params)
    pack = cat.obj if cat.is_pack else induce_structure(cat.obj, validate=False)
    names = [n for n in config.suites if n != "submanifold" or pack.submanifold]
    if not names:
        raise InvalidExample(
            f"no requested suite applies to {cat.name}: the submanifold "
            "suite needs an embedded example")
    bundles = [(n, b) for n in names for b in _bundles(n, config, cat)]
    aggs = [{} for _ in bundles]
    skips = {}          # bundle -> the note of the gate that failed
    at = [None]         # the bundle under evaluation

    def walk(rows):
        """[(bundle, rows of residuals)] over the chunk ``rows`` and its
        skips; raises what a bundle raises."""
        found, skipped = [], {}
        stack = _FrameStack(pack, rows, config.seed)
        for b, (_, bundle) in enumerate(bundles):
            if b in skips:
                continue
            at[0] = b
            try:
                found.append((b, bundle.evaluate(stack)))
            except HypothesisNotMet as exc:
                skipped[b] = (f"hypothesis failed: {exc.gate} (residual "
                              f"{exc.residual:.3e} at point "
                              f"{rows.start + exc.row})")
        return found, skipped

    points = cat.chart.sample(config.samples, config.seed)
    for start in range(0, len(points), charts.CHUNK):
        rows = Rows(points[start:start + charts.CHUNK], start)
        try:
            found = walk(rows)
        except Exception:
            found = None
        if found is not None:
            _fold(*found, aggs, skips)
            continue
        # the chunk raised: walk its points again, each alone
        for i in range(rows.start, rows.start + len(rows)):
            try:
                found = walk(Rows(points[i:i + 1], i))
            except Exception as exc:
                suite, bundle = bundles[at[0]]
                where = f"{suite}.{bundle.label}" if bundle.label else suite
                raise EvaluationFailure(f"{where}[point {i}]", exc) from exc
            _fold(*found, aggs, skips)

    suites = {n: [] for n in names}
    for b, ((suite, bundle), agg) in enumerate(zip(bundles, aggs)):
        suites[suite] += _bundle_entries(config, bundle, agg, skips.get(b))

    entries = [e for lst in suites.values() for e in lst]
    failures = [
        e["identity"] for e in entries if e["counted"] and e["verdict"] != "pass"
    ]
    report = {
        "schema": "weakf.report.v1",
        "engine": {"name": "weakf", "version": __version__},
        "convention": CONVENTION_NOTE,
        "config": config.echo(),
        "object": {
            "example": cat.name,
            "params": _jsonable(cat.params),
            "kind": "structure_pack" if cat.is_pack else "embedded_submanifold",
            "dimension": cat.chart.dim,
            "n": pack.n,
            "s": pack.s,
            "declared_classes": list(cat.declared_classes),
            "declared_cases": list(cat.declared_cases),
        },
        "suites": suites,
        "overall": {
            "verdict": "pass" if not failures else "fail",
            "entries": len(entries),
            "counted": sum(1 for e in entries if e["counted"]),
            "failures": failures,
        },
    }
    return report


# -- suites -------------------------------------------------------------------------


class _Bundle(NamedTuple):
    """One evaluator of a suite and how its residuals become report entries."""

    label: str              # names the bundle in an EvaluationFailure
    evaluate: object        # the chunk's stack -> {key: (P,) residuals}
    prefix: str = ""        # entry identities read "prefix.key", else "key"
    skip_formula: str = ""  # formula of the one entry left when a gate fails
    counted: object = None  # (key, aggregates) -> bool; None counts all
    note: str = None        # note on the entries that are not counted


# Classes whose Reeb-frame conditions the frames suite counts.
_ALMOST_CLASSES = {"weak_almost_S", "weak_almost_C", "weak_S", "weak_C",
                   "f_K_contact"}

# thm32_chain steps measured against the curvature tolerance, and the steps
# that only hold on weak nearly-C packs (reported, never counted).
_CURVATURE = {"thm32_chain.chain_connection_step", "thm32_chain.chain_total"}
_NEARLY_C_STEPS = {"chain_nearly_c_step", "chain_total"}

# Submanifold identities that hold whichever case the example declares.
_CASE_FREE = {"aa_symmetry", "shape_display_duality", "weingarten_duality",
              "h_symmetric", "tangential_expansion"}


def _bundles(suite, config, cat):
    """The evaluator bundles of ``suite`` in report order, each reading
    residual rows over a chunk from its set-up stack.

    Every evaluator is a public check function called on the chunk's
    stack, looked up by its module name at call time, so that a wrapper
    installed on that name sees every call.
    """
    declared = cat.declared_classes
    tol = config.tol_exact
    if suite == "axioms":
        return [_Bundle("", lambda st: axioms_residual(st),
                        counted=lambda key, aggs: "weak_metric_f" in declared)]
    if suite == "classes":
        return [
            _Bundle(tag, lambda st, tag=tag: {
                tag: class_residual(st.pack, None, tag, st)[0]},
                counted=lambda key, aggs: key in declared)
            for tag in CLASS_TAGS
        ]
    if suite == "frames":
        almost = not _ALMOST_CLASSES.isdisjoint(declared)
        return [_Bundle(
            "",
            lambda st: {**frame_residuals(st),
                        "q_parallel_expansion": q_parallel_residual(st)[1]},
            # the expansion is only asserted where its hypothesis holds
            counted=lambda key, aggs: almost and (
                key != "q_parallel_expansion" or aggs["q_parallel_d"].max <= tol),
        )]
    if suite == "theorems":
        return [
            _Bundle(which, lambda st, which=which: theorem_check(
                st.pack, None, which, frame=st, tol_exact=tol),
                prefix=which, skip_formula=which,
                counted=lambda key, aggs: key not in _NEARLY_C_STEPS,
                note="informational: breaks unless the pack is weak nearly C")
            for which in THEOREM_CHECKS
        ]
    cases = [
        _Bundle(f"case_{case}", lambda st, case=case: thsubm_check(
            st, case, tol_exact=tol),
            prefix=f"case_{case}", skip_formula=f"case_{case}.h_display",
            counted=lambda key, aggs, c=case in cat.declared_cases: (
                c or key in _CASE_FREE),
            note="informational: case not declared for this example")
        for case in ("i", "ii")
    ]
    return [
        _Bundle("frame", lambda st: {
            **frame_check(st.ambient), "gauss_split": gauss_split_residual(st)}),
        *cases,
        _Bundle("parallel_q", lambda st: lemma_parallel_claim(st, tol),
                prefix="parallel_q", skip_formula="q_parallel_d"),
    ]


def _bundle_entries(config, bundle, aggs, skip):
    """One bundle's entries, in first-seen key order; one entry if it skipped."""
    if skip is not None:
        return [_entry(bundle.prefix, bundle.skip_formula, _Agg(),
                       config.tol_exact, False, skip, "skipped")]
    entries = []
    for key, agg in aggs.items():
        identity = f"{bundle.prefix}.{key}" if bundle.prefix else key
        counted = bundle.counted is None or bundle.counted(key, aggs)
        tol = config.tol_curvature if identity in _CURVATURE else config.tol_exact
        entries.append(_entry(
            identity, identity if identity in FORMULAS else key, agg, tol,
            counted, None if counted else bundle.note))
    return entries


# -- rendering ----------------------------------------------------------------------


def render_json(report):
    return json.dumps(_jsonable(report), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _fmt_num(x):
    return "      --" if x is None else f"{x:8.2e}"


def render_text(report):
    lines = []
    eng = report["engine"]
    cfg = report["config"]
    lines.append(
        f"{eng['name']} {eng['version']} verification report"
    )
    lines.append(
        f"example: {cfg['example']}  params: {cfg['params']}"
    )
    lines.append(
        f"samples: {cfg['samples']}  seed: {cfg['seed']}  "
        f"tol_exact: {cfg['tol_exact']:g}  tol_curvature: {cfg['tol_curvature']:g}"
    )
    lines.append(f"convention: {report['convention']}")
    lines.append("")
    header = (
        f"{'suite':<12} {'identity':<42} {'max':>8} {'mean':>8} "
        f"{'verdict':>8}  counted"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for suite in sorted(report["suites"]):
        for e in report["suites"][suite]:
            lines.append(
                f"{suite:<12} {e['identity']:<42} "
                f"{_fmt_num(e['max_residual'])} {_fmt_num(e['mean_residual'])} "
                f"{e['verdict']:>8}  {'yes' if e['counted'] else 'no'}"
            )
    o = report["overall"]
    lines.append("-" * len(header))
    lines.append(
        f"overall: {o['verdict'].upper()} "
        f"({o['counted']} of {o['entries']} entries counted, "
        f"{len(o['failures'])} failures)"
    )
    for f in o["failures"]:
        lines.append(f"  failed: {f}")
    return "\n".join(lines) + "\n"
