"""Outside-in layer trace of one `weakf verify` round.

The tracer wraps public functions of each weakf module from here, without
touching ``src/``: every call becomes a span (name, start, end, parent)
kept in memory. Span names read ``layer/function[:detail]``; layers are
named after the modules. ``np.einsum`` is traced by giving the modules
that call it a copy of the numpy namespace whose ``einsum`` is wrapped.

A layer's self time is the summed duration of its spans minus the time of
their child spans, so the self times of all layers add up to the time the
outermost spans cover; the rest of the round's wall time is reported as
uncovered. ``span_problems`` checks the nesting that this relies on.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
import types
from collections import Counter

import numpy

LAYERS = (
    "report",
    "catalog",
    "sampling",
    "charts",
    "submanifold",
    "fstructure",
    "calculus",
    "numpy.einsum",
    "classifiers",
)

# Public functions each suite runner in weakf.report calls per point.
SUITE_FUNCTIONS = {
    "axioms": ("axioms_residual",),
    "classes": ("class_residual",),
    "frames": ("frame_residuals", "q_parallel_residual"),
    "theorems": ("theorem_check",),
    "submanifold": ("frame_check", "gauss_split_residual", "thsubm_check",
                    "lemma_parallel_claim"),
}

WEAKF_MODULES = ("calculus", "catalog", "charts", "classifiers", "fstructure",
                 "jets", "report", "sampling", "submanifold")

EINSUM_CALLERS = ("calculus", "fstructure", "classifiers", "submanifold",
                  "sampling")

PULLBACK_PREFIX = "induced_"


def einsum_flops(subscripts, shapes):
    """Flop count of an unplanned einsum, computed from operand shapes.

    Uses the opt_einsum convention: the size of the full index space times
    (number of operands - 1, at least 1), plus one if any index is summed.
    """
    inputs, _, output = subscripts.replace(" ", "").partition("->")
    terms = inputs.split(",")
    sizes = {}
    for term, shape in zip(terms, shapes):
        if "..." in term:
            # ellipsis dimensions align from the right across operands
            head, _, tail = term.partition("...")
            n_ell = len(shape) - len(head) - len(tail)
            labels = (list(head) + [f"...{n_ell - 1 - k}" for k in range(n_ell)]
                      + list(tail))
        else:
            labels = list(term)
        for lab, dim in zip(labels, shape):
            sizes[lab] = max(sizes.get(lab, 1), int(dim))
    out_labels = set(output.replace("...", "")) | {k for k in sizes if k.startswith("...")}
    inner = any(k not in out_labels for k in sizes)
    factor = max(1, len(terms) - 1) + (1 if inner else 0)
    return math.prod(sizes.values()) * factor


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.modules = {"weakf": importlib.import_module("weakf")}
        for name in WEAKF_MODULES:
            self.modules[name] = importlib.import_module(f"weakf.{name}")
        self.names = []
        self._name_ids = {}
        self.case_index = 0
        self._undo = []
        self.reset()

    def reset(self):
        """Start a new round: fresh spans and counters, same span names."""
        self.spans = []                 # [name_id, start, end, parent_index]
        self._stack = [-1]
        self.jet_keys = set()
        self.einsum_shapes = Counter()

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- span wrappers ---------------------------------------------------------

    def _open(self, nid):
        idx = len(self.spans)
        self.spans.append([nid, time.perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, detail=None):
        fixed = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if detail is None else self.name_id(
                f"{name}:{detail(*args, **kwargs)}"
            )
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_jet(self, jet):
        def traced(field, p, order=2):
            layer = (
                "submanifold/pullback_jet"
                if field.name.startswith(PULLBACK_PREFIX)
                else "charts/jet"
            )
            self.jet_keys.add(
                (self.case_index, id(field), order, tuple(float(c) for c in p))
            )
            idx = self._open(self.name_id(f"{layer}:o{order}"))
            try:
                return jet(field, p, order)
            finally:
                self._close(idx)

        return traced

    def _wrap_einsum(self, einsum):
        nid = self.name_id("numpy.einsum/einsum")
        shapes = self.einsum_shapes

        def traced(subscripts, *operands, **kwargs):
            shapes[subscripts, tuple([getattr(a, "shape", None) or numpy.shape(a)
                                      for a in operands])] += 1
            idx = self._open(nid)
            try:
                return einsum(subscripts, *operands, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr, name, detail=None):
        """Replace ``module.attr`` in every weakf namespace that imported it."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, detail)
        for mod in self.modules.values():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, traced)

    def install(self):
        m = self.modules
        rep, cat, sub, smp = m["report"], m["catalog"], m["submanifold"], m["sampling"]
        fst, cal, cls, ch = m["fstructure"], m["calculus"], m["classifiers"], m["charts"]
        self._patch_function(rep, "run_suite", "report/run_suite")
        self._patch_function(rep, "render_json", "report/render_json")
        self._patch_function(cat, "make_example", "catalog/make_example")
        for fn in ("induce_structure", "frame_check", "gauss_split_residual",
                   "thsubm_check", "lemma_parallel_claim"):
            self._patch_function(sub, fn, f"submanifold/{fn}")
        self._set(sub._AmbientPoint, "__init__", self.wrap(
            sub._AmbientPoint.__init__, "submanifold/_AmbientPoint"))
        self._set(ch.Chart, "sample", self.wrap(ch.Chart.sample, "sampling/Chart.sample"))
        self._patch_function(smp, "build_test_vectors", "sampling/build_test_vectors")
        self._set(ch.SmoothField, "jet", self._wrap_jet(ch.SmoothField.jet))
        self._set(fst.PackFrame, "__init__", self.wrap(
            fst.PackFrame.__init__, "fstructure/PackFrame"))
        self._set(fst.PackFrame, "nijenhuis_ff", self.wrap(
            fst.PackFrame.nijenhuis_ff, "fstructure/nijenhuis_ff"))
        self._patch_function(fst, "axioms_residual", "fstructure/axioms_residual")
        for attr, val in list(vars(cal).items()):
            if (isinstance(val, types.FunctionType) and not attr.startswith("_")
                    and val.__module__ == cal.__name__):
                self._patch_function(cal, attr, f"calculus/{attr}")
        self._patch_function(cls, "class_residual", "classifiers/class_residual",
                             detail=lambda pack, p, tag, frame=None: tag)
        self._patch_function(cls, "theorem_check", "classifiers/theorem_check",
                             detail=lambda pack, p, which, *a, **k: which)
        self._patch_function(cls, "frame_residuals", "classifiers/frame_residuals")
        self._patch_function(cls, "q_parallel_residual",
                             "classifiers/q_parallel_residual")
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update(vars(numpy))
        proxy.einsum = self._wrap_einsum(numpy.einsum)
        for name in EINSUM_CALLERS:
            self._set(m[name], "np", proxy)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _split(name):
    layer, _, rest = name.partition("/")
    func, _, detail = rest.partition(":")
    return layer, func, detail


def layer_metrics(tracer, wall, points, class_tags, theorem_checks):
    """Per-layer metrics of one traced round that took ``wall`` seconds."""
    spans = tracer.spans
    parsed = [_split(n) for n in tracer.names]
    child = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start

    total = Counter()        # (layer, func[, detail]) -> inclusive seconds
    self_func = Counter()    # (layer, func) -> self seconds
    calls = Counter()
    self_layer = dict.fromkeys(LAYERS, 0.0)
    suite = Counter()
    covered = 0.0
    outer_calculus = [0, 0.0]
    order2_outside_theorems = 0
    for i, (nid, start, end, parent) in enumerate(spans):
        layer, func, detail = parsed[nid]
        dur = end - start
        self_layer[layer] += dur - child[i]
        self_func[layer, func] += dur - child[i]
        total[layer, func] += dur
        total[layer, func, detail] += dur
        calls[layer, func] += 1
        calls[layer, func, detail] += 1
        if parent < 0:
            covered += dur
            continue
        p_layer, p_func, _ = parsed[spans[parent][0]]
        if layer == "calculus" and p_layer != "calculus":
            outer_calculus[0] += 1
            outer_calculus[1] += dur
        if p_func == "run_suite":
            for name, funcs in SUITE_FUNCTIONS.items():
                if func in funcs:
                    suite[name] += dur
        if func.endswith("jet") and detail == "o2":
            up = parent
            while up >= 0 and parsed[spans[up][0]][1] != "theorem_check":
                up = spans[up][3]
            order2_outside_theorems += up < 0

    jet_calls = calls["charts", "jet"] + calls["submanifold", "pullback_jet"]
    out = {}
    for name in SUITE_FUNCTIONS:
        out[f"report.suite.{name}_s"] = (suite[name], "s")
    out["report.render_s"] = (total["report", "render_json"], "s")
    out["catalog.build_s"] = (total["catalog", "make_example"], "s")
    out["sampling.chart_sample_s"] = (total["sampling", "Chart.sample"], "s")
    out["sampling.test_vector_builds"] = (calls["sampling", "build_test_vectors"], "count")
    out["sampling.test_vector_s"] = (total["sampling", "build_test_vectors"], "s")
    out["charts.jet_s"] = (self_func["charts", "jet"], "s")
    out["charts.jet_calls_per_point"] = (jet_calls / points, "1/point")
    out["charts.jet_order2_calls"] = (
        calls["charts", "jet", "o2"] + calls["submanifold", "pullback_jet", "o2"], "count")
    out["charts.jet_order2_calls_outside_theorems"] = (order2_outside_theorems, "count")
    out["charts.jet_distinct_ratio"] = (
        len(tracer.jet_keys) / jet_calls if jet_calls else 0.0, "ratio")
    out["submanifold.pullback_s"] = (self_func["submanifold", "pullback_jet"], "s")
    out["submanifold.pullback_calls"] = (calls["submanifold", "pullback_jet"], "count")
    out["submanifold.ambient_builds_per_point"] = (
        calls["submanifold", "_AmbientPoint"] / points, "1/point")
    out["submanifold.ambient_s"] = (total["submanifold", "_AmbientPoint"], "s")
    out["fstructure.frame_builds"] = (calls["fstructure", "PackFrame"], "count")
    out["fstructure.axioms_calls"] = (calls["fstructure", "axioms_residual"], "count")
    out["fstructure.axioms_s"] = (total["fstructure", "axioms_residual"], "s")
    out["fstructure.nijenhuis_calls_per_point"] = (
        calls["fstructure", "nijenhuis_ff"] / points, "1/point")
    out["fstructure.nijenhuis_s"] = (total["fstructure", "nijenhuis_ff"], "s")
    out["calculus.kernel_calls"] = (outer_calculus[0], "count")
    out["calculus.kernel_s"] = (outer_calculus[1], "s")
    out["calculus.riemann_calls"] = (calls["calculus", "riemann_from_jets"], "count")
    out["numpy.einsum_calls"] = (calls["numpy.einsum", "einsum"], "count")
    out["numpy.einsum_s"] = (total["numpy.einsum", "einsum"], "s")
    out["numpy.einsum_flops"] = (
        sum(einsum_flops(sub, shapes) * n
            for (sub, shapes), n in tracer.einsum_shapes.items()), "flop")
    for tag in class_tags:
        out[f"classifiers.class.{tag}_s"] = (total["classifiers", "class_residual", tag], "s")
    for which in theorem_checks:
        out[f"classifiers.theorem.{which}_s"] = (
            total["classifiers", "theorem_check", which], "s")
    out["classifiers.frame_residuals_s"] = (total["classifiers", "frame_residuals"], "s")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (self_layer[layer], "s")
    out["trace.wall_s"] = (wall, "s")
    out["trace.uncovered_s"] = (wall - covered, "s")
    out["trace.spans"] = (len(spans), "count")
    return out


def span_problems(spans, start, wall, tol=1e-9):
    """Faults in a round's spans that would make the self times wrong.

    Every span must end after it starts, lie inside its parent (a root span
    inside the round, which began at ``start`` and took ``wall`` seconds)
    and start after its previous sibling ended. Then every self time is
    >= 0 and the uncovered remainder lies in [0, wall].
    """
    bad = Counter()
    last_end = {}            # parent index -> end of its latest child so far
    for nid, s, e, parent in spans:
        lo, hi = (start, start + wall) if parent < 0 else spans[parent][1:3]
        bad["end before they start"] += e < s
        bad["lie outside their parent"] += s < lo - tol or e > hi + tol
        bad["overlap their previous sibling"] += s < last_end.get(parent, lo) - tol
        last_end[parent] = e
    return [f"{n} of {len(spans)} spans {what}" for what, n in bad.items() if n]

