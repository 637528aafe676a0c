"""Per-point work is done once: counted with wrappers on a small run."""

import types
import weakref
from collections import Counter
from functools import cached_property

import numpy as np
import pytest

import oracles
from weakf import calculus, charts, classifiers, fstructure, report, submanifold
from weakf.catalog import hypersphere
from weakf.fstructure import PackFrame, frame_axioms
from weakf.report import SUITES, SuiteConfig, run_suite

SAMPLES = 3

# Frame arrays that the contraction counts recognise as operands, by the
# PackFrame attribute that builds them.
FRAME_ARRAYS = {
    "tv": {"V": lambda tv: tv.vectors},
    "_jets": {"xi0": lambda j: j["xi"][0], "xi1": lambda j: j["xi"][1]},
    "d_basis": {"d_basis": lambda a: a},
    "deta": {"deta": lambda a: a},
    "nabla_f": {"nabla_f": lambda a: a},
    "nabla_q": {"nabla_q": lambda a: a},
    "nabla_xi": {"nabla_xi": lambda a: a},
}


def _tracked(init, refs, counts, name):
    """``init`` that records the most objects of its class alive at a build."""
    def tracking_init(self, *args, **kwargs):
        alive = sum(r() is not None for r in refs)
        counts[f"{name}_alive_at_build"] = max(
            counts[f"{name}_alive_at_build"], alive)
        counts[name] += 1
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)
    return tracking_init


def _counting(fn, counts, name, when=lambda *args: True):
    """``fn`` that adds one to ``counts[name]`` per call that ``when`` accepts."""
    def counted(*args, **kwargs):
        counts[name] += bool(when(*args, **kwargs))
        return fn(*args, **kwargs)
    return counted


def _counted_property(cls, attr, counts):
    """Cached property ``cls.attr`` that counts its builds under ``attr``."""
    prop = vars(cls)[attr]
    rec = cached_property(_counting(prop.func, counts, attr))
    rec.__set_name__(cls, attr)
    return rec


def _is_identity(ap, v):
    return v.shape == (len(v), len(v)) and np.array_equal(v, np.eye(len(v)))


def _recording(prop, picks, names, alive):
    """``prop`` (a cached property) that names the arrays it builds."""
    def get(fr):
        val = prop.func(fr)
        for name, pick in picks.items():
            arr = pick(val)
            alive.append(arr)
            names[id(arr)] = name
        return val
    rec = cached_property(get)
    rec.__set_name__(PackFrame, prop.attrname)
    return rec


@pytest.fixture(scope="module")
def counted_run():
    counts = Counter()
    jet_keys = Counter()
    contractions = Counter()    # operand ids -> calls, for every contraction
    names = {}                  # id -> name of each recorded frame array
    alive = []                  # keeps arrays alive so that ids stay unique
    inside_theorems = [0]

    jet = charts.SmoothField.jet
    theorem_check = report.theorem_check
    h_matrix = submanifold.h_matrix

    def counting_jet(self, p, order=2):
        jet_keys[id(self), order, tuple(float(c) for c in p)] += 1
        counts["induced_jets"] += self.name.startswith("induced_")
        if order == 2:
            where = "inside" if inside_theorems[0] else "outside"
            counts[f"order2_{where}_theorems"] += 1
            counts[f"order2_field:{self.name}"] += 1
        return jet(self, p, order)

    def flagged_theorem_check(*args, **kwargs):
        inside_theorems[0] += 1
        try:
            return theorem_check(*args, **kwargs)
        finally:
            inside_theorems[0] -= 1

    def counting_h_matrix(ap, v):
        counts["h_matrix_on_V"] += names.get(id(v)) == "V"
        return h_matrix(ap, v)

    def operand_id(a):
        # a transposed view of a frame array stands for the array itself
        base = getattr(a, "base", None)
        if id(a) not in names and id(base) in names and a.size == base.size:
            return id(base)
        return id(a)

    def counting(contract, skip=0):
        def counted(*args, **kwargs):
            ops = [a for a in args[skip:] if isinstance(a, np.ndarray)]
            alive.append(ops)
            contractions[tuple(map(operand_id, ops))] += 1
            return contract(*args, **kwargs)
        return counted

    counted_np = types.ModuleType("numpy")
    counted_np.__dict__.update(vars(np))
    counted_np.einsum = counting(np.einsum, skip=1)
    counted_np.tensordot = counting(np.tensordot)

    with pytest.MonkeyPatch.context() as mp:
        for cls, name in ((submanifold._AmbientPoint, "ambient"),
                          (PackFrame, "frame")):
            mp.setattr(cls, "__init__", _tracked(cls.__init__, [], counts, name))
        for attr, picks in FRAME_ARRAYS.items():
            mp.setattr(PackFrame, attr, _recording(
                vars(PackFrame)[attr], picks, names, alive))
        for name in ("metric_inverse", "christoffel_from_jets"):
            mp.setattr(calculus, name, _counting(
                getattr(calculus, name), counts, name))
        mp.setattr(submanifold, "ambient_nearly_kahler_residual", _counting(
            submanifold.ambient_nearly_kahler_residual, counts, "nearly_kahler"))
        ap_cls = submanifold._AmbientPoint
        mp.setattr(ap_cls, "shape_operators", _counted_property(
            ap_cls, "shape_operators", counts))
        mp.setattr(ap_cls, "ambient_derivative_pairs", _counting(
            ap_cls.ambient_derivative_pairs, counts, "coordinate_pairs",
            when=_is_identity))
        mp.setattr(submanifold, "h_matrix", counting_h_matrix)
        mp.setattr(charts.SmoothField, "jet", counting_jet)
        mp.setattr(report, "theorem_check", flagged_theorem_check)
        for mod in (classifiers, fstructure, submanifold):
            mp.setattr(mod, "np", counted_np)
            mp.setattr(mod, "pair_form", counting(getattr(
                mod, "pair_form", None)), raising=False)
        rep = run_suite(SuiteConfig(example="hypersphere", params={"n": 1},
                                    suites=SUITES, samples=SAMPLES))

    def named(*operands):
        """{operand ids: calls} of the contractions of these frame arrays."""
        return {ids: n for ids, n in contractions.items()
                if tuple(names.get(i) for i in ids) == operands}

    return rep, counts, jet_keys, named


def test_one_ambient_build_per_sample(counted_run):
    rep, counts, _, _ = counted_run
    assert rep["overall"]["verdict"] == "pass"
    assert "submanifold" in rep["suites"]
    assert counts["ambient"] == SAMPLES


def test_one_order1_pullback_per_sample(counted_run):
    _, counts, jet_keys, _ = counted_run
    # the induced pack's jets come in closed form from the one ambient point
    # per sample: no induced field is differentiated by SmoothField.jet
    assert counts["ambient"] == SAMPLES
    assert counts["induced_jets"] == 0
    # every field is asked for once per point and order
    assert jet_keys and max(jet_keys.values()) == 1


def test_order2_pullback_only_inside_theorem_checks(counted_run):
    _, counts, _, _ = counted_run
    # thm32_chain runs on the Sasakian hypersphere: the Gauss equation takes
    # one order-2 jet of the ambient metric per sample, inside the check
    assert counts["order2_inside_theorems"] == SAMPLES
    assert counts["order2_outside_theorems"] == 0
    assert {k for k in counts if k.startswith("order2_field:")} == {
        "order2_field:euclidean"}


def test_killing_residual_once_per_frame():
    # the f_K_contact class, prop1 and the gates of fk_contact_nabla and
    # thm32_chain all read (L_xi g)(V, V) on sasakian_s3 (s = 1)
    lie, counts = [], Counter()
    prop = vars(PackFrame)["lie_g_xi"]

    def recording(fr):
        lie.append(prop.func(fr))
        return lie[-1]

    def counting_pair_form(t, X, Y):
        counts["killing"] += any(
            t is a or getattr(t, "base", None) is a for a in lie)
        return pair_form(t, X, Y)

    rec = cached_property(recording)
    rec.__set_name__(PackFrame, "lie_g_xi")
    pair_form = classifiers.pair_form
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PackFrame, "lie_g_xi", rec)
        mp.setattr(classifiers, "pair_form", counting_pair_form)
        rep = run_suite(SuiteConfig(example="sasakian_s3", suites=SUITES,
                                    samples=SAMPLES))
    assert rep["overall"]["verdict"] == "pass"
    assert len(lie) == SAMPLES
    assert counts["killing"] == SAMPLES


def test_one_point_state_alive_at_a_time(counted_run):
    _, counts, _, _ = counted_run
    assert counts["frame"] == SAMPLES
    # the previous point's frame and ambient point are gone by the next build
    assert counts["frame_alive_at_build"] == 0
    assert counts["ambient_alive_at_build"] == 0


def test_frame_residuals_once_per_sample(counted_run):
    _, _, _, named = counted_run
    # contractions that only frame_residuals and q_parallel_residual make:
    # the Reeb brackets, and (D_V Q) on the contact basis
    assert sum(named("xi0", "xi1").values()) == SAMPLES
    assert sum(named("nabla_q", "V", "d_basis").values()) == SAMPLES


def test_nabla_f_pairs_once_per_sample(counted_run):
    _, _, _, named = counted_run
    # (D_V f)V and the (D_V Q) contractions: none of them is built twice from
    # the same arrays
    pairs = {**named("nabla_f", "V", "V"), **named("nabla_q", "V", "V"),
             **named("nabla_q", "V", "d_basis")}
    assert len(pairs) >= SAMPLES
    assert max(pairs.values()) == 1


def test_shared_contractions_once_per_sample(counted_run):
    _, _, _, named = counted_run
    # d eta(V, V), D_V xi and D_xi xi each serve several checks at a point
    for operands in (("deta", "V", "V"), ("nabla_xi", "V"),
                     ("nabla_xi", "xi0")):
        assert sum(named(*operands).values()) == SAMPLES, operands


def test_h_matrix_once_per_sample(counted_run):
    _, counts, _, _ = counted_run
    # both thsubm cases read h(V, V) at a point
    assert counts["h_matrix_on_V"] == SAMPLES


def test_inverse_and_christoffel_once_per_metric(counted_run):
    _, counts, _, _ = counted_run
    # one g^-1 and Gamma for the induced metric, one for the ambient metric;
    # the curvature reads the frame's
    assert counts["metric_inverse"] == 2 * SAMPLES
    assert counts["christoffel_from_jets"] == 2 * SAMPLES


def test_ambient_point_quantities_once_per_sample(counted_run):
    _, counts, _, _ = counted_run
    # both thsubm cases read the shape operators and the gate; the Gauss
    # split and the tangential expansion read D on coordinate pairs
    assert counts["shape_operators"] == SAMPLES
    assert counts["nearly_kahler"] == SAMPLES
    assert counts["coordinate_pairs"] == SAMPLES


def test_pack_metric_inverse_once_per_sample():
    counts = Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calculus, "metric_inverse", _counting(
            calculus.metric_inverse, counts, "metric_inverse"))
        rep = run_suite(SuiteConfig(example="sasakian_s3", suites=SUITES,
                                    samples=SAMPLES))
    assert rep["overall"]["verdict"] == "pass"
    assert counts["metric_inverse"] == SAMPLES


def test_kept_residual_is_fresh_for_other_vectors():
    sub = hypersphere(n=1).obj
    pack = submanifold.induce_structure(sub, validate=False)
    p = pack.chart.sample(1, seed=5)[0]
    fr = oracles.frame(pack, p, sub, seed=5)
    residual = classifiers.nearly_c_residual
    own = residual(fr, fr.V)
    assert own > 1e-3       # the Sasakian sphere is not nearly C
    assert residual(fr, fr.V) == own
    other = 2.0 * fr.V
    fresh = residual(fr, other)
    assert fresh == residual.__wrapped__(fr, other)
    assert fresh != own


def test_kept_axioms_map_is_a_copy():
    sub = hypersphere(n=1).obj
    pack = submanifold.induce_structure(sub, validate=False)
    fr = oracles.frame(pack, pack.chart.sample(1, seed=5)[0], sub, seed=5)
    first = frame_axioms(fr)
    first["f_skew"] = 1.0
    assert frame_axioms(fr)["f_skew"] < 1e-9
