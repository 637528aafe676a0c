"""Per-point work is done once: counted with wrappers on a small run."""

import types
import weakref
from collections import Counter

import numpy as np
import pytest

from weakf import charts, classifiers, report, submanifold
from weakf.catalog import hypersphere
from weakf.fstructure import PackFrame, frame_axioms
from weakf.jets import Jet
from weakf.report import SUITES, SuiteConfig, run_suite

SAMPLES = 3


def _lift_order(coords):
    c = coords[0]
    if not isinstance(c, Jet):
        return 0
    return 1 if c.hess is None else 2


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


@pytest.fixture(scope="module")
def counted_run():
    counts = Counter()
    jet_keys = Counter()
    einsums = Counter()     # (subscripts, operand ids) -> calls
    operands = []           # keeps the operands alive so that ids stay unique
    inside_theorems = [0]

    pullback = submanifold._pullback
    jet = charts.SmoothField.jet
    theorem_check = report.theorem_check

    def counting_pullback(sub, coords, full):
        order = _lift_order(coords)
        counts[f"pullback_o{order}"] += 1
        counts[f"pullback_o{order}_full"] += full
        if order == 2 and not inside_theorems[0]:
            counts["order2_outside_theorems"] += 1
        return pullback(sub, coords, full)

    def counting_jet(self, p, order=2):
        jet_keys[id(self), order, tuple(float(c) for c in p)] += 1
        return jet(self, p, order)

    def flagged_theorem_check(*args, **kwargs):
        inside_theorems[0] += 1
        try:
            return theorem_check(*args, **kwargs)
        finally:
            inside_theorems[0] -= 1

    def counting_einsum(subscripts, *ops, **kwargs):
        operands.append(ops)
        einsums[subscripts, tuple(map(id, ops))] += 1
        return np.einsum(subscripts, *ops, **kwargs)

    counted_np = types.ModuleType("numpy")
    counted_np.__dict__.update(vars(np))
    counted_np.einsum = counting_einsum

    with pytest.MonkeyPatch.context() as mp:
        for cls, name in ((submanifold._AmbientPoint, "ambient"),
                          (PackFrame, "frame")):
            mp.setattr(cls, "__init__", _tracked(cls.__init__, [], counts, name))
        mp.setattr(submanifold, "_pullback", counting_pullback)
        mp.setattr(charts.SmoothField, "jet", counting_jet)
        mp.setattr(report, "theorem_check", flagged_theorem_check)
        mp.setattr(classifiers, "np", counted_np)
        rep = run_suite(SuiteConfig(example="hypersphere", params={"n": 1},
                                    suites=SUITES, samples=SAMPLES))
    return rep, counts, jet_keys, einsums


def test_one_ambient_build_per_sample(counted_run):
    rep, counts, _, _ = counted_run
    assert rep["overall"]["verdict"] == "pass"
    assert "submanifold" in rep["suites"]
    assert counts["ambient"] == SAMPLES


def test_one_order1_pullback_per_sample(counted_run):
    _, counts, jet_keys, _ = counted_run
    assert counts["pullback_o1"] == SAMPLES
    assert counts["pullback_o0"] == 0
    # every field is asked for once per point and order
    assert jet_keys and max(jet_keys.values()) == 1


def test_order2_pullback_only_inside_theorem_checks(counted_run):
    _, counts, _, _ = counted_run
    # thm32_chain runs on the Sasakian hypersphere: g alone, once per sample
    assert counts["pullback_o2"] == SAMPLES
    assert counts["pullback_o2_full"] == 0
    assert counts["order2_outside_theorems"] == 0


def test_one_point_state_alive_at_a_time(counted_run):
    _, counts, _, _ = counted_run
    assert counts["frame"] == SAMPLES
    # the previous point's frame and ambient point are gone by the next build
    assert counts["frame_alive_at_build"] == 0
    assert counts["ambient_alive_at_build"] == 0


def _calls(einsums, subscripts):
    return sum(n for (sub, _), n in einsums.items() if sub == subscripts)


def test_frame_residuals_once_per_sample(counted_run):
    _, _, _, einsums = counted_run
    # contractions that only frame_residuals and q_parallel_residual make
    assert _calls(einsums, "ikA,kl,jl->ijA") == SAMPLES
    assert _calls(einsums, "iB,kl,ilA->kAB") == SAMPLES


def test_nabla_f_pairs_once_per_sample(counted_run):
    _, _, _, einsums = counted_run
    # (D_V f)V and the (D_V Q) contractions share these subscripts; none of
    # them is built twice from the same arrays
    pairs = {ids: n for (sub, ids), n in einsums.items()
             if sub == "Ai,ikj,Bj->kAB"}
    assert len(pairs) >= SAMPLES
    assert max(pairs.values()) == 1


def test_kept_residual_is_fresh_for_other_vectors():
    pack = submanifold.induce_structure(hypersphere(n=1).obj, validate=False)
    p = pack.chart.sample(1, seed=5)[0]
    fr = PackFrame(pack, p, seed=5)
    residual = classifiers.nearly_c_residual
    own = residual(fr, fr.V)
    assert own > 1e-3       # the Sasakian sphere is not nearly C
    assert residual(fr, fr.V) == own
    other = 2.0 * fr.V
    fresh = residual(fr, other)
    assert fresh == residual.__wrapped__(fr, other)
    assert fresh != own


def test_kept_axioms_map_is_a_copy():
    pack = submanifold.induce_structure(hypersphere(n=1).obj, validate=False)
    fr = PackFrame(pack, pack.chart.sample(1, seed=5)[0], seed=5)
    first = frame_axioms(fr)
    first["f_skew"] = 1.0
    assert frame_axioms(fr)["f_skew"] < 1e-9
