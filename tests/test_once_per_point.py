"""Per-point work is done once: counted with wrappers on a small run."""

from collections import Counter

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


@pytest.fixture(scope="module")
def counted_run():
    counts = Counter()
    jet_keys = Counter()
    inside_theorems = [0]

    ambient_init = submanifold._AmbientPoint.__init__
    pullback = submanifold._pullback
    jet = charts.SmoothField.jet
    theorem_check = report.theorem_check

    def counting_init(self, sub, p):
        counts["ambient"] += 1
        ambient_init(self, sub, p)

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

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(submanifold._AmbientPoint, "__init__", counting_init)
        mp.setattr(submanifold, "_pullback", counting_pullback)
        mp.setattr(charts.SmoothField, "jet", counting_jet)
        mp.setattr(report, "theorem_check", flagged_theorem_check)
        rep = run_suite(SuiteConfig(example="hypersphere", params={"n": 1},
                                    suites=SUITES, samples=SAMPLES))
    return rep, counts, jet_keys


def test_one_ambient_build_per_sample(counted_run):
    rep, counts, _ = counted_run
    assert rep["overall"]["verdict"] == "pass"
    assert "submanifold" in rep["suites"]
    assert counts["ambient"] == SAMPLES


def test_one_order1_pullback_per_sample(counted_run):
    _, counts, jet_keys = counted_run
    assert counts["pullback_o1"] == SAMPLES
    assert counts["pullback_o0"] == 0
    # every field is asked for once per point and order
    assert jet_keys and max(jet_keys.values()) == 1


def test_order2_pullback_only_inside_theorem_checks(counted_run):
    _, counts, _ = counted_run
    # thm32_chain runs on the Sasakian hypersphere: g alone, once per sample
    assert counts["pullback_o2"] == SAMPLES
    assert counts["pullback_o2_full"] == 0
    assert counts["order2_outside_theorems"] == 0


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
