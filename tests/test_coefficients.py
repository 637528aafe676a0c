"""Coefficient-first residuals against the pair-level oracle.

The engine sums the terms of each bilinear identity as coefficients at the
point and contracts them with the test pairs once; ``oracles`` evaluates
every term on the test pairs and sums the pair values. Both must agree on
every report configuration and on the sheared packs, whose connection terms
are not zero.
"""

import numpy as np
import pytest
from report_digests import CONFIGS

import oracles
from weakf import catalog, classifiers
from weakf.sampling import pair_form
from weakf.submanifold import thsubm_check

# Both routes sum the same float64 products in another order; residuals reach
# ~50 (the h-display of the weak hypersphere), so the gate scales with them.
TOL = 1e-12
SAMPLES = 3

# The oracle of each stacked class part.
RESIDUALS = {"nearly_s_defining": "nearly_s_residual",
             "nearly_c_defining": "nearly_c_residual",
             "s_structure_defining": "s_structure_residual",
             "n1_zero": "normality_residual"}


def _close(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    return float(np.abs(np.asarray(got) - want).max()) <= TOL * scale


def _sheared_frames(params):
    pack = oracles.sheared_pack(catalog.flat_pack(**params).obj)
    return [oracles.frame(pack, p, seed=3, index=i)
            for i, p in enumerate(pack.chart.sample(SAMPLES, seed=3))]


@pytest.fixture(scope="module", params=[*CONFIGS, "sheared n=2 s=1",
                                        "sheared n=1 s=2"])
def frames(request):
    if request.param.startswith("sheared"):
        n, s = (int(w[-1]) for w in request.param.split()[1:])
        return _sheared_frames({"n": n, "s": s})
    return oracles.config_frames(request.param, SAMPLES)


def test_class_residuals_match_pair_oracle(frames):
    for fr in frames:
        for part, oracle in RESIDUALS.items():
            got = getattr(fr, part)
            assert _close(got, getattr(oracles, oracle)(fr, fr.V)), part


def test_nijenhuis_tensors_match_pair_oracle(frames):
    for fr in frames:
        assert _close(fr.nijenhuis_ff(), oracles.nijenhuis_ff(fr, fr.V))
        assert _close(pair_form(fr.n1_coeff, fr.V, fr.V), oracles.n1(fr, fr.V))


def test_thsubm_displays_match_pair_oracle(frames):
    for fr in frames:
        ap = oracles.ambient_of(fr)
        if ap is None:
            continue
        for case in ("i", "ii"):
            # the frame's row of its stack
            got = thsubm_check(fr._chunk, case)
            for key, want in oracles.thsubm_displays(ap, fr, case).items():
                assert _close(got[key][fr._k], want), (case, key)
