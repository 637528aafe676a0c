"""Which report configurations each theorem bundle runs on rather than
skips (``tests/report_digests.py``, 10 samples, seed 42): the coverage of
the gated theorem checks by the catalog.

A bundle whose gate fails at some point skips for the whole run, so a
bundle either runs on a configuration or skips there. A new example that
brings a bundle to a configuration it did not run on changes the table
below on purpose; so does a change that makes a bundle skip where it ran.
"""

from report_digests import CONFIGS, run_config

import oracles
from weakf.classifiers import THEOREM_CHECKS

SAMPLES = 10
SEED = 42
TOL = 1e-9

# The S-structures with Q = id.
S_STRUCTURES_Q_ID = {
    "--example sasakian_s3",
    "--example sasakian_s3 --suites theorems,frames --tol-exact 1e-12"
    " --tol-curv 1e-8",
    "--example hypersphere --param n=1",
    "--example hypersphere --param n=2",
}
# The packs with constant fields on flat charts, where Gamma = 0 and the
# derivative of f is 0, intrinsic or induced.
CONSTANT_PACKS = {
    "--example flat_pack",
    "--example flat_pack --param n=2 --param s=2",
    "--example flat_pack --param n=2 --param s=2 --param scales=0.5,3",
    "--example rotated_pack",
    "--example rotated_pack --param t=0.1 --param rotation=givens:0:2:0.3",
    "--example rotated_pack --param n=4 --param s=2",
    "--example product_pack",
    "--example linear_subspace",
    "--example linear_subspace --param n=2 --param s=2",
}
OUTWARD_SPHERE = "--example hypersphere --param n=1 --param normal=outward"

RUNS_ON = {
    "prop1": S_STRUCTURES_Q_ID | CONSTANT_PACKS,
    "prop_normal": S_STRUCTURES_Q_ID | CONSTANT_PACKS | {OUTWARD_SPHERE},
    "fk_contact_nabla": S_STRUCTURES_Q_ID,
    "thm32_chain": S_STRUCTURES_Q_ID,
    "thm41": CONSTANT_PACKS,
    "thm01_i": S_STRUCTURES_Q_ID,
    "thm01_ii": S_STRUCTURES_Q_ID,
    "corollary_rigidity": S_STRUCTURES_Q_ID,
}

# The bundles that no configuration checks beyond an S-structure with
# Q = id: neither where Q != id nor on a pack that is nearly S and not S.
# A gap of the catalog, not of the bundles; an example that closes it
# takes its bundles off this list.
ONLY_ON_S_STRUCTURES_Q_ID = ("fk_contact_nabla", "thm32_chain", "thm01_i",
                             "thm01_ii", "corollary_rigidity")


def _runs_on():
    runs = {which: set() for which in THEOREM_CHECKS}
    for config in CONFIGS:
        report = run_config(config.split(), SAMPLES, SEED)
        for entry in report["suites"].get("theorems", ()):
            which = entry["identity"].split(".")[0]
            if entry["verdict"] != "skipped":
                runs[which].add(config)
    return runs


def test_each_theorem_bundle_runs_on_its_pinned_configurations():
    assert _runs_on() == RUNS_ON


def test_the_bundles_that_run_only_on_s_structures_with_q_id():
    for config in S_STRUCTURES_Q_ID:
        pack = oracles.config_example(config)
        st = oracles.stack(pack, pack.chart.sample(SAMPLES, SEED), SEED)
        assert st.s_structure_defining.max() <= TOL, config
        assert st.q_equals_id.max() <= TOL, config
    assert tuple(which for which in THEOREM_CHECKS
                 if RUNS_ON[which] <= S_STRUCTURES_Q_ID) == (
        ONLY_ON_S_STRUCTURES_Q_ID)
