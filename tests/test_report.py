"""Report assembly: the formula registry and the independence of suites."""

import pytest

from weakf import report
from weakf.report import SUITES, SuiteConfig, run_suite

EXAMPLES = (
    ("flat_pack", {}),
    ("rotated_pack", {}),
    ("product_pack", {"n": 1, "s": 2}),
    ("sasakian_s3", {}),
    ("hypersphere", {"n": 1}),
    ("hypersphere", {"n": 1, "ambient_skew": "weak"}),
    ("linear_subspace", {"n": 1, "s": 2}),
)
SAMPLES = 6


def _suites(example, params, suites):
    cfg = SuiteConfig(example=example, params=params, suites=suites,
                      samples=SAMPLES)
    return run_suite(cfg)["suites"]


@pytest.fixture(scope="module")
def full_runs():
    """All-suite entries of every example, and the formula keys looked up."""
    used = set()

    class Recording(dict):
        def __getitem__(self, key):
            used.add(key)
            return super().__getitem__(key)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "FORMULAS", Recording(report.FORMULAS))
        runs = [_suites(ex, params, SUITES) for ex, params in EXAMPLES]
    return runs, used


def test_every_formula_row_is_emitted(full_runs):
    runs, used = full_runs
    assert used == set(report.FORMULAS)
    for suites in runs:
        for entries in suites.values():
            for e in entries:
                assert e["formula"], e["identity"]


def test_suite_entries_do_not_depend_on_other_suites(full_runs):
    runs, _ = full_runs
    for (ex, params), full in zip(EXAMPLES, runs):
        assert _suites(ex, params, SUITES[::-1]) == full, ex
        for suite in SUITES:
            alone = _suites(ex, params, (suite,))
            expected = {suite: full[suite]} if suite in full else {}
            assert alone == expected, (ex, params, suite)
