"""Report assembly: the formula registry, the independence of suites, and
where a point's state is built."""

import ast
from pathlib import Path

import pytest

import weakf
from weakf import report
from weakf.errors import InvalidExample
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
            if suite not in full:
                # a run in which no requested suite applies is refused
                with pytest.raises(InvalidExample):
                    _suites(ex, params, (suite,))
                continue
            alone = _suites(ex, params, (suite,))
            assert alone == {suite: full[suite]}, (ex, params, suite)


# The only places that build a point's state: the runner builds one of each
# per point and every check takes them as arguments.
BUILDERS = {
    "PackFrame": {("report.py", "run_suite")},
    "_AmbientPoint": {("report.py", "run_suite"),
                      ("submanifold.py", "require_valid_frame")},
}


def _builds(node, module, where="<module>"):
    """(class, module, innermost enclosing function) of every build call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            f = child.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in BUILDERS:
                yield name, module, where
        inner = child.name if isinstance(child, ast.FunctionDef) else where
        yield from _builds(child, module, inner)


def test_point_state_is_built_only_by_the_runner():
    built = set()
    for path in Path(weakf.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        built.update(_builds(tree, path.name))
    for name, allowed in BUILDERS.items():
        assert {(m, fn) for n, m, fn in built if n == name} == allowed, name
