import dataclasses
import json
import subprocess
import sys

import pytest

from weakf import catalog, cli
from weakf.charts import SmoothField
from weakf.errors import InvalidExample
from weakf.jets import sqrt
from weakf.report import EvaluationFailure, SuiteConfig


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "weakf", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_verify_passes_on_sasakian(tmp_path):
    out_file = tmp_path / "report.json"
    proc = run_cli(
        [
            "verify", "--example", "sasakian_s3", "--suites", "all",
            "--samples", "6", "--seed", "42", "--format", "json",
            "--out", str(out_file),
        ]
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["overall"]["verdict"] == "pass"
    assert out_file.read_text(encoding="utf-8") == proc.stdout
    # every entry carries the formula of the identity checked
    for entries in report["suites"].values():
        for e in entries:
            assert e["identity"]
            assert e["formula"]
    assert report["config"]["seed"] == 42
    assert "1/2" in report["convention"] and "1/3" in report["convention"]


def test_unknown_example_is_usage_error():
    proc = run_cli(["verify", "--example", "mystery_manifold"])
    assert proc.returncode == 2
    assert "unknown example" in proc.stderr


def test_bad_parameter_is_usage_error():
    proc = run_cli(
        ["verify", "--example", "flat_pack", "--param", "bogus=1",
         "--samples", "2"]
    )
    assert proc.returncode == 2
    # fractional counts are rejected, not truncated; so are tolerances that
    # are not finite numbers >= 0, an empty sample, a negative seed, and a
    # suite list that is empty, names an unknown suite or repeats one
    for extra in (["--param", "n=1.5"], ["--param", "s=0.5"],
                  ["--tol-exact", "nan"], ["--tol-exact", "inf"],
                  ["--tol-curv", "-1e-6"], ["--samples", "0"],
                  ["--seed", "-1"], ["--suites", ","], ["--suites", "axiom"],
                  ["--suites", "axioms,axioms"], ["--suites", "axioms,,classes"]):
        code = cli.main(["verify", "--example", "hypersphere", "--param",
                         "n=1", "--samples", "2", *extra])
        assert code == 2, extra
    # a run that checks nothing: the submanifold suite on a pack
    assert cli.main(["verify", "--example", "flat_pack", "--suites",
                     "submanifold", "--samples", "2"]) == 2
    # the library refuses what the command line cannot express
    for bad in ({"suites": ()}, {"suites": ("axiom",)},
                {"suites": ("axioms", "axioms")}, {"samples": 2.5},
                {"samples": True}, {"seed": -1}, {"seed": 1.0},
                {"fmt": "xml"}):
        with pytest.raises(InvalidExample):
            SuiteConfig(example="flat_pack", **bad)
    # block weights must be finite and non-zero, one per complex block
    for example, params in (("flat_pack", ["n=2", "scales=nan,1"]),
                            ("product_pack", ["n=2", "s=1", "scales=inf,1"]),
                            ("flat_pack", ["n=2", "scales=0,1"]),
                            ("linear_subspace", ["n=1", "s=1", "scales=0"]),
                            ("flat_pack", ["n=2", "scales=2"])):
        argv = ["verify", "--example", example, "--samples", "2"]
        for p in params:
            argv += ["--param", p]
        assert cli.main(argv) == 2, params


def test_single_block_weight_from_command_line():
    # a bare number is the weight of the one block of n=1
    for example, params in (("flat_pack", ["n=1", "scales=2"]),
                            ("linear_subspace", ["n=1", "s=1", "scales=1.5"])):
        argv = ["verify", "--example", example, "--samples", "2"]
        for p in params:
            argv += ["--param", p]
        proc = run_cli(argv)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["object"]["params"]["scales"] == [
            float(params[-1].split("=")[1])]


def test_non_finite_blend_angle_is_usage_error():
    for t in ("nan", "inf"):
        proc = run_cli(["verify", "--example", "rotated_pack", "--param",
                        f"t={t}", "--samples", "2"])
        assert proc.returncode == 2, t
        assert "blend angle t" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


def test_rejected_parameters_are_usage_errors():
    proc = run_cli(
        ["verify", "--example", "rotated_pack", "--param", "t=0.7853981633974483",
         "--samples", "2"]
    )
    assert proc.returncode == 2
    assert "positive-definite" in proc.stderr


def test_unknown_suite_is_usage_error():
    proc = run_cli(
        ["verify", "--example", "flat_pack", "--suites", "axioms,banana"]
    )
    assert proc.returncode == 2


def test_internal_failure_exits_three(monkeypatch):
    def boom(config):
        raise EvaluationFailure("axioms[point 0]", RuntimeError("nan"))

    monkeypatch.setattr(cli, "run_suite", boom)
    code = cli.main(
        ["verify", "--example", "flat_pack", "--samples", "2"]
    )
    assert code == 3


def test_component_function_error_exits_three(monkeypatch, capsys):
    # a metric that leaves its domain (sqrt of a negative coordinate) on
    # part of the chart
    def sqrt_pack():
        cat = catalog.flat_pack(n=1, s=1)
        g = SmoothField(cat.obj.chart, "metric", lambda u: [
            [sqrt(u[0]), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        return dataclasses.replace(cat, obj=dataclasses.replace(cat.obj, g=g))

    monkeypatch.setitem(catalog.BUILDERS, "sqrt_pack", sqrt_pack)
    code = cli.main(["verify", "--example", "sqrt_pack", "--samples", "8"])
    assert code == 3
    err = capsys.readouterr().err
    assert "axioms[point" in err
    assert "ValueError: math domain error" in err


def test_json_byte_identical_across_runs():
    args = [
        "verify", "--example", "sasakian_s3", "--suites", "all",
        "--samples", "5", "--seed", "42", "--format", "json",
    ]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_text_format_renders_table():
    proc = run_cli(
        ["verify", "--example", "product_pack", "--param", "n=1",
         "--param", "s=2", "--suites", "classes", "--samples", "4",
         "--format", "text"]
    )
    assert proc.returncode == 0
    assert "overall: PASS" in proc.stdout
    assert "weak_nearly_C" in proc.stdout


def test_classes_suite_reports_failing_undeclared_class():
    proc = run_cli(
        ["verify", "--example", "product_pack", "--param", "n=1",
         "--param", "s=2", "--suites", "classes", "--samples", "4",
         "--format", "json"]
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    entries = {e["identity"]: e for e in report["suites"]["classes"]}
    assert entries["weak_nearly_C"]["verdict"] == "pass"
    assert entries["weak_nearly_C"]["counted"]
    assert entries["weak_almost_S"]["verdict"] == "fail"
    assert not entries["weak_almost_S"]["counted"]
    assert entries["weak_almost_S"]["max_residual"] >= 0.5


def test_skipped_entries_note_hypothesis():
    proc = run_cli(
        ["verify", "--example", "flat_pack", "--suites", "theorems",
         "--samples", "3", "--format", "json"]
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    entries = {e["identity"]: e for e in report["suites"]["theorems"]}
    assert entries["thm01_i"]["verdict"] == "skipped"
    assert "hypothesis failed" in entries["thm01_i"]["note"]
