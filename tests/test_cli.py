import dataclasses
import json
import subprocess
import sys
import warnings
from functools import cached_property

import numpy as np
import pytest

import report_digests
from weakf import catalog, charts, classifiers, cli, fstructure
from weakf.charts import SmoothField, constant_field
from weakf.errors import (DegenerateMetricError, DegenerateOperatorError,
                          InvalidExample)
from weakf.jets import exp, sqrt
from weakf.report import MAX_SAMPLES, EvaluationFailure, SuiteConfig


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


def test_bad_parameter_is_usage_error(tmp_path):
    proc = run_cli(
        ["verify", "--example", "flat_pack", "--param", "bogus=1",
         "--samples", "2"]
    )
    assert proc.returncode == 2
    # fractional counts are rejected, not truncated; so are tolerances that
    # are not finite numbers >= 0, an empty sample or one above
    # MAX_SAMPLES, a negative seed, and a suite list that is empty, names an
    # unknown suite or repeats one; a parameter named like make_example's
    # own argument is the builder's to refuse
    for extra in (["--param", "n=1.5"], ["--param", "s=0.5"],
                  ["--tol-exact", "nan"], ["--tol-exact", "inf"],
                  ["--tol-curv", "-1e-6"], ["--samples", "0"],
                  ["--seed", "-1"], ["--suites", ","], ["--suites", "axiom"],
                  ["--suites", "axioms,axioms"], ["--suites", "axioms,,classes"],
                  ["--param", "n=2"], ["--samples", str(MAX_SAMPLES + 1)],
                  ["--samples", "1000000000000"], ["--param", "name=x"],
                  ["--param", "spec=x"]):
        code = cli.main(["verify", "--example", "hypersphere", "--param",
                         "n=1", "--samples", "2", *extra])
        assert code == 2, extra
    # an --out path that cannot be written: named on stderr, no traceback
    missing = tmp_path / "nonexistent" / "r.json"
    proc = run_cli(["verify", "--example", "flat_pack", "--samples", "2",
                    "--out", str(missing)])
    assert proc.returncode == 2
    assert str(missing) in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    # an integer beyond the float range is refused by name, and does not
    # end in an OverflowError traceback; nor does such a matrix entry
    huge = "9" * 400
    for example, param in (("flat_pack", f"n={huge}"), ("flat_pack", f"s={huge}"),
                           ("flat_pack", f"scales={huge}"),
                           ("rotated_pack", f"t={huge}")):
        proc = run_cli(["verify", "--example", example, "--param", param,
                        "--samples", "2"])
        assert proc.returncode == 2, (param, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
    with pytest.raises(InvalidExample, match="rotation matrix entry must be finite"):
        catalog.rotated_pack(n=1, rotation=[[-int(huge), 0], [0, 1]])
    # a run that checks nothing: the submanifold suite on a pack
    assert cli.main(["verify", "--example", "flat_pack", "--suites",
                     "submanifold", "--samples", "2"]) == 2
    # the library refuses what the command line cannot express, with no
    # coercion: the example is a name, and the parameters map names
    for bad in ({"suites": ()}, {"suites": ("axiom",)},
                {"suites": ("axioms", "axioms")}, {"samples": 2.5},
                {"samples": True}, {"seed": -1}, {"seed": 1.0},
                {"samples": MAX_SAMPLES + 1}, {"fmt": "xml"},
                {"params": None}, {"params": [("n", 2)]}, {"params": {1: 2}},
                {"example": ["flat_pack"]}):
        with pytest.raises(InvalidExample):
            SuiteConfig(**{"example": "flat_pack", **bad})
    SuiteConfig(example="flat_pack", samples=MAX_SAMPLES)     # the bound holds
    # a numpy integer is an integer, and is kept as an int
    config = SuiteConfig(example="flat_pack", samples=np.int64(4), seed=np.int64(7))
    assert (type(config.samples), type(config.seed)) == (int, int)
    assert (config.samples, config.seed) == (4, 7)
    for bad in ({"seed": np.float64(7.0)}, {"samples": np.True_}):
        with pytest.raises(InvalidExample):
            SuiteConfig(example="flat_pack", **bad)
    # a tolerance is a finite number: a bool is not written to the report as
    # true, and a string does not escape as a bare TypeError
    for name, value in (("tol_exact", True), ("tol_exact", "1e-9"),
                        ("tol_curvature", np.True_), ("tol_curvature", None)):
        with pytest.raises(InvalidExample, match=f"^{name} must be a number"):
            SuiteConfig(example="flat_pack", **{name: value})
    # block weights must be finite and above the f_rank floor, one per
    # complex block; n and s are integers on the examples that take them; a
    # key is given at most once, even with the same value
    for example, params in (("flat_pack", ["n=2", "scales=nan,1"]),
                            ("product_pack", ["n=2", "s=1", "scales=inf,1"]),
                            ("flat_pack", ["n=2", "scales=0,1"]),
                            ("linear_subspace", ["n=1", "s=1", "scales=0"]),
                            ("flat_pack", ["n=2", "scales=2"]),
                            ("flat_pack", ["n=1.5"]),
                            ("product_pack", ["n=1", "s=0.5"]),
                            ("flat_pack", ["n=1", "n=1"])):
        argv = ["verify", "--example", example, "--samples", "2"]
        for p in params:
            argv += ["--param", p]
        assert cli.main(argv) == 2, params


def test_command_line_defaults_are_the_config_defaults():
    # each run default is defined once: the parser reads SuiteConfig's, and
    # SuiteConfig's exact tolerance is the gates' TOL_EXACT
    args = cli.build_parser().parse_args(["verify", "--example", "flat_pack"])
    fields = {f.name: f.default for f in dataclasses.fields(SuiteConfig)}
    for flag, name in (("samples", "samples"), ("seed", "seed"),
                       ("tol_exact", "tol_exact"), ("tol_curv", "tol_curvature"),
                       ("format", "fmt")):
        assert getattr(args, flag) is fields[name], flag
    assert fields["tol_exact"] is classifiers.TOL_EXACT


def test_non_numeric_parameter_is_named():
    # a word where a number is expected is refused by the parameter's name
    for params, message in (
            (["n=abc"], "error: n must be an integer, got 'abc'"),
            (["n=1,2"], "error: n must be an integer, got (1, 2)"),
            (["n=2", "s=two"], "error: s must be an integer, got 'two'"),
            (["n=2", "scales=1,abc"],
             "error: flat_pack block weight 'abc' in scales must be a number, "
             "got 'abc'")):
        argv = ["verify", "--example", "flat_pack", "--samples", "2"]
        for p in params:
            argv += ["--param", p]
        proc = run_cli(argv)
        assert proc.returncode == 2, params
        assert proc.stderr.strip() == message
        assert proc.stdout == ""


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


def test_overflowing_block_weight_is_usage_error():
    # Q f cubes a block weight and the squared g-norm of its residual raises
    # that to the sixth power: a weight whose sixth power overflows float64
    # is refused by name, before numpy can overflow
    ceil = float(np.finfo(float).max) ** (1 / 6)
    for example, n in (("flat_pack", ["n=1"]), ("product_pack", []),
                       ("linear_subspace", [])):
        for weight in ("1e120", f"{-1.01 * ceil!r}"):
            argv = ["verify", "--example", example, "--samples", "2"]
            for p in [*n, f"scales={weight}"]:
                argv += ["--param", p]
            proc = run_cli(argv)
            assert proc.returncode == 2, (example, weight, proc.stderr)
            assert f"block weight {float(weight)!r}" in proc.stderr
            assert "RuntimeWarning" not in proc.stderr
        # just under the ceiling every residual stays finite
        argv = ["verify", "--example", example, "--samples", "2", "--format",
                "json", "--param", f"scales={0.99 * ceil!r}"]
        for p in n:
            argv += ["--param", p]
        proc = run_cli(argv)
        assert proc.returncode in (0, 1), proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        report = json.loads(proc.stdout)
        assert all(isinstance(e["max_residual"], float)
                   for entries in report["suites"].values() for e in entries
                   if e["max_residual"] is not None)


def test_vanishing_block_weight_is_usage_error(capsys):
    # a block weight is a singular value of f on D: a weight that does not
    # exceed the f_rank axiom's floor can never pass it, so it is refused by
    # name instead of exiting 1 on a pack the catalog accepted. The values
    # stay off the exact boundary, where the floor test and the axioms' SVD
    # round differently.
    floor = fstructure._RANK_POSITIVE_FLOOR
    for example, n in (("flat_pack", ["n=1"]), ("product_pack", []),
                       ("linear_subspace", [])):
        for weight, code in (("1e-100", 2), ("1.0001e-6", 2), ("1e-5", 2),
                             ("-1e-5", 2), ("1e-4", 2), ("-1e-4", 2),
                             ("1.0001e-4", 0), ("-1.0001e-4", 0)):
            argv = ["verify", "--example", example, "--samples", "2"]
            for p in [*n, f"scales={weight}"]:
                argv += ["--param", p]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert cli.main(argv) == code, (example, weight)
            err = capsys.readouterr().err
            if code == 2:
                assert f"block weight {float(weight)!r}" in err
                assert f"{floor:.4e} < |weight|" in err
                assert "the f_rank floor" in err


def test_non_finite_blend_angle_is_usage_error():
    for t in ("nan", "inf"):
        proc = run_cli(["verify", "--example", "rotated_pack", "--param",
                        f"t={t}", "--samples", "2"])
        assert proc.returncode == 2, t
        assert "blend angle t" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
    # so is a non-finite Givens angle, named before numpy sees it
    for theta in ("nan", "inf"):
        proc = run_cli(["verify", "--example", "rotated_pack", "--param",
                        f"rotation=givens:0:2:{theta}", "--samples", "2"])
        assert proc.returncode == 2, theta
        assert f"givens angle must be finite, got {theta}" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
    # and a rotation matrix with non-finite entries, which the orthogonality
    # test alone would pass because NaN compares false
    with pytest.raises(InvalidExample, match="must be finite"):
        catalog.rotated_pack(n=1, rotation=np.full((2, 2), np.nan))


def test_rejected_parameters_are_usage_errors(capsys):
    # f's singular values on D are the square roots of Q's eigenvalues, so a
    # blend angle with lambda_min(Q) <= 1e-8 can never pass f_rank and is
    # refused by naming t. With the reflection, lambda_min(Q) = 1 - sin 2t,
    # 0 at t = pi/4.
    for lam, code in ((0.0, 2), (1e-9, 2), (3e-9, 2), (2e-8, 0)):
        t = float(np.arcsin(1.0 - lam) / 2)
        argv = ["verify", "--example", "rotated_pack", "--param", f"t={t!r}",
                "--samples", "2"]
        assert cli.main(argv) == code, lam
        err = capsys.readouterr().err
        if code == 2:
            assert f"blend angle t={t!r} gives Q" in err
            assert "positive-definite" in err
            assert "the square of the f_rank floor 1.0000e-04" in err


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


@pytest.mark.parametrize("suites, where", [("all", "axioms[point"),
                                           ("submanifold", "submanifold.frame[point")])
def test_failing_embedding_is_named_and_exits_three(monkeypatch, capsys,
                                                    suites, where):
    # an embedding that leaves its domain on part of the chart: the frame
    # stack reads the induced jets from the chunk's ambient stack, which is
    # built inside the first bundle that reads it
    def bad_sphere():
        cat = catalog.hypersphere(n=1)
        emb = cat.obj.embedding
        sub = dataclasses.replace(
            cat.obj, embedding=lambda u: [c * sqrt(u[0] - 0.8) for c in emb(u)])
        return dataclasses.replace(cat, obj=sub)

    monkeypatch.setitem(catalog.BUILDERS, "bad_sphere", bad_sphere)
    code = cli.main(["verify", "--example", "bad_sphere", "--suites", suites,
                     "--samples", "8"])
    assert code == 3
    err = capsys.readouterr().err
    assert where in err
    assert "ValueError: math domain error" in err


# How a metric component leaves its domain below a coordinate threshold c:
# a sqrt domain error, an overflow to inf, and an explicit raise.
def _sqrt_below(u, c):
    return sqrt(u[0] - c)


def _overflow_below(u, c):
    return 1.0 + exp(1e6 * (c - u[0]))


def _raise_below(u, c):
    if np.any(np.asarray(getattr(u[0], "val", u[0])) < c):
        raise RuntimeError("component function refused the point")
    return 1.0


@pytest.mark.parametrize("below, message", [
    (_sqrt_below, "ValueError: math domain error"),
    (_overflow_below, "ValueError: non-finite jet of field 'metric'"),
    (_raise_below, "RuntimeError: component function refused the point"),
])
def test_component_failing_at_a_later_point_is_named(monkeypatch, capsys,
                                                    below, message):
    # the metric fails at exactly one sample point k > 0: the stacked
    # evaluation of its chunk fails, and the point walk names point k
    chart = catalog.flat_pack(n=1, s=1).chart
    first = np.array(chart.sample(8, 42))[:, 0]
    k = int(np.argmin(first))
    assert k > 0
    c = 0.5 * (np.sort(first)[0] + np.sort(first)[1])

    def failing_pack():
        cat = catalog.flat_pack(n=1, s=1)
        g = SmoothField(cat.obj.chart, "metric", lambda u: [
            [below(u, c), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        return dataclasses.replace(cat, obj=dataclasses.replace(cat.obj, g=g))

    monkeypatch.setitem(catalog.BUILDERS, "failing_pack", failing_pack)
    code = cli.main(["verify", "--example", "failing_pack", "--samples", "8"])
    assert code == 3
    err = capsys.readouterr().err
    assert f"evaluation failed in axioms[point {k}]: {message}" in err
    assert "RuntimeWarning" not in err


def test_report_configurations_emit_no_runtime_warning():
    for argv in report_digests.CONFIGS:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report_digests.report_texts(argv.split(), 10, 42)


@pytest.mark.parametrize("suites", ["axioms", "classes"])
def test_indefinite_metric_is_named_and_exits_three(monkeypatch, capsys, suites):
    def indefinite_pack():
        cat = catalog.flat_pack(n=1, s=1)
        g = constant_field(cat.obj.chart, "metric", np.diag([1.0, -1.0, 1.0]))
        return dataclasses.replace(cat, obj=dataclasses.replace(cat.obj, g=g))

    monkeypatch.setitem(catalog.BUILDERS, "indefinite_pack", indefinite_pack)
    code = cli.main(["verify", "--example", "indefinite_pack", "--suites",
                     suites, "--samples", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{suites}" in err and "[point 0]" in err
    assert "DegenerateMetricError: degenerate metric at (" in err
    assert "smallest eigenvalue -1.000e+00" in err


# A pack broken at one sample point inside a chunk, K = 7 of 10: the point
# walk names that point, and the message is the one it gets alone.
K = 7


def _at_sample(u, p):
    """1.0 at the chart point ``p`` and 0.0 elsewhere, for float or jet
    coordinates ``u`` (a jet's value is a stack of points)."""
    vals = [np.asarray(getattr(c, "val", c)) for c in u]
    return np.logical_and.reduce([v == c for v, c in zip(vals, p)]) * 1.0


def _broken_at_k(n, s, field, kind, entries):
    """flat_pack(n, s) with ``field`` replaced by one of ``kind`` whose
    components are ``entries(u, at)``, ``at`` being _at_sample of sample K."""
    def build():
        cat = catalog.flat_pack(n=n, s=s)
        p = cat.chart.sample(10, 42)[K]

        def fn(u):
            # + 0 u_0: a jet, with the (mask-valued) constant as its value
            at = _at_sample(u, p)
            return [[e + 0.0 * u[0] for e in row] if isinstance(row, list)
                    else row + 0.0 * u[0] for row in entries(u, at)]

        new = SmoothField(cat.obj.chart, kind, fn)
        obj = cat.obj
        if field == "xi":
            obj = dataclasses.replace(obj, xi=(obj.xi[0], new))
        else:
            obj = dataclasses.replace(obj, **{field: new})
        return dataclasses.replace(cat, obj=obj)
    return build


def test_degenerate_errors_keep_their_names_and_messages():
    # one constructor for both; neither type catches the other
    for cls, head in ((DegenerateMetricError, "degenerate metric"),
                      (DegenerateOperatorError, "Q singular/indefinite")):
        err = cls(np.array([0.5, 1]), np.float64(-1e-3))
        assert (err.point, err.min_eigenvalue) == ((0.5, 1.0), -1e-3)
        assert f"{type(err).__name__}: {err}" == (
            f"{cls.__name__}: {head} at (0.5, 1.0): smallest eigenvalue "
            "-1.000e-03")
    assert not issubclass(DegenerateOperatorError, DegenerateMetricError)
    assert not issubclass(DegenerateMetricError, DegenerateOperatorError)


@pytest.mark.parametrize("n, s, field, kind, entries, message", [
    # g(e_2, e_2) = -1 at sample K
    (1, 1, "g", "metric", lambda u, at: [
        [1.0, 0.0, 0.0], [0.0, 1.0 - 2.0 * at, 0.0], [0.0, 0.0, 1.0]],
     "DegenerateMetricError: degenerate metric at ("),
    # Q = 0 on the contact distribution at sample K
    (1, 1, "Q", "tensor11", lambda u, at: [
        [1.0 - at, 0.0, 0.0], [0.0, 1.0 - at, 0.0], [0.0, 0.0, 1.0]],
     "DegenerateOperatorError: Q singular/indefinite at ("),
    # xi_2 = xi_1 = e_3 at sample K
    (1, 2, "xi", "vector", lambda u, at: [0.0, 0.0, at, 1.0 - at],
     "RuntimeError: Reeb fields are linearly dependent"),
], ids=["indefinite_metric", "degenerate_q", "dependent_reeb"])
def test_refusal_inside_a_chunk_names_its_point(monkeypatch, capsys, n, s,
                                               field, kind, entries, message):
    monkeypatch.setitem(catalog.BUILDERS, "broken_at_k",
                        _broken_at_k(n, s, field, kind, entries))
    code = cli.main(["verify", "--example", "broken_at_k", "--samples", "10"])
    assert code == 3
    err = capsys.readouterr().err
    assert f"evaluation failed in axioms[point {K}]: {message}" in err


def test_a_chunk_that_raises_is_walked_again_once(monkeypatch, capsys):
    # Q is degenerate at sample K of 10: the chunk's axioms map raises once,
    # and the walk of its points alone builds each point's map up to K,
    # where it raises again and is named
    sizes = []
    stack = fstructure.FrameStack
    axioms = vars(stack)["axioms"].func

    def counted(st):
        sizes.append(len(st.rows))
        return axioms(st)

    prop = cached_property(counted)
    prop.__set_name__(stack, "axioms")
    monkeypatch.setattr(stack, "axioms", prop)
    monkeypatch.setitem(catalog.BUILDERS, "broken_at_k", _broken_at_k(
        1, 1, "Q", "tensor11", lambda u, at: [
            [1.0 - at, 0.0, 0.0], [0.0, 1.0 - at, 0.0], [0.0, 0.0, 1.0]]))
    code = cli.main(["verify", "--example", "broken_at_k", "--samples", "10"])
    assert code == 3
    assert sizes == [10] + [1] * (K + 1)
    assert (f"evaluation failed in axioms[point {K}]: DegenerateOperatorError"
            in capsys.readouterr().err)


def test_failing_stack_of_a_point_that_skipped_does_not_stop_the_run(
        monkeypatch, capsys):
    # thm41 reads its chunk's Reeb curvature, so the chunk's order-2 metric
    # jet, at samples 0 and 1, and skips from sample 2 on. The order-2
    # stack of the first chunk holds sample K, where the metric refuses it:
    # sample K never asks for it, so the run is the one that point-sized
    # chunks give.
    samples = catalog.flat_pack(n=1, s=1).chart.sample(10, 42)
    refused = []

    def stack_fails():
        cat = catalog.flat_pack(n=1, s=1)
        g = cat.obj.g

        def fn(u):
            if getattr(u[0], "hess", None) is not None and any(
                    _at_sample(u, samples[K]).flat):
                refused.append(len(u[0].val))
                raise RuntimeError("order-2 metric jet refused at sample K")
            return g.fn(u)

        return dataclasses.replace(cat, obj=dataclasses.replace(
            cat.obj, g=dataclasses.replace(g, fn=fn)))

    def from_sample_2(st, tol):
        return "from_sample_2", np.where(
            st.rows.start + np.arange(len(st.rows)) >= 2, 1.0, 0.0)

    def thm41(st):
        return {"nabla_xi_zero": np.abs(st.reeb_curvature).max(axis=(1, 2, 3))}

    monkeypatch.setitem(catalog.BUILDERS, "stack_fails", stack_fails)
    monkeypatch.setitem(classifiers._GATES, "thm41", (from_sample_2,))
    monkeypatch.setitem(classifiers._THEOREMS, "thm41", thm41)
    outputs = []
    for chunk in (charts.CHUNK, 1):
        monkeypatch.setattr(charts, "CHUNK", chunk)
        assert cli.main(["verify", "--example", "stack_fails",
                         "--samples", "10"]) in (0, 1)
        outputs.append(capsys.readouterr().out)
    # only the stack of the whole chunk raised
    assert refused and set(refused) == {10}
    assert outputs[0] == outputs[1]
    entry = next(e for e in json.loads(outputs[0])["suites"]["theorems"]
                 if e["identity"] == "thm41")
    assert entry["verdict"] == "skipped" and "at point 2" in entry["note"]


def test_oversize_dimension_is_usage_error(capsys):
    for param in ("n=100000", "s=100000"):
        code = cli.main(["verify", "--example", "flat_pack", "--param", param])
        assert code == 2, param
        err = capsys.readouterr().err
        assert (f"flat_pack needs an ambient dimension 2n + 2s <= "
                f"{catalog.MAX_AMBIENT_DIM}, got 200") in err
        assert "Traceback" not in err


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
