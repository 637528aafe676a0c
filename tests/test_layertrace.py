"""The layer tracer of bench/layertrace.py names a span after each public
check function it wraps, reading the arguments as the library takes them.
The runner calls those functions on each chunk's stack, so a traced run
names a span after every suite's checks, counts it to its suite, and times
each class and theorem bundle; the checks of one point's own stack, a
``PackFrame``, are named the same way.
"""

from pathlib import Path

from weakf import catalog, charts, classifiers, fstructure, report
from weakf.report import SuiteConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_names_a_span_per_frame_function(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace

    pack = catalog.sasakian_s3().obj
    p = pack.chart.sample(1, seed=42)[0]
    original = classifiers.class_residual
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        fr = fstructure.PackFrame(pack, p, seed=42)
        fstructure.axioms_residual(fr)
        classifiers.class_residual(pack, p, "S_structure", fr)
        classifiers.frame_residuals(fr)
        classifiers.q_parallel_residual(fr)
        classifiers.theorem_check(pack, p, "thm01_ii", fr)
        fr.nijenhuis_ff()
    finally:
        tracer.uninstall()
    assert classifiers.class_residual is original
    names = {tracer.names[span[0]] for span in tracer.spans}
    assert {"fstructure/PackFrame", "fstructure/axioms_residual",
            "classifiers/class_residual:S_structure",
            "classifiers/frame_residuals", "classifiers/q_parallel_residual",
            "classifiers/theorem_check:thm01_ii",
            "fstructure/nijenhuis_ff"} <= names


def test_tracer_names_a_span_per_submanifold_check(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace

    original = report.run_suite
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        rep = report.run_suite(SuiteConfig(example="hypersphere",
                                           params={"n": 1}, samples=2))
    finally:
        tracer.uninstall()
    assert report.run_suite is original
    assert rep["overall"]["verdict"] == "pass"
    names = {tracer.names[span[0]] for span in tracer.spans}
    assert {"submanifold/frame_check", "submanifold/gauss_split_residual",
            "submanifold/thsubm_check",
            "submanifold/lemma_parallel_claim"} <= names
    metrics = layertrace.layer_metrics(tracer, 1.0, 2, classifiers.CLASS_TAGS,
                                       classifiers.THEOREM_CHECKS)
    assert metrics["report.suite.submanifold_s"][0] > 0.0


def test_tracer_names_a_span_per_stacked_theorem(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        rep = report.run_suite(SuiteConfig(example="sasakian_s3",
                                           suites=("theorems",), samples=2))
    finally:
        tracer.uninstall()
    assert rep["overall"]["verdict"] == "pass"
    names = {tracer.names[span[0]] for span in tracer.spans}
    assert {f"classifiers/theorem_check:{which}"
            for which in classifiers.THEOREM_CHECKS} <= names
    metrics = layertrace.layer_metrics(tracer, 1.0, 2, classifiers.CLASS_TAGS,
                                       classifiers.THEOREM_CHECKS)
    for which in classifiers.THEOREM_CHECKS:
        assert metrics[f"classifiers.theorem.{which}_s"][0] > 0.0


def test_tracer_times_every_suite_of_a_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace

    samples = 2
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        rep = report.run_suite(SuiteConfig(example="sasakian_s3",
                                           samples=samples))
    finally:
        tracer.uninstall()
    assert rep["overall"]["verdict"] == "pass"
    names = {tracer.names[span[0]] for span in tracer.spans}
    assert {"fstructure/axioms_residual", "classifiers/frame_residuals",
            "classifiers/q_parallel_residual",
            *(f"classifiers/class_residual:{tag}"
              for tag in classifiers.CLASS_TAGS)} <= names
    metrics = layertrace.layer_metrics(tracer, 1.0, samples,
                                       classifiers.CLASS_TAGS,
                                       classifiers.THEOREM_CHECKS)
    positive = ["report.suite.axioms_s", "report.suite.classes_s",
                "report.suite.frames_s", "classifiers.frame_residuals_s",
                *(f"classifiers.class.{tag}_s"
                  for tag in classifiers.CLASS_TAGS)]
    for name in positive:
        assert metrics[name][0] > 0.0, name
    # one call per chunk of the run's points
    chunks = -(-samples // charts.CHUNK)
    assert metrics["fstructure.axioms_calls"][0] == chunks
