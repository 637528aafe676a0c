"""The layer tracer of bench/layertrace.py names a span after each public
per-frame function it wraps, reading the arguments as the library takes
them. The traced benchmark round reaches the classes through
``class_rows``, so only this test calls ``class_residual`` under the tracer.
The submanifold checks take a chunk's stack; a traced run still names a span
after each, and counts it to the submanifold suite.
"""

from pathlib import Path

from weakf import catalog, classifiers, fstructure, report
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
    finally:
        tracer.uninstall()
    assert classifiers.class_residual is original
    names = {tracer.names[span[0]] for span in tracer.spans}
    assert {"fstructure/PackFrame", "fstructure/axioms_residual",
            "classifiers/class_residual:S_structure",
            "classifiers/frame_residuals", "classifiers/q_parallel_residual",
            "classifiers/theorem_check:thm01_ii"} <= names


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
