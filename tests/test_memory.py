"""Repeated runs keep nothing, a run's peak memory does not follow its
sample count, one chunk's set-up stays within its bound, and a g-norm
residual is the one array of its size."""

import gc
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from weakf import catalog, charts, classifiers
from weakf.charts import Rows
from weakf.errors import HypothesisNotMet
from weakf.fstructure import PackFrame, FrameStack
from weakf.report import SUITES, SuiteConfig, run_suite
from weakf.submanifold import (
    frame_check,
    gauss_split_residual,
    induce_structure,
    lemma_parallel_claim,
    thsubm_check,
)

# Fixed before the first measurement: what one more run may leave behind.
GROWTH_BOUND = 64 * 1024    # bytes


def test_repeated_runs_do_not_grow_memory():
    config = SuiteConfig(example="hypersphere", params={"n": 2},
                         suites=SUITES, samples=3)
    sizes = []
    tracemalloc.start()
    try:
        for _ in range(3):
            run_suite(config)       # the report is dropped at once
            gc.collect()
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert sizes[2] - sizes[1] < GROWTH_BOUND, sizes


# How far the peak RSS of a run at 20x the default sample count may lie
# above the default run's. Jet stacks are built over one chunk of points at
# a time, so the peak does not follow the sample count: this run read
# +0.4 MB, and +3.2 MB with the whole run as one chunk.
SCALED_RSS_MARGIN_MB = 1.5

# The child reads its own high-water mark from /proc: ru_maxrss would
# carry over the forking test process's peak through exec.
PEAK_RSS = """
import contextlib, io, sys
from weakf import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
status = open("/proc/self/status").read().split("VmHWM:")[1]
print(code, int(status.split()[0]) / 1024)
"""


def _peak_rss_mb(samples):
    """Exit code and peak RSS (MB) of a fresh ``weakf verify`` process."""
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, "verify", "--example", "hypersphere",
         "--param", "n=2", "--suites", "axioms,theorems",
         "--samples", str(samples)],
        capture_output=True, text=True, check=True)
    code, peak = proc.stdout.split()
    return int(code), float(peak)


@pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                    reason="reads the peak RSS from /proc")
def test_peak_memory_does_not_follow_sample_count():
    default = SuiteConfig(example="hypersphere").samples
    code, base = _peak_rss_mb(default)
    scaled_code, scaled = _peak_rss_mb(20 * default)
    assert code == scaled_code == 0
    assert scaled - base <= SCALED_RSS_MARGIN_MB, (base, scaled)


# A vector residual on flat_pack n=4 s=2: m = 10 components over 44 x 44
# test pairs (10 basis vectors, 2 Reeb fields, 32 random units), float64.
RESIDUAL_BYTES = 10 * 44 * 44 * 8


@pytest.mark.parametrize("read", [
    lambda fr: fr.nearly_s_defining,
    lambda fr: fr.n1_zero,
    classifiers.q_parallel_residual,
], ids=["nearly_s_residual", "normality_residual", "q_parallel_residual"])
def test_g_norm_holds_one_residual_sized_array(read):
    # lowering the coefficients first leaves the contraction result as the
    # only array of residual size: a g-weighted sum over it holds three
    pack = catalog.flat_pack(n=4, s=2).obj
    fr = PackFrame(pack, pack.chart.sample(1, seed=42)[0], seed=42)
    assert fr.V.shape == (1, 44, 10)
    for attr in ("u", "nabla_f", "nabla_q", "nabla_xi", "n1_coeff", "d_basis"):
        getattr(fr, attr)       # the stack's inputs, built before the count
    tracemalloc.start()
    try:
        read(fr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * RESIDUAL_BYTES, peak / RESIDUAL_BYTES


@pytest.mark.parametrize("example, params", [("sasakian_s3", {}),
                                             ("hypersphere", {"n": 1})])
def test_a_chunk_is_freed_without_the_garbage_collector(monkeypatch, example,
                                                        params):
    # every check reads the chunk's stack, so no frame is built, and the
    # stack holds no reference cycle: with the collector off, the previous
    # chunk's stack is freed by the time the next one is built
    sizes, refs, alive = [], [], []
    init = FrameStack.__init__

    def tracking_init(self, pack, rows, seed):
        alive.append(sum(r() is not None for r in refs))
        refs.append(weakref.ref(self))
        sizes.append(len(rows))
        init(self, pack, rows, seed)

    monkeypatch.setattr(FrameStack, "__init__", tracking_init)
    frame_init = PackFrame.__init__
    frames = []
    monkeypatch.setattr(PackFrame, "__init__", lambda fr, *a, **k: (
        frames.append(1) or frame_init(fr, *a, **k)))
    gc.disable()
    try:
        rep = run_suite(SuiteConfig(example=example, params=params,
                                    suites=SUITES, samples=2 * charts.CHUNK + 3))
    finally:
        gc.enable()
    assert rep["overall"]["verdict"] == "pass"
    assert frames == []
    assert sizes == [charts.CHUNK, charts.CHUNK, 3]
    assert alive == [0, 0, 0]


# Fixed before the first measurement, from the arrays a chunk keeps on
# flat_pack n=4 s=2 (m = 10, s = 2, 44 test vectors): about 83 KB per point
# (seven (P, 10, 10, 10) stacks such as Gamma, D f, D Q and the [f,f] and
# N1 coefficients at 8,000 B per point each, the test vectors, and the
# smaller stacks), plus the temporaries of the largest build, 120 KB per
# point in all; and the checks, which hold a few (10, 44, 44) residuals of
# 155 KB at a time, 1 MB. The stacked axioms map reduces its
# (P, 44, 44) pair residuals to their rows one identity at a time, so it
# holds one of them, with its temporaries, at a time; the stacked class
# parts form theirs fstructure.PAIR_CHUNK points at a time. The chunk size
# keeps each (P, 10, 10, 10) float64 stack, 8,000 P B, below glibc's 128 KiB
# mmap threshold (P <= 16): above it every such array is a fresh mapping,
# and each mapping faults in every page it touches.
CHUNK_BYTES_PER_POINT = 120_000
FRAME_CHECK_BYTES = 1_000_000


def test_one_chunk_of_setup_stays_within_its_bound():
    pack = catalog.flat_pack(n=4, s=2).obj
    points = pack.chart.sample(charts.CHUNK, seed=42)
    tracemalloc.start()
    try:
        # the chunk's set-up is built on the checks' first reads
        st = FrameStack(pack, Rows(points), 42)
        for tag in classifiers.CLASS_TAGS:
            classifiers.class_residual(pack, None, tag, st)
        classifiers.frame_residuals(st)
        for which in classifiers.THEOREM_CHECKS:
            try:
                classifiers.theorem_check(pack, None, which, st)
            except HypothesisNotMet:
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.gamma.shape == (charts.CHUNK, 10, 10, 10)
    assert "axioms" in vars(st)      # built inside the measurement
    bound = CHUNK_BYTES_PER_POINT * charts.CHUNK + FRAME_CHECK_BYTES
    assert peak < bound, (peak, bound)


# Fixed before the first measurement, from the arrays a chunk keeps on
# linear_subspace n=2 s=2 (m = 6 domain and d = 8 ambient dimensions, s = 2
# normals, 40 test vectors): about 34 KB per point of ambient stacks (the
# jets of the embedding, the normals, gbar and fbar along the image, the
# ambient g^-1, Gamma and D fbar at d^3 = 512 entries, the induced jets, D
# on coordinate pairs, h and the shape operators), about 10 KB of the frame
# stack (Gamma, D f, D Q, the test vectors, the displays), and the
# temporaries of the largest build, the induced jets and the tangential
# expansion, about 40 KB: 100 KB per point in all. The checks form their
# residuals on the test pairs fstructure.PAIR_CHUNK points at a time, a few
# (2, 6, 40, 40) arrays of 154 KB at most: 0.5 MB.
SUBMANIFOLD_CHUNK_BYTES_PER_POINT = 100_000
SUBMANIFOLD_CHECK_BYTES = 500_000


def test_one_chunk_of_the_submanifold_suite_stays_within_its_bound():
    sub = catalog.linear_subspace(n=2, s=2).obj
    pack = induce_structure(sub, validate=False)
    points = sub.domain.sample(charts.CHUNK, seed=42)
    tracemalloc.start()
    try:
        # every row of the suite's bundles over one chunk, as the runner
        # builds the chunk's stacks
        st = FrameStack(pack, Rows(points), 42)
        frame_check(st.ambient)
        gauss_split_residual(st)
        for case in ("i", "ii"):
            thsubm_check(st, case)
        lemma_parallel_claim(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.ambient.nabla_fbar.shape == (charts.CHUNK, 8, 8, 8)
    assert "thsubm_parts" in vars(st)       # built inside the measurement
    bound = (SUBMANIFOLD_CHUNK_BYTES_PER_POINT * charts.CHUNK
             + SUBMANIFOLD_CHECK_BYTES)
    assert peak < bound, (peak, bound)


# Fixed before the first measurement, for the two f-K-contact bundles over
# one chunk of hypersphere n=7 (m = 15 domain and d = 16 ambient dimensions,
# s = 1), their gates and the set-up they share with the other suites built
# before: the order-2 jet of the constant ambient metric (broadcast views of
# a (d^2, d, d) zero block and the lifted image points' Hessians), about
# 1.1 MB; the second partials contracted with xibar on a tensor slot and on
# a derivative slot, two (P, d, d, d) arrays of 0.5 MB each, and their
# temporaries; the chain's copy of the chunk's D f, (P, m, m, m) = 0.43 MB,
# and its small arrays: about 2.8 MB in all. The bound stays below one full
# (P, m, m, m, m) Riemann stack, 16 * 15^4 * 8 B = 6.5 MB, which the
# per-point curvature formed point by point in several copies.
FK_CHUNK_BYTES = 4_000_000
RIEMANN_STACK_BYTES = 16 * 15 ** 4 * 8


def test_one_chunk_of_the_f_k_contact_bundles_stays_within_its_bound():
    sub = catalog.hypersphere(n=7).obj
    pack = induce_structure(sub, validate=False)
    st = FrameStack(pack, Rows(sub.domain.sample(charts.CHUNK, seed=42)), 42)
    for name in ("worst_axiom", "phi_equals_deta", "killing", "nabla_f",
                 "nabla_xi", "d_basis"):
        getattr(st, name)
    st.ambient.hn
    tracemalloc.start()
    try:
        for which in ("fk_contact_nabla", "thm32_chain"):
            res = classifiers.theorem_check(pack, None, which, frame=st)
            assert all(rows.shape == (charts.CHUNK,)
                       for rows in res.values()), which
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.reeb_curvature.shape == (charts.CHUNK, 1, 15, 15)
    assert FK_CHUNK_BYTES < RIEMANN_STACK_BYTES
    assert peak < FK_CHUNK_BYTES, peak


# Fixed before the first measurement, for the stacked bodies of prop1,
# prop_normal, thm41, thm01_i and thm01_ii over one chunk of hypersphere
# n=7 (m = 15, s = 1, 48 test vectors), their gates and the set-up they
# share with the other suites built before. The bodies run one at a time.
# prop_normal holds three (P, m, m, m) stacks of 0.43 MB while it forms the
# bracket term of its d eta f-swap, (f1 Q~)^T, q1 f0 and their difference,
# 1.3 MB, then the swap on the chunk's test pairs, (P, s, 48, 48) = 0.3 MB,
# after the first two are freed (measured alone: 1.4 MB). thm01_i forms
# eta^j([f,f]) as coefficients, (P, s, m, m) = 29 KB, and meets each of its
# three coefficient tensors with the test pairs fstructure.PAIR_CHUNK
# points at a time, (2, s, 48, 48) = 37 KB. thm01_ii holds (P, m, m, m) stacks
# of 0.43 MB: its coefficient and the coefficient lowered by u with a
# sub-chunk's pairs, 1.6 MB; then the coefficient, g(f^2 X, Y) etabar and
# the dPhi expansion with up to two temporaries, 2.2 MB. prop1 and thm41
# hold a few (P, s, m, 48) arrays of 92 KB. The bound stays below the
# 4.4 MB of [f,f] on the test pairs of the whole chunk at once,
# (P, m, 48, 48).
BODIES_CHUNK_BYTES = 3_500_000
WHOLE_CHUNK_FF_BYTES = 16 * 15 * 48 * 48 * 8


def test_one_chunk_of_the_stacked_theorem_bodies_stays_within_its_bound():
    sub = catalog.hypersphere(n=7).obj
    pack = induce_structure(sub, validate=False)
    st = FrameStack(pack, Rows(sub.domain.sample(charts.CHUNK, seed=42)), 42)
    bodies = ("prop1", "prop_normal", "thm41", "thm01_i", "thm01_ii")
    for which in bodies:
        for gate in classifiers._GATES[which]:
            gate(st, classifiers.TOL_EXACT)
    for name in ("nabla_xi_xi", "nabla_xi", "nabla_f", "dphi", "deta",
                 "d_basis", "ff_coeff", "n1_coeff", "phi0"):
        getattr(st, name)
    tracemalloc.start()
    try:
        for which in bodies:
            res = classifiers._THEOREMS[which](st)
            assert all(rows.shape == (charts.CHUNK,)
                       for rows in res.values()), which
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.V.shape == (charts.CHUNK, 48, 15)
    assert BODIES_CHUNK_BYTES < WHOLE_CHUNK_FF_BYTES
    assert peak < BODIES_CHUNK_BYTES, peak


# Fixed before the sample points became one array, from tracemalloc of
# drawing 100,000 points of a 3-dimensional chart and stacking them: 200 B
# per sample (a list of one numpy view per row, copied back into an array)
# for 24 B of coordinates.
SAMPLE_BYTES_BOUND = 100


def test_sample_points_cost_their_coordinates():
    chart = catalog.sasakian_s3().chart
    chart.sample(1, seed=42)        # allocations of the first draw
    count = 100_000
    tracemalloc.start()
    try:
        points = chart.sample(count, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert points.shape == (count, 3)
    assert peak / count < SAMPLE_BYTES_BOUND, peak / count
