"""Benchmark of `weakf verify`: one workload per process, every metric by name.

Usage, from the root of a weakf source tree:

    python3 bench/run.py --workload catalog --seed 42 --seconds 24 --trace 0

The run drives the library path the CLI uses (make_example ->
induce_structure -> run_suite -> render_json) on the workload's cases
(see workloads.py) with ``SuiteConfig.seed = --seed``. It repeats whole
rounds of all cases for about ``--seconds`` seconds, checks every report
(checks.py), and prints as its last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the sha256 digest of each case's rendered report.

``--trace 0`` reports the end-to-end metrics, every time scaled to a fixed
host speed measured by a reference kernel (see REF_SLICE_S). ``--trace 1``
alternates untraced and traced rounds, reports the per-layer metrics
(layertrace.py) of the traced round with the median wall time and writes its
spans to bench/out/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Tiny matrices: pin BLAS to one thread so runs do not race for the cores.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up probes per run: half before the rounds, half after them, so that
# they sample the host's speed at both ends of the run.
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60

# Other tenants of the host make its speed drift by 10-50% within minutes,
# and CPU time drifts with wall time. So while a case runs, a SIGALRM handler
# times one slice of a fixed reference kernel every TICK_S seconds, and one
# more slice follows the case. The case's time, less the slices, is reported
# at the host speed at which a slice takes REF_SLICE_S (about its time here):
# raw time * REF_SLICE_S / mean of the case's slices. A set-up probe is
# scaled by the mean of PROBE_SLICES slices that follow it in its process.
TICK_S = 0.1
REF_SLICE_S = 0.00225
PROBE_SLICES = 10

sys.path.insert(0, str(BENCH))
from workloads import DEFAULT_SAMPLES, SAMPLES, WORKLOADS  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="internal: time one set-up in this process and exit")
    return ap.parse_args(argv)


def case_config(report, case, samples, seed):
    return report.SuiteConfig(
        example=case.example,
        params=dict(case.params),
        suites=case.suites,
        samples=samples,
        seed=seed,
    )


# -- set-up ------------------------------------------------------------------------


def probe_setup(args):
    """Import weakf, build every case's object and sample its points; print the
    time, raw and scaled by the reference slices that follow it."""
    # Pinned to one CPU, so the slices time the CPU the set-up ran on: the
    # two CPUs of a shared host run at different speeds.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t0 = time.perf_counter()
    build_objects(WORKLOADS[args.workload],
                  SAMPLES.get(args.workload, DEFAULT_SAMPLES), args.seed)
    raw = time.perf_counter() - t0
    speed = HostSpeed()
    for _ in range(PROBE_SLICES):
        speed.tick()
    print(json.dumps({"raw_setup_s": raw, "setup_s": raw * speed.scale()}))
    return 0


def measure_setup(args, probes):
    """Scaled set-up times of ``probes`` fresh processes (the import only runs
    once in each)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    times = []
    for _ in range(probes):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=PROBE_TIMEOUT_S)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# -- host speed --------------------------------------------------------------------


@functools.cache
def reference_kernel():
    """A fixed mix of the operations weakf spends its time on, independent of it:
    a Python float loop, small np.einsum calls and 10-wide 3-operand ones."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 4, 4))
    f, g = rng.standard_normal((10, 10)), rng.standard_normal((10, 10, 10))

    def kernel():
        x = 0.0
        for k in range(6_000):
            x = x * 0.5 + k * 1.5 - x * x * 1e-3
        for _ in range(150):
            np.einsum("ij,jkl->ikl", a, b)
        for _ in range(2):
            np.einsum("ai,bj,ijk->abk", f, f, g)
        return x

    kernel()  # warm-up: first-call costs are not host speed
    return kernel


class HostSpeed:
    """Reference slices timed during a stretch of work, and what they cost."""

    def __init__(self):
        self.kernel = reference_kernel()
        self.slices = []
        self.spent = self.spent_cpu = 0.0

    def tick(self, *_signal):
        w0, c0 = time.perf_counter(), time.process_time()
        self.kernel()
        self.slices.append(time.perf_counter() - w0)
        self.spent += time.perf_counter() - w0
        self.spent_cpu += time.process_time() - c0

    def start(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self):
        return REF_SLICE_S / statistics.mean(self.slices)


# -- rounds ------------------------------------------------------------------------


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Round:
    """One pass over every case of the workload.

    With ``sampled``, each case runs under a HostSpeed: ``case_s`` and
    ``case_cpu`` leave its slices out, and ``case_scale`` holds the factor to
    the reference host speed (1 otherwise). ``wall`` leaves all slices out.
    """

    def __init__(self, report, configs, tracer=None, sampled=False):
        self.case_s, self.case_cpu, self.case_scale = [], [], []
        self.texts = []
        self.reports = []
        self.failed = 0
        sliced = 0.0
        self.start = t0 = time.perf_counter()
        for i, cfg in enumerate(configs):
            if tracer is not None:
                tracer.case_index = i
            speed = HostSpeed()
            c0, cpu0 = time.perf_counter(), cpu_seconds()
            if sampled:
                speed.start()
            try:
                rep = report.run_suite(cfg)
                text = report.render_json(rep)
            except Exception:  # a case that raises is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                rep = text = None
                self.failed += 1
            finally:
                speed.stop()
            self.case_s.append(time.perf_counter() - c0 - speed.spent)
            self.case_cpu.append(cpu_seconds() - cpu0 - speed.spent_cpu)
            if sampled:
                speed.tick()
            self.case_scale.append(speed.scale() if sampled else 1.0)
            sliced += speed.spent
            self.reports.append(rep)
            self.texts.append(text)
        self.wall = time.perf_counter() - t0 - sliced

    def scaled(self, times):
        return [k * t for k, t in zip(self.case_scale, times)]

    def digests(self):
        return [None if t is None else hashlib.sha256(t.encode()).hexdigest()
                for t in self.texts]


def run_rounds(seconds, make_rounds):
    """Repeat ``make_rounds`` while the next repeat still ends within ``seconds``."""
    done = []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        done.append(make_rounds())
        last = time.perf_counter() - r0
        if time.perf_counter() - t0 + last > seconds:
            return done


# -- checks ------------------------------------------------------------------------


def check_run(cases, samples, seed, rounds, objects):
    from checks import (checked_points, identity_problems,
                        induced_metric_problems, report_problems)

    problems = []
    first = rounds[0].digests()
    for r in rounds:
        if r.digests() != first:
            problems.append("report digests differ between rounds of one run")
        for case, rep in zip(cases, r.reports):
            if rep is not None:
                problems += [f"{case.label}: {p}"
                             for p in report_problems(case, rep, samples, seed)]
    for i, (case, (cat, pack, points)) in enumerate(zip(cases, objects)):
        pts = checked_points(points, seed, i)
        problems += [f"{case.label}: {p}" for p in identity_problems(case, pack, pts)]
        if not cat.is_pack:
            problems += [f"{case.label}: {p}"
                         for p in induced_metric_problems(cat.obj, pack, pts)]
    return problems


def build_objects(cases, samples, seed):
    from weakf import catalog, submanifold

    objects = []
    for case in cases:
        cat = catalog.make_example(case.example, **dict(case.params))
        pack = cat.obj if cat.is_pack else submanifold.induce_structure(
            cat.obj, validate=False)
        objects.append((cat, pack, cat.chart.sample(samples, seed)))
    return objects


# -- main --------------------------------------------------------------------------


def end_to_end(rounds, setup):
    """Medians over the run of times scaled to the reference host speed."""
    return {
        "verify_s": (statistics.median(sum(r.scaled(r.case_s)) for r in rounds), "s"),
        "slowest_case_s": (max(
            statistics.median(c) for c in zip(*(r.scaled(r.case_s) for r in rounds))), "s"),
        "cpu_s": (statistics.median(sum(r.scaled(r.case_cpu)) for r in rounds), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def traced_metrics(args, report, configs, samples):
    """Alternate untraced and traced rounds; per-layer metrics of the median one."""
    import layertrace

    tracer = layertrace.Tracer()
    classifiers = tracer.modules["classifiers"]
    pairs = []

    def pair():
        plain = Round(report, configs)
        tracer.reset()
        tracer.install()
        try:
            traced = Round(report, configs, tracer)
        finally:
            tracer.uninstall()
        metrics = layertrace.layer_metrics(
            tracer, traced.wall, samples * len(configs),
            classifiers.CLASS_TAGS, classifiers.THEOREM_CHECKS)
        metrics["report.entries"] = (
            sum(r["overall"]["entries"] for r in traced.reports if r), "count")
        pairs.append((plain, traced, metrics, tracer.spans))
        return plain, traced

    rounds = [r for p in run_rounds(args.seconds, pair) for r in p]
    _, traced, metrics, spans = sorted(
        pairs, key=lambda p: p[1].wall)[(len(pairs) - 1) // 2]
    problems = layertrace.span_problems(spans, traced.start, traced.wall)
    untraced = statistics.median(p[0].wall for p in pairs)
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced.wall - untraced, "s")
    write_sidecar(args, tracer.names, spans, traced, untraced, configs)
    return rounds, metrics, problems


def write_sidecar(args, names, spans, traced, untraced, configs):
    OUT.mkdir(exist_ok=True)
    t0 = spans[0][1] if spans else 0.0
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "wall_s": traced.wall,
        "untraced_wall_s": untraced,
        "cases": [{"example": c.example, "params": c.params, "suites": list(c.suites),
                   "wall_s": s} for c, s in zip(configs, traced.case_s)],
        "names": names,
        "span_fields": ["name", "start_s", "end_s", "parent"],
        "spans": [[n, s - t0, e - t0, p] for n, s, e, p in spans],
    }
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "weakf" / "__init__.py").is_file():
        print(f"error: no weakf source tree at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREADS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return probe_setup(args)

    cases = WORKLOADS[args.workload]
    samples = SAMPLES.get(args.workload, DEFAULT_SAMPLES)
    setup = [] if args.trace else measure_setup(args, SETUP_PROBES // 2)

    from weakf import report

    configs = [case_config(report, c, samples, args.seed) for c in cases]
    objects = build_objects(cases, samples, args.seed)
    if args.trace:
        rounds, metrics, problems = traced_metrics(args, report, configs, samples)
    else:
        rounds = run_rounds(args.seconds, lambda: Round(report, configs, sampled=True))
        setup += measure_setup(args, SETUP_PROBES - len(setup))
        metrics, problems = end_to_end(rounds, setup), []
        print("case scales: " + " ".join(
            f"{k:.3f}" for r in rounds for k in r.case_scale), file=sys.stderr)
    problems += check_run(cases, samples, args.seed, rounds, objects)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print("round walls (s): " + " ".join(f"{r.wall:.3f}" for r in rounds),
          file=sys.stderr)

    print(json.dumps({"report_digests": {
        c.label: d for c, d in zip(cases, rounds[0].digests())}}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(r.case_s) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
