"""Steadiness check: repeat the benchmark over seeds and compare the spreads.

    python3 bench/steady.py                       # every workload, ~30 min
    python3 bench/steady.py --workloads catalog   # re-prove one workload

For every workload, each of two sets runs bench/run.py once per seed
(seeds 1..10), in order. For each end-to-end metric, ``setup_s`` included,
it prints the median and the interquartile range of the ten values as a
share of the median, and fails if that spread is over the metric's bound in
BENCHMARK.json. It also checks that the second set's median is not worse
than the first's by more than the bound, that the share of failed cases is
the same in every run, and that every (workload, seed) rendered
byte-identical reports in both sets (equal digests). Raw results go to
bench/out/. Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SEEDS = 10
SETS = 2


def run_once(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report_digests"], json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, first, second):
    """Share by which ``second`` is worse than ``first`` (negative: better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    raw = {}
    for workload in args.workloads.split(","):
        sets = []
        for k in range(SETS):
            runs = []
            for seed in range(1, SEEDS + 1):
                digests, result = run_once(spec["command"], workload, seed,
                                           spec["run_seconds"])
                runs.append({"seed": seed, "digests": digests, **result})
                print(f"{workload} set {k + 1} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      + " ".join(f"{n}={v['value']:.4g}"
                                 for n, v in result["metrics"].items()),
                      flush=True)
                ok &= result["correct"]
            sets.append(runs)
        raw[workload] = sets
        medians = []
        for k, runs in enumerate(sets):
            med = {}
            for name, m in metrics.items():
                values = [r["metrics"][name]["value"] for r in runs]
                med[name] = statistics.median(values)
                sp = spread(values)
                passed = sp <= m["bound"]
                ok &= passed
                print(f"  {workload} set {k + 1} {name:15s} median {med[name]:.4g} "
                      f"{m['unit']:3s} spread {sp:.3f} bound {m['bound']} "
                      f"(a third: {m['bound'] / 3:.3f}) {'ok' if passed else 'TOO WIDE'}")
            medians.append(med)
        for name, m in metrics.items():
            change = worse_by(m, medians[0][name], medians[1][name])
            passed = change <= m["bound"]
            ok &= passed
            print(f"  {workload} {name:15s} set 2 vs set 1: {change:+.3f} "
                  f"{'ok' if passed else 'WORSE THAN BOUND'}")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        same_digests = all(a["digests"] == b["digests"]
                           for a, b in zip(sets[0], sets[1]))
        ok &= len(shares) == 1 and same_digests
        print(f"  {workload} failed shares equal: {len(shares) == 1}; "
              f"report digests equal across sets: {same_digests}")
    out = BENCH / "out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print("steady: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
