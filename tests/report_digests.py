"""Print the sha256 of the JSON and text report of each reference configuration.

A refactor that must not change any report is checked by running this on
the commit before it and on the commit itself and comparing the output:

    PYTHONPATH=src python tests/report_digests.py --samples 50 --seeds 42,7

Its output at ``--samples 10 --seeds 42,7`` is pinned in
``tests/report_digests.txt``, which a tier-1 test compares against.

A change to the arithmetic must keep every verdict and move residuals by at
most 1e-14. Dump the JSON reports of both commits and compare them:

    PYTHONPATH=src python tests/report_digests.py --dump before   # old commit
    PYTHONPATH=src python tests/report_digests.py --dump after    # new commit
    PYTHONPATH=src python tests/report_digests.py --compare before after

``--compare`` prints, per configuration, the verdict changes, the
largest |delta| of any residual with the entry (suite.identity) and field
it is in, and every other difference: an entry on one side only, or any
other field of an entry (formula, tolerance, points, counted, note) that
is not equal. It exits 1 on a verdict change, a delta above 1e-14 or any
other difference. A non-finite residual is written as the string "NaN",
"Infinity" or "-Infinity"; it matches only the same string. Each
configuration is a ``weakf verify`` argument list; the report is built once
and rendered in both formats.
"""

import argparse
import hashlib
import json
import math
import re
import sys
from pathlib import Path

from weakf import cli
from weakf.report import SUITES, SuiteConfig, render_json, render_text, run_suite

CONFIGS = (
    # the README invocations
    "--example sasakian_s3",
    "--example product_pack --param n=1 --param s=2 --suites classes",
    "--example rotated_pack --param t=0.1 --param rotation=givens:0:2:0.3",
    "--example hypersphere --param n=1",
    # the other catalog examples at their defaults
    "--example flat_pack",
    "--example rotated_pack",
    "--example product_pack",
    "--example linear_subspace",
    # variants and larger dimensions
    "--example hypersphere --param n=1 --param normal=outward",
    "--example hypersphere --param n=1 --param ambient_skew=weak",
    "--example hypersphere --param n=2",
    "--example flat_pack --param n=2 --param s=2",
    "--example flat_pack --param n=2 --param s=2 --param scales=0.5,3",
    "--example linear_subspace --param n=2 --param s=2",
    "--example hypersphere --param n=3 --suites axioms,classes,frames",
    "--example sasakian_s3 --suites theorems,frames --tol-exact 1e-12"
    " --tol-curv 1e-8",
    "--example rotated_pack --param n=4 --param s=2",
)


def run_config(argv, samples, seed):
    """The report of one ``weakf verify`` argv."""
    args = cli.build_parser().parse_args(
        ["verify", *argv, "--samples", str(samples), "--seed", str(seed)])
    suites = SUITES if args.suites == "all" else tuple(args.suites.split(","))
    return run_suite(SuiteConfig(
        example=args.example, params=cli._parse_params(args.param),
        suites=suites, samples=args.samples, seed=args.seed,
        tol_exact=args.tol_exact, tol_curvature=args.tol_curv))


def report_texts(argv, samples, seed):
    """(JSON, text) renderings of the report of one ``weakf verify`` argv."""
    report = run_config(argv, samples, seed)
    return render_json(report), render_text(report)


def digest_lines(configs, samples, seeds):
    """One line per configuration and seed: seed, sha256 of JSON and text, argv."""
    for seed in seeds:
        for config in configs:
            texts = report_texts(config.split(), samples, seed)
            sums = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
            yield f"{seed} {sums[0]} {sums[1]} {config}"


def report_name(seed, config):
    """File name of one configuration's dumped report."""
    return f"{seed}-" + re.sub(r"[^A-Za-z0-9.=-]+", "_", config).strip("_-") + ".json"


def dump_reports(out, configs, samples, seeds):
    """Write the JSON report of each configuration and seed under ``out``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        for config in configs:
            text = report_texts(config.split(), samples, seed)[0]
            (out / report_name(seed, config)).write_text(text, encoding="utf-8")


RESIDUAL_TOL = 1e-14


def _entries(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    return {(suite, e["identity"]): e
            for suite, entries in report["suites"].items() for e in entries}


# The residual fields, which may move by RESIDUAL_TOL; every other field of
# an entry must be equal.
RESIDUAL_FIELDS = ("max_residual", "mean_residual")


def _other_fields(entry):
    return {field: value for field, value in entry.items()
            if field not in ("identity", "verdict", *RESIDUAL_FIELDS)}


def compare_reports(before, after):
    """Per report file: (name, changed identities, max |delta residual|,
    the "suite.identity field" it is in, or None if no residual moved, and
    the other differences: "suite.identity field" for each other field that
    differs, "suite.identity only in A" or "... only in B" for an entry of
    one side only)."""
    before, after = Path(before), Path(after)
    names = sorted({p.name for p in before.glob("*.json")}
                   | {p.name for p in after.glob("*.json")})
    for name in names:
        if not (before / name).is_file() or not (after / name).is_file():
            yield name, ["<report missing>"], float("inf"), None, []
            continue
        old, new = _entries(before / name), _entries(after / name)
        shared = sorted(old.keys() & new.keys())
        changed = sorted(".".join(key) for key in shared
                         if old[key]["verdict"] != new[key]["verdict"])
        others = [f"{'.'.join(key)} only in {side}"
                  for side, mine, theirs in (("A", old, new), ("B", new, old))
                  for key in sorted(mine.keys() - theirs.keys())]
        delta, where = 0.0, None
        for key in shared:
            o, n = _other_fields(old[key]), _other_fields(new[key])
            others += [f"{'.'.join(key)} {field}"
                       for field in sorted(o.keys() | n.keys())
                       if (field in o, o.get(field)) != (field in n, n.get(field))]
            for field in RESIDUAL_FIELDS:
                a, b = old[key][field], new[key][field]
                if a is None or b is None or a == b:
                    continue
                d = abs(float(a) - float(b))
                # a non-finite residual against any other value
                d = d if math.isfinite(d) else math.inf
                if where is None or d > delta:
                    delta, where = d, f"{'.'.join(key)} {field}"
        yield name, changed, delta, where, others


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--seeds", default="42,7",
                        help="comma list of seeds (default 42,7)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--dump", metavar="DIR",
                      help="write each configuration's JSON report to DIR")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="compare the reports dumped to A and B")
    args = parser.parse_args(argv)
    if args.compare:
        bad = 0
        for name, changed, delta, where, others in compare_reports(
                *args.compare):
            print(f"{name}: {len(changed)} verdict changes, "
                  f"max |delta residual| {delta:.2e}"
                  + (f" at {where}" if where else ""))
            for identity in changed:
                print(f"  changed: {identity}")
            for field in others:
                print(f"  differs: {field}")
            bad += bool(changed or others) or delta > RESIDUAL_TOL
        return 1 if bad else 0
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.dump:
        dump_reports(args.dump, CONFIGS, args.samples, seeds)
        return 0
    for line in digest_lines(CONFIGS, args.samples, seeds):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
