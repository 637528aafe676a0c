"""Print the sha256 of the JSON and text report of each reference configuration.

A refactor that must not change any report is checked by running this on
the commit before it and on the commit itself and comparing the output:

    PYTHONPATH=src python tests/report_digests.py --samples 50 --seeds 42,7

Each configuration is a ``weakf verify`` argument list; the report is built
once and rendered in both formats.
"""

import argparse
import hashlib
import sys

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


def report_texts(argv, samples, seed):
    """(JSON, text) renderings of the report of one ``weakf verify`` argv."""
    args = cli.build_parser().parse_args(
        ["verify", *argv, "--samples", str(samples), "--seed", str(seed)])
    suites = SUITES if args.suites == "all" else tuple(args.suites.split(","))
    report = run_suite(SuiteConfig(
        example=args.example, params=cli._parse_params(args.param),
        suites=suites, samples=args.samples, seed=args.seed,
        tol_exact=args.tol_exact, tol_curvature=args.tol_curv))
    return render_json(report), render_text(report)


def digest_lines(configs, samples, seeds):
    """One line per configuration and seed: seed, sha256 of JSON and text, argv."""
    for seed in seeds:
        for config in configs:
            texts = report_texts(config.split(), samples, seed)
            sums = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
            yield f"{seed} {sums[0]} {sums[1]} {config}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--seeds", default="42,7",
                        help="comma list of seeds (default 42,7)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    for line in digest_lines(CONFIGS, args.samples, seeds):
        print(line, flush=True)


if __name__ == "__main__":
    sys.exit(main())
