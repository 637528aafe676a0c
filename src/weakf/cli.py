"""Command-line runner.

``weakf verify --example sasakian_s3 --suites all --format json`` builds a
catalog object, runs the requested verification suites and writes the
report to stdout (and to ``--out`` when given). Exit codes:

* 0: every counted identity within tolerance,
* 1: a counted identity failed,
* 2: usage error (unknown example, bad parameters, bad flags),
* 3: internal evaluation failure (the failing identity is named on stderr).

All configuration is flags only.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import BUILDERS
from .errors import InvalidExample, WeakfError
from .report import SUITES, EvaluationFailure, SuiteConfig, render_json, render_text, run_suite


def _parse_value(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if "," in text:
        return tuple(_parse_value(t) for t in text.split(","))
    return text


def _parse_params(pairs):
    params = {}
    for item in pairs:
        if "=" not in item:
            raise InvalidExample(f"--param expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        if key in params:
            raise InvalidExample(f"--param {key} is given more than once")
        params[key] = _parse_value(val.strip())
    return params


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weakf",
        description="verify weak metric f-structures on catalog charts",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    v = subs.add_parser("verify", help="run verification suites on an example")
    v.add_argument(
        "--example", required=True,
        help=f"catalog example name ({', '.join(sorted(BUILDERS))})",
    )
    v.add_argument(
        "--param", action="append", default=[], metavar="K=V",
        help="example parameter, repeatable (e.g. --param n=2 --param t=0.1)",
    )
    v.add_argument(
        "--suites", default="all",
        help=f"comma list from {{{','.join(SUITES)}}} or 'all'",
    )
    v.add_argument("--samples", type=int, default=SuiteConfig.samples)
    v.add_argument("--seed", type=int, default=SuiteConfig.seed)
    v.add_argument("--tol-exact", type=float, default=SuiteConfig.tol_exact)
    v.add_argument("--tol-curv", type=float, default=SuiteConfig.tol_curvature)
    v.add_argument("--format", choices=("json", "text"), default=SuiteConfig.fmt)
    v.add_argument("--out", default=None, help="also write the report here")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0

    if args.suites == "all":
        suites = SUITES
    else:
        suites = tuple(s.strip() for s in args.suites.split(","))
    try:
        params = _parse_params(args.param)
        config = SuiteConfig(
            example=args.example,
            params=params,
            suites=suites,
            samples=args.samples,
            seed=args.seed,
            tol_exact=args.tol_exact,
            tol_curvature=args.tol_curv,
            fmt=args.format,
        )
        report = run_suite(config)
    except InvalidExample as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvaluationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except WeakfError as exc:
        print(f"error: internal evaluation failure: {exc}", file=sys.stderr)
        return 3

    text = render_json(report) if args.format == "json" else render_text(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    sys.stdout.write(text)
    return 0 if report["overall"]["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
