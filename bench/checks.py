"""Output checks that do not rely on the program's own verdicts.

Three kinds of check run on every case of every run:

* report properties: every counted entry passes, every entry that was not
  skipped was measured at every sample point, the seed was handed through,
  and the mathematically required failures (``Case.must_fail``) are there;
* the four defining identities, recomputed with plain numpy from
  ``SmoothField.value`` at a seeded subset of the case's sample points, with
  no jets and no ``PackFrame``;
* for embedded cases, the induced metric against J^T gbar J, with J a
  central difference of the float-evaluated embedding.

Each check returns a list of problems; an empty list means the case passed.
"""

from __future__ import annotations

import random

import numpy as np

IDENTITY_TOL = 1e-9     # same scale as the program's tol_exact
BROKEN_FLOOR = 1e-3     # a violated identity must be violated clearly
METRIC_FD_TOL = 1e-7    # central difference with step 1e-5: O(h^2) + rounding
FD_STEP = 1e-5
POINTS_CHECKED = 5


def report_problems(case, report, samples, seed):
    problems = []
    if report["config"]["seed"] != seed or report["config"]["samples"] != samples:
        problems.append("report config does not echo the benchmark seed/samples")
    verdicts = {}
    for suite, entries in report["suites"].items():
        for e in entries:
            key = f"{suite}.{e['identity']}"
            verdicts[key] = e["verdict"]
            if e["counted"] and e["verdict"] != "pass":
                problems.append(f"counted entry {key} is {e['verdict']}")
            if e["verdict"] != "skipped" and e["points"] != samples:
                problems.append(f"{key} measured {e['points']} of {samples} points")
    for key in case.required_failures():
        if verdicts.get(key) != "fail":
            problems.append(f"{key} must fail but is {verdicts.get(key, 'absent')}")
    return problems


def checked_points(points, seed, case_index):
    rng = random.Random(f"{seed}:{case_index}")
    idx = sorted(rng.sample(range(len(points)), min(POINTS_CHECKED, len(points))))
    return [points[i] for i in idx]


def defining_identities(pack, p):
    """Max-abs residuals of the four defining identities at ``p``."""
    f = pack.f.value(p)
    q = pack.Q.value(p)
    g = pack.g.value(p)
    xi = np.array([x.value(p) for x in pack.xi]).reshape(pack.s, -1)
    eta = np.array([e.value(p) for e in pack.eta]).reshape(pack.s, -1)
    return {
        # (f^2)^k_j = -Q^k_j + sum_i xi_i^k eta^i_j
        "f_squared": np.abs(f @ f + q - xi.T @ eta).max(),
        "eta_xi_pairing": np.abs(eta @ xi.T - np.eye(pack.s)).max(),
        "q_fixes_xi": np.abs(q @ xi.T - xi.T).max(),
        # g(fX,fY) - g(X,QY) + sum_i eta^i(X) eta^i(Y) = 0
        "compatibility": np.abs(f.T @ g @ f - g @ q + eta.T @ eta).max(),
    }


def identity_problems(case, pack, points):
    problems = []
    worst = {}
    for p in points:
        for key, val in defining_identities(pack, p).items():
            worst[key] = max(worst.get(key, 0.0), float(val))
    for key, val in worst.items():
        if key in case.broken_identities:
            if not val > BROKEN_FLOOR:
                problems.append(f"{key} must be violated, residual {val:.3e}")
        elif not val <= IDENTITY_TOL:
            problems.append(f"{key} residual {val:.3e} > {IDENTITY_TOL:g}")
    return problems


def induced_metric_problems(sub, pack, points):
    problems = []
    m = sub.domain.dim
    for p in points:
        cols = []
        for a in range(m):
            up = [float(c) for c in p]
            dn = [float(c) for c in p]
            up[a] += FD_STEP
            dn[a] -= FD_STEP
            diff = np.array(sub.embedding(up), dtype=float) - np.array(
                sub.embedding(dn), dtype=float
            )
            cols.append(diff / (2.0 * FD_STEP))
        jac = np.array(cols).T
        iota = np.array(sub.embedding([float(c) for c in p]), dtype=float)
        gbar = sub.ambient_metric.value(iota)
        err = float(np.abs(pack.g.value(p) - jac.T @ gbar @ jac).max())
        if not err <= METRIC_FD_TOL:
            problems.append(f"induced metric differs from J^T gbar J by {err:.3e}")
    return problems
