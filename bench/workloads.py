"""Workload definitions: which `weakf verify` cases each workload runs.

A case is one ``run_suite`` + ``render_json`` call; it is the unit of
attempted and failed work. Every case runs at 50 samples (``smoke`` at 2)
with the seed given to the benchmark.

``must_fail`` lists report entries ("suite.identity") that mathematically
cannot pass on the case's object, so their ``fail`` verdict is a property
the report must show:

* constant-coefficient packs (flat, rotated, product, and the linear
  subspace whose induced pack is the product pack) have d eta = 0 while the
  fundamental form Phi has rank 2n, so Phi = d eta (weak_almost_S) fails;
* the Sasakian 3-sphere and the standard hypersphere have d eta = Phi != 0,
  so d eta = 0 (weak_almost_C) fails;
* the "weak" hypersphere skew cannot normalise the Reeb data, so the
  pairing eta(xi) = 1 and Q xi = xi fail.

``broken_identities`` names the defining identities the independent numpy
recomputation must find violated; every other defining identity must hold.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_SUITES = ("axioms", "classes", "frames", "theorems", "submanifold")

NOT_ALMOST_S = ("classes.weak_almost_S",)
NOT_ALMOST_C = ("classes.weak_almost_C",)
WEAK_REEB = ("eta_xi_pairing", "q_fixes_xi")


@dataclass(frozen=True)
class Case:
    example: str
    params: tuple = ()              # (key, value) pairs, in CLI order
    suites: tuple = ALL_SUITES
    must_fail: tuple = ()           # "suite.identity" entries that must fail
    broken_identities: tuple = ()   # defining identities that must not hold

    @property
    def label(self):
        text = " ".join([self.example] + [f"{k}={v}" for k, v in self.params])
        if self.suites != ALL_SUITES:
            text += " --suites " + ",".join(self.suites)
        return text

    def required_failures(self):
        """The ``must_fail`` entries whose suite this case runs."""
        return tuple(e for e in self.must_fail if e.split(".")[0] in self.suites)


WORKLOADS = {
    # The README invocations: the everyday small-dimension run, where fixed
    # per-call costs dominate.
    "catalog": (
        Case("sasakian_s3", must_fail=NOT_ALMOST_C),
        Case("flat_pack", must_fail=NOT_ALMOST_S),
        Case("rotated_pack", must_fail=NOT_ALMOST_S),
        Case("rotated_pack", (("t", 0.1), ("rotation", "givens:0:2:0.3")),
             must_fail=NOT_ALMOST_S),
        Case("product_pack", (("n", 1), ("s", 2)), must_fail=NOT_ALMOST_S),
        Case("linear_subspace", (("n", 1), ("s", 2)), must_fail=NOT_ALMOST_S),
        Case("hypersphere", (("n", 1),), must_fail=NOT_ALMOST_C),
        Case("hypersphere", (("n", 1), ("ambient_skew", "weak")),
             must_fail=tuple(f"axioms.{k}" for k in WEAK_REEB),
             broken_identities=WEAK_REEB),
    ),
    # Nested-jet pullbacks and repeated ambient builds dominate.
    "embedded": (
        Case("hypersphere", (("n", 2),), must_fail=NOT_ALMOST_C),
        Case("hypersphere", (("n", 3),), must_fail=NOT_ALMOST_C),
        Case("linear_subspace", (("n", 2), ("s", 2)), must_fail=NOT_ALMOST_S),
    ),
    # Constant fields: the jet layer does almost nothing, einsum dominates.
    "flat": (
        Case("flat_pack", (("n", 4), ("s", 2)), must_fail=NOT_ALMOST_S),
        Case("rotated_pack", (("n", 4), ("s", 2)), must_fail=NOT_ALMOST_S),
    ),
    # Suite subsets: only thm32_chain needs the order-2 metric, so eager or
    # whole-frame evaluation would slow these down.
    "partial": (
        Case("hypersphere", (("n", 3),), ("axioms", "classes", "frames"),
             must_fail=NOT_ALMOST_C),
        Case("hypersphere", (("n", 3),), ("theorems",)),
        Case("flat_pack", (("n", 4), ("s", 2)), ("classes",),
             must_fail=NOT_ALMOST_S),
    ),
    # One tiny case for the harness smoke test; not a benchmark workload.
    "smoke": (
        Case("hypersphere", (("n", 1),), must_fail=NOT_ALMOST_C),
    ),
}

SAMPLES = {"smoke": 2}
DEFAULT_SAMPLES = 50
