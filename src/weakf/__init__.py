"""weakf: chart-based verification engine for weak metric f-structures.

Builds concrete coordinate realizations of weak metric f-structures (and
their nearly-S / nearly-C / S / f-K-contact refinements), measures the
residual of every defining identity and theorem-level consequence at seeded
sample points, and reports the results deterministically.
"""

__version__ = "0.1.0"

from .charts import Chart, Rows, SmoothField, constant_field, euclidean_metric
from .fstructure import FrameStack, PackFrame, StructurePack, axioms_residual
from .catalog import CatalogObject, make_example
from .report import SuiteConfig, run_suite

__all__ = [
    "__version__",
    "Chart",
    "Rows",
    "SmoothField",
    "constant_field",
    "euclidean_metric",
    "StructurePack",
    "FrameStack",
    "PackFrame",
    "axioms_residual",
    "CatalogObject",
    "make_example",
    "SuiteConfig",
    "run_suite",
]
