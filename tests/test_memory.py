"""Repeated runs keep nothing: the program's own memory stays flat."""

import gc
import tracemalloc

from weakf.report import SUITES, SuiteConfig, run_suite

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
