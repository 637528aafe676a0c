"""Repeated runs keep nothing, and a run's peak memory does not follow its
sample count."""

import gc
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

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
