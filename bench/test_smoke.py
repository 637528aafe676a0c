"""Smoke test of the benchmark harness on one tiny case (2 samples).

    python3 -m pytest bench/test_smoke.py

Checks that both modes print the result line with every metric named in
BENCHMARK.json, that the checks pass, and that the traced run's layer self
times are >= 0 and add up, with an uncovered remainder in [0, wall], to its
wall time. Not a timing gate.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(trace):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed(trace, section):
    digests, result = run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert list(digests["report_digests"]) == ["hypersphere n=1"]


def test_layer_times_add_up_to_traced_wall():
    _, result = run(1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    layers = [v for k, v in m.items() if k.startswith("layer.")]
    assert sum(layers) + m["trace.uncovered_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert min(layers) >= 0
    assert 0 <= m["trace.uncovered_s"] <= m["trace.wall_s"]
    assert (ROOT / "bench" / "out" / "trace-smoke-seed3.json").is_file()


def test_refuses_without_source_tree():
    bare = ROOT / "bench" / "out" / "bare"
    bench = bare / "bench"
    bench.mkdir(parents=True, exist_ok=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for f in (ROOT / "bench").iterdir():
        if f.is_file() and not f.name.startswith("test_"):
            (bench / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
