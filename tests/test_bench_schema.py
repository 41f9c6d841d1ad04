"""Schema smoke test of the benchmark script ``bench/run.py``.

Runs ``bench/run.py`` for zero seconds (one round of every case) and checks
only the shape of what it prints: the last line is the JSON result, the run
is correct with no failed call, and every metric that ``BENCHMARK.json``
declares is present with its unit -- the end-to-end metrics of an untraced
run, and the per-layer metrics of a traced one.  A per-layer metric is
printed only if its span ran or its counter moved, so a change that stops
calling a traced function drops its name.  Timings are not checked, because
wall-clock gates flake.
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bench_run_prints_every_declared_metric():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "default", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert info["workload"] == "default" and info["error_rate"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in declared:
        assert metric["name"] in result["metrics"], metric["name"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def _reject_constant(name):
    raise ValueError(f"non-finite number in the result line: {name}")


def test_traced_bench_run_prints_every_declared_layer_metric():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "default", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # json.loads accepts NaN and Infinity unless parse_constant rejects them
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for metric in declared:
        assert metric["name"] in result["metrics"], metric["name"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"], metric["name"]
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
