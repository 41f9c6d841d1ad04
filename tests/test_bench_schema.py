"""Schema smoke test of the benchmark script ``bench/run.py``.

Runs ``bench/run.py`` for zero seconds (one round of every case) and checks
only the shape of what it prints: the last line is the JSON result, the run
is correct with no failed call, and every end-to-end metric that
``BENCHMARK.json`` declares is present with its unit.  Timings are not
checked, because wall-clock gates flake.
"""

import json
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
