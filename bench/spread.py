"""Run-to-run spread of the benchmark's metrics.

    python3 bench/spread.py --workload default --seeds 1-10 --seconds 45 [--trace 0]

Runs ``bench/run.py`` once per seed, one run after another, and prints for
every metric the median over the runs and the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    argv = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
    info, result = done.stdout.strip().splitlines()[-2:]
    result = json.loads(result)
    result["info"] = json.loads(info)["info"]
    return result


def table(results):
    """metric -> (median, iqr/median, unit) over a list of result objects."""
    values = {}
    units = {}
    for result in results:
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        out[name] = (med, spread, units[name])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    results = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    for name, (med, spread, unit) in table(results).items():
        print(f"{name:58s} median {med:14.6g} {unit:10s} iqr/median {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
