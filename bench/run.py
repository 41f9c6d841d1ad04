"""laxchain benchmark: closed-loop CLI workloads, end-to-end rates, layer trace.

Run from the repository root:

    python3 bench/run.py --workload default --seed 1 --seconds 45 --trace 0

One client in one process calls ``laxchain.cli.main([...])`` in-process, one
call after another (``--workers 1``, one BLAS thread).  The seed
fixes a pool of inputs per case of ``cases.CASES``; a round runs every
input of every pool once, and rounds repeat until ``--seconds`` have
passed.  Workloads (``cases.WORKLOADS``):

* ``default`` -- the CLI's own draw bounds for the exact inputs;
* ``wide``    -- far wider rationals in certify and wider integer ``r`` in
  the sharp commutant; the float inputs are the same as in ``default``.

``--trace 0`` prints the end-to-end metrics: every case's rate, its pool's
operations over the sum of each input's median call time; ``setup_s`` (fresh
interpreter to the end of the warm-up calls, median of several) and
``peak_rss_mb``.  Every timed call sits between two runs of the calibration
loops, and its time is rescaled to the host speed at which they take
``CALIBRATION_REF_MS`` (see ``rescale``).  ``--trace 1`` runs the
pools untraced and traced (see ``tracing.py``) until ``--seconds`` have
passed and prints the per-layer metrics, which are not rescaled.  Every
call's output is checked; the last line of standard output is the JSON
result, the line before it holds provenance, the host calibration times and
the certify report hashes.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from cases import BASE_CHAIN, CASES, GAMMA_FLOW_H, PRODUCTS, STATE_BOUND, WORKLOADS
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# One BLAS thread: with two, the windowed SVD waits on whichever core a
# neighbour process holds, and ran 2.5x slower whenever one did.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

MIN_ROUNDS = 3
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 120
# RK4 per-step cost at a long chain, timed directly (not through the CLI).
RK4_LONG_PERIOD = 1024
RK4_LONG_STEPS = 4
RK4_LONG_REPEATS = 3
KERNEL_REPEATS = 5
KERNEL_TARGET_S = 0.05
# Host speed at which the rescaled times are reported: each calibration loop
# takes this long.
CALIBRATION_REF_MS = {"fraction": 10.0, "lapack": 5.0}


def _import_laxchain():
    """Import the package from this checkout's ``src``; None if absent."""
    sys.path.insert(0, SRC)
    try:
        import laxchain.cli
    except ImportError as err:
        print(f"bench: cannot import laxchain from {SRC}: {err}", file=sys.stderr)
        return None
    where = os.path.dirname(os.path.abspath(laxchain.cli.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        print(f"bench: laxchain imported from {where}, not {SRC}", file=sys.stderr)
        return None
    return laxchain.cli


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def calibrate_ms():
    """Times of two fixed loops: ``fraction``, stdlib exact rational
    arithmetic, which tracks the host's current speed for interpreter-bound,
    allocating code; ``lapack``, two SVDs of a fixed 120x120 matrix, which
    tracks it for LAPACK.  The two do not slow alike."""
    import numpy

    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1500):
        acc = acc * Fraction(i % 97 + 1, 7) + Fraction(1, i)
        if acc.denominator > 10**60:
            acc = Fraction(acc.numerator % 10**9, acc.denominator % 10**9 + 1)
    t1 = time.perf_counter()
    matrix = numpy.random.default_rng(0).standard_normal((120, 120))
    t2 = time.perf_counter()
    for _ in range(2):
        numpy.linalg.svd(matrix)
    t3 = time.perf_counter()
    return {"fraction": 1e3 * (t1 - t0), "lapack": 1e3 * (t3 - t2)}


def rescale(seconds, before, after, lapack_share):
    """A time measured between two calibration runs, rescaled to the host
    speed at which each loop takes ``CALIBRATION_REF_MS``.  The host runs
    identical code up to ~1.5x slower from one minute to the next, and the
    loops slow with it (``NOTES.md``, "Host speed varies").  A case that
    spends ``lapack_share`` of its time in LAPACK follows the two loops in
    that proportion."""
    def slowdown(probe):
        return ((1 - lapack_share) * probe["fraction"] / CALIBRATION_REF_MS["fraction"]
                + lapack_share * probe["lapack"] / CALIBRATION_REF_MS["lapack"])

    return seconds / (0.5 * (slowdown(before) + slowdown(after)))


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance():
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    import numpy

    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
    }


class Runner:
    """Runs CLI calls in-process and tallies attempted and failed calls."""

    def __init__(self, cli, workdir):
        self.cli = cli
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def run(self, call, tracer=None):
        """Run one call; returns (ok, detail, wall seconds)."""
        self.attempted += 1
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                if tracer is None:
                    rc = self.cli.main(call.argv)
                else:
                    rc = tracer.call("cli.main", self.cli.main, call.argv)
                wall = time.perf_counter() - t0
            call.stdout = buf.getvalue()
            ok, detail = call.check(call) if rc == 0 else (False, f"exit {rc}")
        except Exception as err:  # a failed call is counted, not fatal
            ok, detail, wall = False, f"{type(err).__name__}: {err}", 0.0
        if not ok:
            self.failed += 1
            print(f"bench: FAILED {' '.join(call.argv)}: {detail}", file=sys.stderr)
        return ok, detail, wall

    def run_case(self, case, calls, tracer=None):
        """Run a case's calls; returns (ops, wall, certify report hashes)."""
        ops = 0
        wall = 0.0
        digests = []
        for call in calls:
            ok, detail, dt = self.run(call, tracer)
            ops += call.ops
            wall += dt
            if case.product == "certify":
                digests.append(detail if ok else None)
        return ops, wall, digests


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def warm_up(cli, workdir):
    """One small call per command, paying every lazy load (LAPACK included)."""
    path = lambda name: os.path.join(workdir, name)
    argvs = [
        ["verify", "--suite", "factorization", "--samples", "1", "--seed", "1",
         "--workers", "1", "--out", path("warm-verify.json")],
        ["simulate", "--flow", "dkn", "--curve", "0,-1,0",
         "--gamma=-0.82,-0.31,0.28,0.77", "--h", "1e-4", "--steps", "10",
         "--csv", path("warm-sim.csv"), "--out", path("warm-sim.json")],
        ["elliptic", "--curve", "0,-1,0", "--y-max", "0.01", "--h", "1e-3",
         "--csv", path("warm-wp.csv")],
        ["commutant", "--variant", "sharp", "--band", "1", "--degree", "2",
         "--out", path("warm-sharp.json")],
        ["commutant", "--variant", "flat", "--band", "3", "--window", "0,40",
         "--out", path("warm-flat.json")],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        return all(cli.main(argv) == 0 for argv in argvs)


def time_setup(runner, k):
    """Wall time from spawning a fresh interpreter to the end of its warm-up
    calls, or None if it failed.  The child reports the time itself on the
    system-wide monotonic clock, so interpreter teardown is not counted.
    Not rescaled: spawning and importing slow less than the calibration
    loops."""
    workdir = os.path.join(runner.workdir, f"setup-{k}")
    os.makedirs(workdir, exist_ok=True)
    runner.attempted += 1
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", workdir,
            "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    words = out.split()
    if proc.returncode == 0 and len(words) == 2 and words[0] == "ready":
        return float(words[1])
    runner.failed += 1
    print(f"bench: set-up probe failed: {out!r}", file=sys.stderr)
    return None


def setup_probe(workdir, spawned_at):
    cli = _import_laxchain()
    if cli is None or not warm_up(cli, workdir):
        return 2
    print("ready", time.monotonic() - spawned_at, flush=True)
    return 0


# ---------------------------------------------------------------------------
# untraced measurement
# ---------------------------------------------------------------------------

def measure(cases, runner, pools, seed, seconds):
    """Run every input of every pool ``reps`` times per round until
    ``seconds`` have passed, and time one set-up after every round (more
    at the end, up to ``SETUP_RUNS``), so that set-ups meet the same
    minutes of host speed as the calls.  Returns each case's rate, its
    pool's operations over the sum of every input's median rescaled call
    time; the median set-up time; also the certify report hashes, the
    calibration times and the number of rounds."""
    times = {case.metric: [[] for _ in range(case.pool)] for case in cases}
    schedule = [(case, i) for case in cases for i in range(case.pool)
                for _ in range(case.reps)]
    digests = {}
    setups = []
    probes = [calibrate_ms()]
    start = time.perf_counter()
    rnd = 0
    while rnd < MIN_ROUNDS or time.perf_counter() - start < seconds:
        # a fresh order every round, so no call keeps meeting the same phase
        # of whatever else slows the host
        random.Random(f"{seed}/order/{rnd}").shuffle(schedule)
        for case, i in schedule:
            ok, detail, wall = runner.run(pools[case.metric][i])
            probes.append(calibrate_ms())
            if ok:
                times[case.metric][i].append(
                    rescale(wall, probes[-2], probes[-1], case.lapack_share))
            if case.product != "certify" or not ok:
                continue
            # a certify report must hash the same in every round
            if digests.setdefault((case.name, i), detail) != detail:
                runner.failed += 1
                print(f"bench: {case.name} report {i} changed in round {rnd}",
                      file=sys.stderr)
        rnd += 1
        setups.append(time_setup(runner, len(setups)))
        probes.append(calibrate_ms())  # the next call's "before"
    while len(setups) < SETUP_RUNS:
        setups.append(time_setup(runner, len(setups)))
    setups = [t for t in setups if t is not None]
    rates = {}
    for case in cases:
        if all(times[case.metric]):
            total = sum(statistics.median(t) for t in times[case.metric])
            ops = sum(call.ops for call in pools[case.metric])
            rates[case.metric] = ops / total
        else:  # an input never succeeded
            rates[case.metric] = None
    by_case = {}
    for (name, i), digest in sorted(digests.items()):
        by_case.setdefault(name, []).append(digest)
    setup = statistics.median(setups) if setups else None
    return rates, setup, by_case, probes, rnd


# ---------------------------------------------------------------------------
# traced measurement
# ---------------------------------------------------------------------------

def layer_metrics(case, spans, counts, ops, calls):
    """Per-layer metrics of one case from its traced spans and counts."""
    p = f"{case.product}.{case.name}."
    out = {}

    def put(name, value, unit):
        out[p + name] = (value, unit)

    if case.product == "certify":
        for name, s in spans.items():
            module = name.split(".")[0]
            if name == "darboux.transformed_operator":
                put(f"{name}.calls", s["calls"] / ops, "count")
            elif module in ("darboux", "operators", "flows"):
                put(f"{name}.calls", s["calls"] / ops, "count")
                put(f"{name}.self_ms", s["self_ms"] / ops, "ms")
        draws = spans.get("verify.draw_sample")
        if draws:
            put("verify.draw_sample.self_ms", draws["self_ms"] / ops, "ms")
            put("verify.draw_sample.draws_per_accept",
                counts.get("verify.draw_sample.draws", 0) / draws["calls"], "ratio")
        for key, n in counts.items():
            if key.startswith("scalars."):
                put(f"{key}.count", n / ops, "count")
    elif case.product == "simulate":
        solver = "elliptic.wp_trajectory" if case.name == "elliptic" else "flows.rk4_integrate"
        put(f"{solver}.us_per_step", 1e3 * spans[solver]["ms"] / ops, "us")
        put("cli.main.output_ms",
            (spans["cli.main"]["ms"] - spans[solver]["ms"]) / calls, "ms")
    elif case.name == "sharp":
        bands = spans["spectral.commutator_polynomial_bands"]
        put("spectral.commutator_polynomial_bands.calls", bands["calls"] / ops, "count")
        put("spectral.commutator_polynomial_bands.self_ms", bands["self_ms"] / ops, "ms")
        put("spectral.exact_commutator_is_zero.self_ms",
            spans["spectral.exact_commutator_is_zero"]["self_ms"] / ops, "ms")
        put("rational_linalg.rref.ms", spans["rational_linalg.rref"]["ms"] / ops, "ms")
        for dim in ("rows", "cols"):
            put(f"rational_linalg.rref.{dim}",
                counts[f"rational_linalg.rref.{dim}"] / ops, "count")
        for key, n in counts.items():
            if key.startswith("scalars.fraction."):
                put(f"{key}.count", n / ops, "count")
    else:
        put("spectral.commutant_solve_windowed.ms",
            spans["spectral.commutant_solve_windowed"]["ms"] / ops, "ms")
    return out


def scalar_kernels(seed, draws):
    """ns per op of the scalar kernels on operands of a seeded certify sample
    drawn at the workload's bounds; the nested jets are Jet_x(Jet_y(Q(w)))
    at orders (2, 2)."""
    import timeit

    from laxchain.darboux import darboux_data
    from laxchain.elliptic import exact_wp_jet
    from laxchain.flows import GammaChain, prolong_gamma_jets
    from laxchain.verify import draw_sample

    config = draw_sample(seed, 0, draws.max_num, draws.max_den)
    jets = prolong_gamma_jets(GammaChain(config.gamma, config.curve), 3)
    data = darboux_data(jets, exact_wp_jet(config.curve, config.z0, order=3, sign=1))
    jx = data.chi1(0) + data.chi2(0)
    jy = data.z0 - data.gamma_at(1)
    value = lambda s: s.coeffs[0].coeffs[0]
    qx = value(jx)  # both components nonzero: the general product
    qy = value(jy) + value(data.chi2(1))
    operands = {"jx": jx, "jy": jy, "qx": qx, "qy": qy, "fx": qx.a, "fy": qy.a}

    def ns(stmt):
        timer = timeit.Timer(stmt, globals=operands)
        number, took = timer.autorange()
        number = max(1, int(number * KERNEL_TARGET_S / max(took, 1e-9)))
        runs = timer.repeat(KERNEL_REPEATS, number)
        return 1e9 * statistics.median(runs) / number

    return {
        "scalars.fraction.mul_ns": ns("fx * fy"),
        "scalars.quadext.mul_ns": ns("qx * qy"),
        "scalars.quadext.div_ns": ns("qx / qy"),
        "scalars.jet2.mul_ns": ns("jx * jy"),
        "scalars.jet2.div_ns": ns("jx / jy"),
    }


def rk4_long(seed, runner):
    """us per dkn RK4 step on a bounded tiled chain of period 1024."""
    import math

    from laxchain.curves import SpectralCurve
    from laxchain.errors import LaxchainError
    from laxchain.flows import GammaChain, rk4_integrate

    rng = random.Random(f"{seed}/rk4-long")
    values = [g + rng.uniform(-1e-4, 1e-4) for g in BASE_CHAIN * (RK4_LONG_PERIOD // 4)]
    chain = GammaChain(tuple(values), SpectralCurve.elliptic(0.0, -1.0, 0.0))
    per_step = []
    for _ in range(RK4_LONG_REPEATS):
        runner.attempted += 1
        t0 = time.perf_counter()
        try:
            traj = rk4_integrate(chain, "dkn", GAMMA_FLOW_H, RK4_LONG_STEPS)
        except LaxchainError as err:
            runner.failed += 1
            print(f"bench: N={RK4_LONG_PERIOD} RK4 failed: {err}", file=sys.stderr)
            continue
        per_step.append(1e6 * (time.perf_counter() - t0) / RK4_LONG_STEPS)
        worst = float(abs(traj.states).max())
        if not (math.isfinite(worst) and worst < STATE_BOUND):
            runner.failed += 1
    return statistics.median(per_step) if per_step else None


def _pass(cases, runner, pools, tracer=None):
    """One round over every pool, traced when ``tracer`` is given; returns the
    wall time per product, the certify report hashes, and (traced only)
    per-layer metrics, counts per case and span summaries per case."""
    walls = dict.fromkeys(PRODUCTS, 0.0)
    digests, values, counts, summaries = {}, {}, {}, {}
    for case in cases:
        calls = pools[case.metric]
        if tracer is None:
            _, wall, digests[case.name] = runner.run_case(case, calls)
        else:
            mark = tracer.mark()
            ops, wall, digests[case.name] = runner.run_case(case, calls, tracer)
            spans, counts[case.name] = tracer.summary(mark)
            summaries[case.name] = spans
            try:
                values.update(
                    layer_metrics(case, spans, counts[case.name], ops, len(calls)))
            except KeyError as err:  # a failed call left a layer without spans
                runner.failed += 1
                print(f"bench: {case.name}: no span or count {err}", file=sys.stderr)
        walls[case.product] += wall
    return walls, digests, values, counts, summaries


def measure_traced(cases, runner, pools, workload, seed, seconds):
    samples = {}  # metric -> (unit, values over iterations)
    reference = None
    probes = []
    # untimed: the first pass after start-up runs slower than the rest
    _pass(cases, runner, pools)
    start = time.perf_counter()
    iteration = 0
    while iteration < 1 or time.perf_counter() - start < seconds:
        probes.append(calibrate_ms())
        tracer = Tracer()
        # alternate the order so drift in host speed does not bias the ratio
        for traced_turn in ((False, True) if iteration % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer.installed():
                    traced, t_digests, values, counts, summaries = _pass(
                        cases, runner, pools, tracer)
            else:
                plain, digests, _, _, _ = _pass(cases, runner, pools)
        if reference is None:
            reference = (digests, counts)
        if (t_digests, counts) != reference or digests != reference[0]:
            runner.failed += 1
            print("bench: report hashes or traced counts differ between passes",
                  file=sys.stderr)
        for product in PRODUCTS:
            values[f"{product}.trace.overhead_ratio"] = (
                traced[product] / plain[product], "ratio")
        for name, (value, unit) in values.items():
            samples.setdefault(name, (unit, []))[1].append(value)
        iteration += 1

    metrics = {name: (statistics.median(v), unit) for name, (unit, v) in samples.items()}
    for name, value in scalar_kernels(seed, WORKLOADS[workload]).items():
        metrics[name] = (value, "ns")
    metrics["simulate.dkn-n1024.flows.rk4_integrate.us_per_step"] = (
        rk4_long(seed, runner), "us")
    probes.append(calibrate_ms())
    for loop in CALIBRATION_REF_MS:
        metrics[f"host.calibration.{loop}_ms"] = (
            statistics.median(p[loop] for p in probes), "ms")
    trace_path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    tracer.dump(trace_path, {"workload": workload, "seed": seed, "passes": iteration,
                             "per_case": summaries})
    return metrics, reference[0], probes, iteration


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR",
                        help="internal: warm up in a fresh interpreter")
    parser.add_argument("--spawned-at", type=float,
                        help="internal: monotonic time the probe was spawned")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.setup_probe, args.spawned_at)
    if args.workload is None:
        print("bench: --workload is required", file=sys.stderr)
        return 2
    cli = _import_laxchain()
    if cli is None:
        return 2
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(cli, workdir)
        runner.attempted += 1
        if not warm_up(cli, workdir):
            runner.failed += 1
        pools = {case.metric: case.calls(args.seed, args.workload, workdir)
                 for case in CASES}
        if args.trace:
            metrics, digests, probes, rounds = measure_traced(
                CASES, runner, pools, args.workload, args.seed, args.seconds)
        else:
            rates, setup, digests, probes, rounds = measure(
                CASES, runner, pools, args.seed, args.seconds)
            metrics = {
                "setup_s": (setup, "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            for case in CASES:
                metrics[case.metric] = (rates[case.metric], case.unit)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [name for name, (value, _) in metrics.items() if value is None]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "provenance": provenance(),
        "calibration_ms": {
            loop: {
                "runs": len(probes),
                "median": statistics.median(values),
                "quartiles": statistics.quantiles(values, n=4),
            }
            for loop, values in (
                (loop, [p[loop] for p in probes]) for loop in CALIBRATION_REF_MS)
        },
        "error_rate": runner.failed / runner.attempted,
        "report_sha256": {name: d for name, d in digests.items() if d},
    }
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": runner.failed == 0 and not missing,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if value is not None
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
