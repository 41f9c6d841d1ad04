"""Benchmark cases: seeded inputs, ``laxchain`` command lines and output checks.

Every case is one kind of CLI call at a fixed input size.  ``calls(seed,
workload, workdir)`` builds the case's input pool: ``pool`` calls, input
``i`` drawn from ``random.Random("<seed>/<case>/<i>")``, so the same seed
always gives the same command lines.  The workload sets how wide the exact
inputs are (:data:`WORKLOADS`).  Each :class:`Call` carries the number of
operations it performs (samples, RK4 steps or solves) and a ``check`` that
inspects what the command wrote and returns ``(ok, detail)``.
"""

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

# The README's period-4 trajectory: curve w^2 = z^3 - z and this chain.  It
# passes a pole at x ~ 1.29; every span below ends by x = 0.025.
CURVE = (Fraction(0), Fraction(-1), Fraction(0))  # c2, c1, c0
CURVE_ARG = "0,-1,0"
BASE_CHAIN = (-0.82, -0.31, 0.28, 0.77)

GAMMA_FLOW_H = 1e-4
VW_FLOW_H = 1e-4
# |gamma|, |V|, |W| must stay below this along every span.
STATE_BOUND = 50.0
# Relative drift of the coupling product and absolute drift (scaled by
# max(1, |F(z)|)) of the spectral value, both first integrals of the flows.
DRIFT_TOL = 1e-9
# The elliptic branch conserves (wp')^2 - F(wp); the CLI reports its drift.
ENERGY_TOL = 1e-8
# The bounded branch of wp oscillates in [e3, e2]; RK4 may overshoot by this.
WP_EPS = 1e-6


@dataclass(frozen=True)
class Draws:
    """How wide the exact inputs of a workload are."""

    max_num: int  # `verify --max-num`: numerator bound of the drawn rationals
    max_den: int  # `verify --max-den`: denominator bound
    r_max: int  # bound on the integer entries of the sharp commutant's r


# `default` is the CLI's own draw bounds; `wide` widens every exact input.
WORKLOADS = {
    "default": Draws(max_num=1000, max_den=8, r_max=5),
    "wide": Draws(max_num=10**9, max_den=10**6, r_max=10**6),
}


@dataclass
class Call:
    argv: list
    ops: int
    check: callable
    stdout: str = field(default="", repr=False)


@dataclass(frozen=True)
class Case:
    product: str  # certify | simulate | commutant
    name: str
    unit: str  # unit of the end-to-end rate
    build: callable  # (rng, stem, draws) -> Call
    pool: int  # inputs per seed; every round runs all of them
    reps: int = 1  # calls of each input per round
    lapack_share: float = 0.0  # share of a call's time spent in LAPACK

    @property
    def metric(self):
        return f"{self.product}.{self.name}.{self.unit.split('/')[0]}_per_s"

    def calls(self, seed, workload, workdir):
        stem = os.path.join(workdir, f"{self.product}.{self.name}")
        return [
            self.build(random.Random(f"{seed}/{self.product}.{self.name}/{i}"),
                       f"{stem}.{i}", WORKLOADS[workload])
            for i in range(self.pool)
        ]


def _decimal_list(values, digits=9):
    return ",".join(repr(round(float(v), digits)) for v in values)


def _fraction_list(values):
    return ",".join(f"{q.numerator}/{q.denominator}" for q in values)


def _curve_eval(z):
    c2, c1, c0 = CURVE
    return ((z + float(c2)) * z + float(c1)) * z + float(c0)


def _read_csv(path, value_cols):
    """Row count, min and max over ``value_cols``; non-finite -> (-inf, inf)."""
    rows = 0
    lo, hi = math.inf, -math.inf
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            rows += 1
            for c in value_cols:
                x = float(row[c])
                if not math.isfinite(x):
                    return rows, -math.inf, math.inf
                lo, hi = min(lo, x), max(hi, x)
    return rows, lo, hi


# ---------------------------------------------------------------------------
# certify: `verify --suite <s>` at the default draw bounds
# ---------------------------------------------------------------------------

def _certify(suite, samples):
    def build(rng, stem, draws):
        out = stem + ".json"
        seed = rng.randrange(2**31)
        argv = [
            "verify", "--suite", suite, "--samples", str(samples),
            "--seed", str(seed), "--workers", "1",
            "--max-num", str(draws.max_num), "--max-den", str(draws.max_den),
            "--out", out,
        ]

        def check(call):
            with open(out, "rb") as fh:
                raw = fh.read()
            digest = hashlib.sha256(raw).hexdigest()
            report = json.loads(raw)
            ok = (
                report["suite"] == suite
                and report["samples"] == samples
                and report["passes"] == samples
                and report["failures"] == []
            )
            if suite == "lax-y":
                per_sample = report.get("details", {}).get("samples", {})
                ok = ok and len(per_sample) == samples and all(
                    info.get("negative_control_nonzero") is True
                    for info in per_sample.values()
                )
            return ok, digest

        return Call(argv, samples, check)

    return build


# ---------------------------------------------------------------------------
# simulate: RK4 through `simulate`, the bounded branch through `elliptic`
# ---------------------------------------------------------------------------

def _perturbed_chain(rng, period, scale):
    tiles = period // len(BASE_CHAIN)
    return [g + rng.uniform(-scale, scale) for g in BASE_CHAIN * tiles]


def _vw_from_gamma(g):
    """Couplings V_n, W_n induced by a gamma chain on the README curve."""
    n = len(g)
    c2 = float(CURVE[0])
    v = [
        _curve_eval(g[i]) / ((g[i] - g[i - 1]) * (g[i] - g[(i + 1) % n]))
        for i in range(n)
    ]
    w = [-c2 - g[i] - g[(i + 1) % n] for i in range(n)]
    return v, w


def _check_simulate(csv_path, summary_path, steps, period, value_cols):
    def check(call):
        with open(summary_path) as fh:
            summary = json.load(fh)
        rows, lo, hi = _read_csv(csv_path, value_cols)
        worst = max(-lo, hi)
        ok = rows == (steps + 1) * period and worst < STATE_BOUND
        for name, inv in summary["invariants"].items():
            if name == "coupling_product":
                scale = max(abs(inv["initial"]), 1e-300)
                ok = ok and inv["max_drift"] <= DRIFT_TOL * scale
            else:
                scale = max(1.0, abs(inv["expected"]))
                ok = ok and inv["max_drift"] <= DRIFT_TOL * scale
        return ok, f"max|state|={worst:.6g}"

    return check


def _simulate_gamma(flow, period, steps, scale):
    def build(rng, stem, draws):
        csv_path, out = stem + ".csv", stem + ".json"
        gamma = _perturbed_chain(rng, period, scale)
        argv = [
            "simulate", "--flow", flow, "--curve", CURVE_ARG,
            "--gamma=" + _decimal_list(gamma), "--h", repr(GAMMA_FLOW_H),
            "--steps", str(steps), "--csv", csv_path, "--out", out,
        ]
        return Call(argv, steps, _check_simulate(csv_path, out, steps, period, [3]))

    return build


def _simulate_vw(flow, period, steps, scale):
    def build(rng, stem, draws):
        csv_path, out = stem + ".csv", stem + ".json"
        v, w = _vw_from_gamma(_perturbed_chain(rng, period, scale))
        argv = [
            "simulate", "--flow", flow, "--v=" + _decimal_list(v, 12),
            "--w=" + _decimal_list(w, 12), "--h", repr(VW_FLOW_H),
            "--steps", str(steps), "--csv", csv_path, "--out", out,
        ]
        return Call(argv, steps, _check_simulate(csv_path, out, steps, period, [3, 4]))

    return build


def _elliptic(y_max, h):
    steps = int(round(y_max / h))

    def build(rng, stem, draws):
        csv_path = stem + ".csv"
        # three distinct real roots e3 < e2 < e1, so the bounded branch exists
        e1 = Fraction(rng.randint(50, 150), 100)
        e2 = Fraction(rng.randint(-30, 30), 100)
        e3 = Fraction(rng.randint(-150, -50), 100)
        c2 = -(e1 + e2 + e3)
        c1 = e1 * e2 + e1 * e3 + e2 * e3
        c0 = -e1 * e2 * e3
        argv = [
            "elliptic", "--curve=" + _fraction_list((c2, c1, c0)),
            "--y-max", repr(y_max), "--h", repr(h), "--csv", csv_path,
        ]

        def check(call):
            words = call.stdout.split()
            # "wrote <n> samples to <csv>; max |energy drift| = <x>"
            written = int(words[1])
            drift = float(words[-1])
            rows, lo, hi = _read_csv(csv_path, [1])
            ok = (
                written == steps + 1
                and rows == steps + 1
                and drift <= ENERGY_TOL
                and float(e3) - WP_EPS <= lo
                and hi <= float(e2) + WP_EPS
            )
            return ok, f"energy drift={drift:.3g}"

        return Call(argv, steps, check)

    return build


# ---------------------------------------------------------------------------
# commutant: exact band-polynomial search and windowed SVD search
# ---------------------------------------------------------------------------

def _commutant_sharp(band, degree):
    def build(rng, stem, draws):
        out = stem + ".json"
        r = [rng.randint(-draws.r_max, draws.r_max) for _ in range(3)]
        r.append(rng.randint(1, draws.r_max) * rng.choice((-1, 1)))  # r3 != 0
        argv = [
            "commutant", "--variant", "sharp", "--band", str(band),
            "--degree", str(degree), "--r=" + ",".join(map(str, r)), "--out", out,
        ]

        def check(call):
            with open(out) as fh:
                payload = json.load(fh)
            ok = payload["dimension"] >= 1 and payload["verified_exact"] is True
            return ok, f"dimension={payload['dimension']}"

        return Call(argv, 1, check)

    return build


def _commutant_flat(band, window):
    def build(rng, stem, draws):
        out = stem + ".json"
        r = (round(rng.uniform(-1.0, 1.0), 3), round(rng.uniform(0.5, 2.0), 3))
        argv = [
            "commutant", "--variant", "flat", "--band", str(band),
            "--window", window, "--r=" + _decimal_list(r), "--out", out,
        ]

        def check(call):
            with open(out) as fh:
                payload = json.load(fh)
            return payload["nullity"] >= 1, f"nullity={payload['nullity']}"

        return Call(argv, 1, check)

    return build


# Sizes are per call; a round runs every input of every pool ``reps`` times.
# Calls are small (~0.02-0.15 s per certify sample, ~0.05-0.1 s per simulate
# call, one sharp solve ~0.6-1.2 s), so a 45 s run holds 6-9 rounds,
# and each input's median call time is taken.  Certify and sharp
# pools hold several inputs because their cost depends on the drawn values
# (a lax-x sample costs 0.65-1.6x another), so that a seed's pool costs
# about what any other seed's does.
# Simulate and flat calls cost the same for any input and are cheap, so
# they repeat one input instead, which gives their medians more calls.
CASES = (
    Case("certify", "chain", "samples/s", _certify("chain", 1), pool=4),
    Case("certify", "lax-x", "samples/s", _certify("lax-x", 1), pool=4),
    Case("certify", "lax-y", "samples/s", _certify("lax-y", 1), pool=2),
    Case("certify", "factorization", "samples/s", _certify("factorization", 4), pool=5),
    Case("simulate", "dkn-n4", "steps/s", _simulate_gamma("dkn", 4, 250, 1e-3),
         pool=1, reps=2),
    Case("simulate", "dkn-n64", "steps/s", _simulate_gamma("dkn", 64, 40, 1e-4),
         pool=1, reps=2),
    Case("simulate", "vw-n64", "steps/s", _simulate_vw("vw", 64, 75, 1e-4),
         pool=1, reps=2),
    Case("simulate", "flow2-n64", "steps/s", _simulate_vw("flow2", 64, 30, 1e-4),
         pool=1, reps=2),
    Case("simulate", "reduced_t2-n4", "steps/s",
         _simulate_gamma("reduced_t2", 4, 75, 1e-3), pool=1, reps=2),
    Case("simulate", "elliptic", "steps/s", _elliptic(0.5, 1e-3), pool=1, reps=2),
    Case("commutant", "sharp", "solves/s", _commutant_sharp(3, 9), pool=2),
    # the windowed SVD is ~47% of a flat call (cProfile, one BLAS thread)
    Case("commutant", "flat", "solves/s", _commutant_flat(3, "0,40"), pool=1, reps=2,
         lapack_share=0.5),
)

PRODUCTS = ("certify", "simulate", "commutant")
