"""Command-line front end.

Subcommands:

* ``verify``    -- exact residual suites; JSON report; exit 0 iff all pass
* ``simulate``  -- RK4 trajectories of the lattice flows; CSV + drift summary
* ``commutant`` -- exact or windowed search for commuting operators; JSON
* ``elliptic``  -- bounded-branch Weierstrass integration; CSV
* ``darboux``   -- single-configuration transform dump and residual report

Values may come from a flat INI config file (sections mirror the flag
groups) with command-line flags taking precedence.  Exact fields parse as
rationals ("3/7", "0.25"); numeric step sizes parse as floats.  Reports
carry no timestamps: identical inputs give byte-identical output.
"""

import argparse
import configparser
import functools
import json
import math
import sys

from .curves import SpectralCurve
from .darboux import (
    SolutionConstants,
    chain_problem,
    chain_residuals,
    commutator_x_check,
    commutator_y_check,
    crosscheck_window,
    darboux_data,
    factorization_check,
    point_problem,
    rank2_solution,
    solve_tail_constants,
    transformed_operator,
)
from .elliptic import exact_wp_jet, wp_init_bounded, wp_trajectory
from .errors import AnsatzError, ConfigError, LaxchainError, UnsupportedCurveError
from .flows import (
    FLOWS,
    GammaChain,
    VWChain,
    prolong_gamma_jets,
    rk4_integrate,
    vn_from_gamma,
    wn_from_gamma,
)
from .scalars import Jet, format_scalar, rational
from .spectral import (
    CommutantAnsatz,
    PolynomialBandOperator,
    commutant_solve_exact,
    commutant_solve_windowed,
    commutator_polynomial_bands,
    exact_commutator_is_zero,
    flat_operator,
    sharp_operator,
)
from .verify import (
    DEFAULT_MAX_DEN,
    DEFAULT_MAX_NUM,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    SUITES,
    read_dump,
    replay_config,
    report_to_json,
    run_all,
    run_suite,
)

__all__ = ["main"]


def _parse_rational(text, field):
    try:
        return rational(text)
    except (ValueError, ZeroDivisionError, TypeError) as err:
        raise ConfigError(f"{field}: not a rational: {text!r}") from err


def _parse_float_rational(text, field):
    """A rational that a float can hold, returned exact (float commands)."""
    value = _parse_rational(text, field)
    try:
        float(value)
    except OverflowError as err:
        raise ConfigError(f"{field}: {text!r} is beyond the float range") from err
    return value


def _parse_list(text, field, expect=None, parse=_parse_rational):
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    if expect is not None and len(parts) != expect:
        raise ConfigError(f"{field}: expected {expect} comma-separated values, got {len(parts)}")
    return tuple(parse(p, f"{field}[{i}]") for i, p in enumerate(parts))


def _parse_float(text, field):
    try:
        return float(text)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{field}: not a number: {text!r}") from err


def _parse_int(text, field, least=None, below=None):
    try:
        value = int(text)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{field}: not an integer: {text!r}") from err
    if least is not None and value < least:
        raise ConfigError(f"{field}: must be >= {least}, got {value}")
    if below is not None and value >= below:
        raise ConfigError(f"{field}: must be < {below}, got {value}")
    return value


def _flow_problem(gamma):
    """``simulate``'s rule for a chain: three sites at least, no two neighbours
    equal; it accepts gamma_{n-1} = gamma_{n+1}, a legal dKN state."""
    if len(gamma) < 3:
        return "the lattice stencil needs period >= 3"
    for site, g in enumerate(gamma):
        after = (site + 1) % len(gamma)
        if g == gamma[after]:
            return f"sites {site} and {after} hold the same value {g}"


def _chain_gamma(settings, purpose, problem, parse=_parse_rational):
    """The ``chain.gamma`` values, refused with the message ``problem`` gives."""
    gamma_raw = settings.get("chain", "gamma")
    if gamma_raw is None:
        raise ConfigError(f"chain.gamma: required for {purpose}")
    gamma = _parse_list(gamma_raw, "chain.gamma", parse=parse)
    message = problem(gamma)
    if message:
        raise ConfigError(f"chain.gamma: {message}")
    return gamma


def _parse_positive_float(text, field):
    value = _parse_float(text, field)
    if not 0 < value < math.inf:
        raise ConfigError(f"{field}: must be positive and finite, got {text!r}")
    return value


def _check_steps(steps, width, field):
    """Refuse ``steps`` RK4 steps whose ``steps + 1`` states of ``width`` float64s
    make an array numpy cannot represent (its bytes must fit ``sys.maxsize``)."""
    if not (steps + 1) * width * 8 <= sys.maxsize:
        raise ConfigError(f"{field}: {steps:.6g} steps do not fit in one numpy array")


class Settings:
    """Merged view of config-file sections and command-line flags."""

    def __init__(self, args):
        self.args = args
        self.file = configparser.ConfigParser()
        path = getattr(args, "config", None)
        if path:
            try:
                with open(path) as fh:
                    self.file.read_file(fh)
            except OSError as err:
                raise ConfigError(f"config: cannot read {path}: {err}") from err
            except configparser.Error as err:
                raise ConfigError(f"config: {err}") from err

    def get(self, section, key, default=None):
        flag = getattr(self.args, key.replace("-", "_"), None)
        if flag is not None:
            return flag
        if self.file.has_option(section, key):
            return self.file.get(section, key)
        return default

    def curve(self, parse=_parse_rational):
        raw = self.get("curve", "curve")
        if raw is not None:
            coeffs = _parse_list(raw, "curve", expect=3, parse=parse)
        else:
            missing = [k for k in ("c2", "c1", "c0") if not self.file.has_option("curve", k)]
            if missing:
                raise ConfigError(
                    f"curve: missing coefficients {', '.join(missing)} "
                    "(need exactly c2, c1, c0 for genus 1)"
                )
            coeffs = tuple(
                parse(self.file.get("curve", k), f"curve.{k}")
                for k in ("c2", "c1", "c0")
            )
        return SpectralCurve.elliptic(*coeffs)

    def constants(self):
        raw = self.get("verify", "constants")
        if raw is None:
            return None
        vals = _parse_list(raw, "constants", expect=6)
        return SolutionConstants(*vals)


def _write_text(path, text):
    """Write a JSON report and a final newline (``json.dumps`` ends in none)."""
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args):
    settings = Settings(args)
    if args.replay:
        try:
            with open(args.replay) as fh:
                dump = json.load(fh)
            suite, config = read_dump(dump)  # a JSONDecodeError is a ValueError too
        except (OSError, ValueError) as err:
            raise ConfigError(f"replay: {err}") from err
        report = replay_config(suite, config, dump.get("sample", 0))
        _write_text(args.out, report_to_json(report))
        return 0 if report.passed else 1

    suite = settings.get("verify", "suite", "all")
    samples = _parse_int(settings.get("verify", "samples", DEFAULT_SAMPLES), "samples", least=1)
    seed = _parse_int(settings.get("verify", "seed", DEFAULT_SEED), "seed", 0, 2**64)
    workers = _parse_int(settings.get("verify", "workers", 1), "workers", least=1)
    # numpy draws the bounds as int64
    max_num = _parse_int(settings.get("verify", "max_num", DEFAULT_MAX_NUM), "max_num", 1, 2**63)
    max_den = _parse_int(settings.get("verify", "max_den", DEFAULT_MAX_DEN), "max_den", 1, 2**63)
    constants = settings.constants()

    if suite == "all":
        reports = run_all(samples, seed, constants, max_num, max_den, workers)
    elif suite in SUITES:
        reports = run_suite(suite, samples, seed, constants, max_num, max_den, workers)
    else:
        raise ConfigError(f"suite: unknown suite {suite!r} (choose from {', '.join(SUITES)} or all)")
    _write_text(args.out, report_to_json(reports))
    passed = reports.passed if hasattr(reports, "passed") else all(r.passed for r in reports)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _invariant_rows(traj):
    """Drift statistics of the conserved quantities along the trajectory.

    The product of the couplings V_n is a first integral of the coupled
    system (the log-derivatives telescope over a period); for gamma flows
    the spectral value reconstructed from the chain is an exact identity,
    so its drift only measures rounding.
    """
    from .spectral import QPolynomial, q_conserved_value

    probes = sorted({0, traj.steps // 2, traj.steps})
    states = [traj.states[i] for i in probes]
    if traj.kind == "gamma":
        curve = traj.curve.to_float()
        vs = [vn_from_gamma(s, curve).tolist() for s in states]
    else:
        vs = [s[: traj.period].tolist() for s in states]
    # left-to-right products, so the report bytes do not hang on how numpy
    # would order the multiplies
    prods = [math.prod(v) for v in vs]
    rows = {
        "coupling_product": {
            "initial": prods[0],
            "max_drift": max(abs(p - prods[0]) for p in prods),
        }
    }
    if traj.kind != "gamma":
        return rows

    period = traj.period
    z_probe = 2.0 + max(abs(g) for g in states[0].tolist())
    expected = float(curve.eval(z_probe))

    def spectral_value(gamma, v):
        q = [QPolynomial.from_gamma(g) for g in gamma.tolist()]
        w = wn_from_gamma(gamma, curve).tolist()
        return float(
            q_conserved_value(
                q[-1 % period],
                q[0],
                q[1 % period],
                q[2 % period],
                v[0],
                v[1],
                w[0],
                z_probe,
            )
        )

    specs = [spectral_value(s, v) for s, v in zip(states, vs)]
    rows["spectral_value"] = {
        "probe_z": z_probe,
        "expected": expected,
        "max_drift": max(abs(s - expected) for s in specs),
    }
    return rows


def _trajectory_csv(traj):
    """One row per step and site, as text in the bytes that csv.writer's
    excel dialect writes: ints as ``str``, floats as ``repr``, ``\\r\\n``
    line ends, no numeric field quoted.  Python floats print as numpy's
    float64 scalars do, and cheaper."""
    labels = [f"{site}," for site in range(traj.period)]
    if traj.kind == "gamma":
        lines = ["step,x,site,gamma\r\n"]
        for i, state in enumerate(traj.states.tolist()):
            prefix = f"{i},{i * traj.h!r},"
            lines.extend([f"{prefix}{label}{g!r}\r\n" for label, g in zip(labels, state)])
    else:
        lines = ["step,x,site,V,W\r\n"]
        for i, state in enumerate(traj.states.tolist()):
            prefix = f"{i},{i * traj.h!r},"
            lines.extend([
                f"{prefix}{label}{v!r},{w!r}\r\n"
                for label, v, w in zip(labels, state, state[traj.period:])
            ])
    return "".join(lines)


def _cmd_simulate(args):
    settings = Settings(args)
    flow = settings.get("simulate", "flow", "dkn")
    if flow not in FLOWS:
        raise ConfigError(f"flow: unknown flow {flow!r} (choose from {', '.join(FLOWS)})")
    h = _parse_positive_float(settings.get("simulate", "h", "1e-3"), "h")
    steps = _parse_int(settings.get("simulate", "steps", 1000), "steps", least=0)

    if flow in ("dkn", "reduced_t2"):
        state = GammaChain(
            _chain_gamma(settings, "gamma flows", _flow_problem, _parse_float_rational),
            settings.curve(_parse_float_rational),
        )
    else:
        v_raw = settings.get("chain", "v")
        w_raw = settings.get("chain", "w")
        if v_raw is None or w_raw is None:
            raise ConfigError("chain.v / chain.w: required for coupled flows")
        try:
            state = VWChain(
                _parse_list(v_raw, "chain.v", parse=_parse_float_rational),
                _parse_list(w_raw, "chain.w", parse=_parse_float_rational),
            )
        except ValueError as err:
            raise ConfigError(f"chain.v / chain.w: {err}") from err

    _check_steps(steps, state.period * (2 if isinstance(state, VWChain) else 1), "steps")
    traj = rk4_integrate(state, flow, h, steps)
    out_csv = args.csv or "trajectory.csv"
    with open(out_csv, "w", newline="") as fh:
        fh.write(_trajectory_csv(traj))

    summary = {
        "flow": flow,
        "h": h,
        "steps": steps,
        "invariants": _invariant_rows(traj),
        "csv": out_csv,
    }
    _write_text(args.out, json.dumps(summary, sort_keys=True, indent=2))
    return 0


# ---------------------------------------------------------------------------
# commutant
# ---------------------------------------------------------------------------

def _exact_commutant(l_op, band, degree, payload):
    """Solve the exact commutant and add the ``degree``/``dimension``/``basis``
    entries that the sharp and custom reports share."""
    result = commutant_solve_exact(l_op, CommutantAnsatz(band_m=band, degree=degree))
    payload.update(
        {
            "degree": degree,
            "dimension": result.dimension,
            "basis": [
                {str(j): [format_scalar(c) for c in p] for j, p in sol.bands.items()}
                for sol in result.basis
            ],
        }
    )
    return result


def _cmd_commutant(args):
    settings = Settings(args)
    variant = settings.get("commutant", "variant", "sharp")
    band = _parse_int(settings.get("commutant", "band", 3), "band", least=0)
    degree = _parse_int(settings.get("commutant", "degree", 9), "degree", least=0)
    genus = _parse_int(settings.get("commutant", "genus", 1), "genus", least=1)

    payload = {"variant": variant, "band": band}
    if variant == "sharp":
        r = _parse_list(settings.get("commutant", "r", "0,0,0,1"), "r", expect=4)
        try:
            op = sharp_operator(r, genus)
        except AnsatzError as err:
            raise ConfigError(f"r: {err}") from err
        result = _exact_commutant(op, band, degree, payload)
        zero = [exact_commutator_is_zero(op, x) for x in result.basis]
        verified = all(zero)
        payload.update(
            {
                "verified_exact": verified,
                "basis_windows": [
                    sol.operator.window(0, 7).to_json_dict() for sol in result.basis
                ],
                # an exactly zero commutator has norm 0.0 on any window
                "residual_norms": [
                    0.0
                    if is_zero
                    else float(
                        PolynomialBandOperator(
                            commutator_polynomial_bands(op.bands, sol.bands)
                        )
                        .operator.window(0, 7)
                        .max_abs()
                    )
                    for sol, is_zero in zip(result.basis, zero)
                ],
            }
        )
        ok = result.dimension > 0 and verified
    elif variant == "flat":
        r = _parse_list(settings.get("commutant", "r", "0,1"), "r", 2, _parse_float_rational)
        try:
            op = flat_operator(r, genus)
        except AnsatzError as err:
            raise ConfigError(f"r: {err}") from err
        window = settings.get("commutant", "window", "0,40")
        n0, n1 = _parse_list(window, "window", expect=2, parse=_parse_int)
        try:
            result = commutant_solve_windowed(op, band, n0, n1)
        except AnsatzError as err:
            raise ConfigError(f"window: {err}") from err
        payload.update(result.to_json_dict())
        ok = result.nullity > 0
    elif variant == "custom":
        bands_raw = settings.get("commutant", "bands")
        if bands_raw is None:
            raise ConfigError(
                "commutant.bands: required for variant=custom "
                '(JSON like {"1": ["1"], "-1": ["0","1"]})'
            )
        try:
            raw = json.loads(bands_raw)
            # a string of digits would be read as one coefficient per digit
            if not isinstance(raw, dict) or not all(isinstance(p, list) for p in raw.values()):
                raise TypeError("expected a JSON object of coefficient lists")
            bands = {
                int(j): tuple(rational(c) for c in coeffs)
                for j, coeffs in raw.items()
            }
        except (ValueError, TypeError, ZeroDivisionError) as err:
            raise ConfigError(f"commutant.bands: {err}") from err
        result = _exact_commutant(PolynomialBandOperator(bands), band, degree, payload)
        ok = result.dimension > 0
    else:
        raise ConfigError(f"variant: unknown variant {variant!r} (sharp|flat|custom)")

    _write_text(args.out, json.dumps(payload, sort_keys=True, indent=2))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# elliptic
# ---------------------------------------------------------------------------

def _elliptic_csv(ys, wps, wpps, drift):
    """The four sample arrays as CSV text, in the bytes of
    :func:`_trajectory_csv`."""
    rows = zip(ys.tolist(), wps.tolist(), wpps.tolist(), drift.tolist())
    return "".join(
        ["y,wp,wp_prime,energy_drift\r\n"]
        + [f"{y!r},{wp!r},{wpp!r},{d!r}\r\n" for y, wp, wpp, d in rows]
    )


def _cmd_elliptic(args):
    settings = Settings(args)
    curve = settings.curve(_parse_float_rational)
    y_max = _parse_float(settings.get("elliptic", "y_max", 20.0), "y_max")
    if not 0 <= y_max < math.inf:
        raise ConfigError(f"y_max: must be finite and >= 0, got {y_max}")
    h = _parse_positive_float(settings.get("elliptic", "h", "1e-3"), "h")
    _check_steps(y_max / h, 2, "h")
    try:
        branch = wp_init_bounded(curve)
    except UnsupportedCurveError as err:
        raise ConfigError(f"curve: {err}") from err
    ys, wps, wpps, drift = wp_trajectory(branch, y_max, h)
    out_csv = args.csv or "elliptic.csv"
    with open(out_csv, "w", newline="") as fh:
        fh.write(_elliptic_csv(ys, wps, wpps, drift))
    print(f"wrote {len(ys)} samples to {out_csv}; max |energy drift| = {max(abs(drift)):.3e}")
    return 0


# ---------------------------------------------------------------------------
# darboux
# ---------------------------------------------------------------------------

def _cmd_darboux(args):
    settings = Settings(args)
    curve = settings.curve()
    gamma = _chain_gamma(settings, "darboux", lambda g: chain_problem(curve, g))
    z0 = _parse_rational(settings.get("darboux", "z0", "0"), "darboux.z0")
    problem = point_problem(curve, gamma, z0)
    if problem:
        raise ConfigError(f"darboux.z0: {problem}")

    chain = GammaChain(gamma, curve)
    jets = prolong_gamma_jets(chain, 3)
    wp = exact_wp_jet(curve, z0, order=3)
    data = darboux_data(jets, wp)

    solved = solve_tail_constants(chain)
    sol = rank2_solution(data, solved)
    residuals = [
        [format_scalar(r) for r in chain_residuals(sol, n)] for n in range(chain.period)
    ]
    flat = data.truncated(0, 0)
    # the report prints the order-(0, 0) bands as the nested jets jet(jet(c))
    nest = lambda c: c if isinstance(c, int) else Jet((Jet((c,)),))
    payload = {
        "curve": dict(zip(("c0", "c1", "c2"), map(format_scalar, curve.coeffs))),
        "gamma": [format_scalar(g) for g in gamma],
        "z0": format_scalar(z0),
        "solved_constants": {k: format_scalar(getattr(solved, k)) for k in ("s0", "k0", "p0")},
        "transformed_operator": transformed_operator(flat).map_coeffs(nest).window(
            0, chain.period - 1
        ).to_json_dict(),
        "factorization_zero": factorization_check(data).is_zero(),
        "crosscheck_zero": crosscheck_window(data).is_zero(),
        "lax_x_zero": commutator_x_check(data).is_zero(),
        "lax_y_zero": commutator_y_check(data, solved).is_zero(),
        "chain_residuals": residuals,
    }
    _write_text(args.out, json.dumps(payload, sort_keys=True, indent=2))
    verdicts = ("factorization_zero", "crosscheck_zero", "lax_x_zero", "lax_y_zero")
    return 0 if all(payload[k] for k in verdicts) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it as it
    was, and every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="laxchain",
        description="Integrable-chain verification, simulation, and operator search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file; flags override its values")
        p.add_argument("--out", help="output path for the JSON report (default stdout)")

    p = sub.add_parser("verify", help="run exact residual suites")
    common(p)
    p.add_argument("--suite", help=f"one of {', '.join(SUITES)} or all")
    p.add_argument("--samples", help="number of random configurations")
    p.add_argument("--seed", help="64-bit seed of the counter-based generator")
    p.add_argument("--constants", help="s0,k0,p0,s1,k1,p1 for the oscillating tail")
    p.add_argument("--workers", help="process-pool width for sample evaluation")
    p.add_argument("--max-num", dest="max_num", help="numerator bound for draws")
    p.add_argument("--max-den", dest="max_den", help="denominator bound for draws")
    p.add_argument("--replay", help="re-run a single failure dump (JSON file)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("simulate", help="integrate a lattice flow")
    common(p)
    p.add_argument("--flow", help=f"one of {', '.join(FLOWS)}")
    p.add_argument("--h", help="RK4 step size")
    p.add_argument("--steps", help="number of steps")
    p.add_argument("--curve", help="c2,c1,c0")
    p.add_argument("--gamma", help="comma-separated initial chain values")
    p.add_argument("--v", help="comma-separated V values (coupled flows)")
    p.add_argument("--w", help="comma-separated W values (coupled flows)")
    p.add_argument("--csv", help="trajectory CSV path (default trajectory.csv)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("commutant", help="search for commuting operators")
    common(p)
    p.add_argument("--variant", help="sharp | flat | custom")
    p.add_argument("--band", help="half-bandwidth M of the ansatz")
    p.add_argument("--degree", help="polynomial degree bound per band (exact path)")
    p.add_argument("--genus", help="family genus parameter")
    p.add_argument("--r", help="family coefficients r0,r1[,r2,r3]")
    p.add_argument("--window", help="n0,n1 site window (windowed path)")
    p.add_argument("--bands", help="JSON band polynomials (variant=custom)")
    p.set_defaults(handler=_cmd_commutant)

    p = sub.add_parser("elliptic", help="integrate the bounded branch")
    common(p)
    p.add_argument("--curve", help="c2,c1,c0")
    p.add_argument("--y-max", dest="y_max", help="integration endpoint")
    p.add_argument("--h", help="RK4 step size")
    p.add_argument("--csv", help="output CSV path (default elliptic.csv)")
    p.set_defaults(handler=_cmd_elliptic)

    p = sub.add_parser("darboux", help="transform one exact configuration")
    common(p)
    p.add_argument("--curve", help="c2,c1,c0")
    p.add_argument("--gamma", help="comma-separated chain values")
    p.add_argument("--z0", help="curve point (rational)")
    p.set_defaults(handler=_cmd_darboux)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except LaxchainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
