"""Verification drivers: exact residual suites over random configurations.

Sampling is counter-based and replayable: sample ``i`` of a run with seed
``s`` draws from ``Philox(key=[s, i])``, and every failure dump embeds the
drawn values verbatim, so a replay never has to re-derive them.  Reports are
plain dicts serialized with sorted keys; identical config and seed produce
byte-identical JSON.

The exact suites certify rational identities pointwise at random exact
configurations (numerators bounded by ``max_num``, denominators by
``max_den``): an identity that is exactly zero at enough random points is
true with overwhelming confidence, and a single nonzero value is a proof of
failure.  Every sample is certified for both signs of the extension square
root ``w`` but evaluated at ``w`` only: the sign -1 results are the Galois
conjugates (``conjugate()``, ``w -> -w``) of the sign +1 results (see
``darboux``).  The conjugation is injective, so a zero test of the sign +1
value decides both signs; it does not keep the reported magnitude
|a + b sqrt(D)|, so the magnitudes are taken on both values.
"""

import json
from dataclasses import asdict, astuple, dataclass, field
from fractions import Fraction

import numpy as np

from .curves import SpectralCurve
from .darboux import (
    SolutionConstants,
    chain_problem,
    chain_residuals,
    commutator_x_check,
    commutator_y_check,
    commutator_y_residual,
    crosscheck_window,
    darboux_data,
    factorization_check,
    lax_operator,
    point_problem,
    rank2_solution,
    solve_tail_constants,
    transformed_operator,  # unused here; bench/tracing.py wraps this binding
)
from .elliptic import exact_wp_jet, wp_init_bounded, wp_integrate
from .errors import AccuracyError, ConfigError
from .flows import (
    GammaChain,
    prolong_gamma_jets,
    rk4_integrate,
    vn_from_gamma,
    wn_from_gamma,
)
from .operators import DifferenceOperator, build_l4
from .scalars import Jet, format_scalar, is_rational_square, rational, scalar_abs

__all__ = [
    "SUITES",
    "SampleConfig",
    "SuiteReport",
    "draw_sample",
    "l4_lax_residual_window",
    "read_dump",
    "replay_config",
    "run_all",
    "run_suite",
    "rk4_convergence_order",
    "trajectory_chain_residual",
    "wp_convergence_order",
]

SUITES = ("chain", "lax-x", "lax-y", "factorization")

DEFAULT_SAMPLES = 20
DEFAULT_SEED = 7
DEFAULT_MAX_NUM = 1000
DEFAULT_MAX_DEN = 8

# Period of the drawn chains; everything downstream reads len(config.gamma).
PERIOD = 4

# Rejected draws after which draw_sample gives up on the bounds: at the
# default bounds a sample is accepted at the first draw nearly always.
MAX_REJECTED_DRAWS = 10_000


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleConfig:
    """One drawn configuration: curve, periodic chain, and a curve point."""

    curve: SpectralCurve
    gamma: tuple
    z0: Fraction
    constants: SolutionConstants

    def to_dump(self, suite, sample_index, note=""):
        return {
            "suite": suite,
            "sample": sample_index,
            "curve": dict(zip(("c0", "c1", "c2"), map(format_scalar, self.curve.coeffs))),
            "gamma": [format_scalar(g) for g in self.gamma],
            "z0": format_scalar(self.z0),
            "constants": {
                k: format_scalar(v)
                for k, v in zip(
                    ("s0", "k0", "p0", "s1", "k1", "p1"), astuple(self.constants)
                )
            },
            "note": note,
        }

    @classmethod
    def from_dump(cls, dump):
        curve = SpectralCurve.elliptic(
            rational(dump["curve"]["c2"]),
            rational(dump["curve"]["c1"]),
            rational(dump["curve"]["c0"]),
        )
        constants = SolutionConstants(
            *(rational(dump["constants"][k]) for k in ("s0", "k0", "p0", "s1", "k1", "p1"))
        )
        if not isinstance(dump["gamma"], list):
            # a string would be read character by character
            raise TypeError(f"gamma must be a list, got {type(dump['gamma']).__name__}")
        return cls(
            curve=curve,
            gamma=tuple(rational(g) for g in dump["gamma"]),
            z0=rational(dump["z0"]),
            constants=constants,
        )


def _philox(seed, index):
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
    )


def _draw_fraction(rng, max_num, max_den):
    num = int(rng.integers(-max_num, max_num + 1))
    den = int(rng.integers(1, max_den + 1))
    return Fraction(num, den)


def _square_problem(disc):
    """Why Q(w) with w^2 = ``disc`` = F(z0) would have zero divisors (``disc`` a
    rational square up to sign), or None."""
    if is_rational_square(disc) or is_rational_square(-disc):
        return f"F(z0) = {disc} is a rational square up to sign"


def draw_sample(
    seed,
    index,
    max_num=DEFAULT_MAX_NUM,
    max_den=DEFAULT_MAX_DEN,
    constants=None,
):
    """Random exact configuration suitable for every suite.

    Drawn so that no denominator in any residual can vanish: the chain and
    z0 pass ``darboux.chain_problem`` and ``point_problem`` (at ``PERIOD`` =
    4 all gammas are then pairwise distinct), and F(z0) is not a rational
    square up to sign (so "both components zero" certifies nonzero elements
    of the extension).  Raises :class:`ConfigError` naming the bounds when
    ``MAX_REJECTED_DRAWS`` draws in a row are rejected.
    """
    rng = _philox(seed, index)
    for _ in range(MAX_REJECTED_DRAWS):
        curve = SpectralCurve.elliptic(
            _draw_fraction(rng, max_num, max_den),
            _draw_fraction(rng, max_num, max_den),
            _draw_fraction(rng, max_num, max_den),
        )
        gamma = tuple(_draw_fraction(rng, max_num, max_den) for _ in range(PERIOD))
        if chain_problem(curve, gamma):
            continue
        z0 = _draw_fraction(rng, max_num, max_den)
        disc = curve.eval(z0)
        if point_problem(curve, gamma, z0, disc) or _square_problem(disc):
            continue
        return SampleConfig(
            curve=curve,
            gamma=gamma,
            z0=z0,
            constants=constants or SolutionConstants(),
        )
    raise ConfigError(
        f"no admissible sample in {MAX_REJECTED_DRAWS} draws with numerators "
        f"<= {max_num} and denominators <= {max_den}; widen the bounds"
    )


# ---------------------------------------------------------------------------
# Per-sample suite evaluations
# ---------------------------------------------------------------------------

def _sample_data(config, x_order, y_order):
    """The configuration at the sign +1 of w and at the working jet orders
    its suite reads.  Sign -1 is never evaluated: its results are the
    conjugates of these (see the module docstring)."""
    jets = prolong_gamma_jets(GammaChain(config.gamma, config.curve), x_order + 1)
    wp = exact_wp_jet(config.curve, config.z0, order=y_order + 1)
    return darboux_data(jets, wp)


def _magnitude(x):
    """Reported magnitude of a sign +1 value over both signs of w: the larger
    of ``scalar_abs`` of ``x`` and of its conjugate, the sign -1 value."""
    return max(float(scalar_abs(x)), float(scalar_abs(x.conjugate())))


def _windows_zero(windows):
    """``(ok, worst)`` over sign +1 residual windows: ok when every window is
    zero, worst the largest coefficient magnitude over both signs among
    those that are not."""
    ok = True
    worst = 0.0
    for win in windows:
        if not win.is_zero():
            ok = False
            worst = max(worst, *(_magnitude(c) for row in win.rows for c in row))
    return ok, worst


def _eval_chain_sample(config):
    """Deterministic documented outcome of the chain equations.

    Passing means: with the oscillating tail absent the first two residuals
    vanish identically and the third is the alternating flow-invariant gap;
    with the solved tail constants all three vanish, for both square-root
    signs.  The solved constants and the gap magnitude are reported.
    """
    solved = solve_tail_constants(GammaChain(config.gamma, config.curve))
    data = _sample_data(config, 1, 1)
    bare = rank2_solution(data)
    fixed = rank2_solution(data, solved)
    must_vanish = []
    gap_mag = 0.0
    for n in range(len(config.gamma)):
        r1, r2, r3 = chain_residuals(bare, n)
        must_vanish += [r1, r2, *chain_residuals(fixed, n)]
        gap_mag = max(gap_mag, _magnitude(r3))
    nonzero = [r for r in must_vanish if r != 0]
    worst = max(map(_magnitude, nonzero), default=0.0)
    info = {
        "solved_constants": {k: format_scalar(getattr(solved, k)) for k in ("s0", "k0", "p0")},
        "gap_magnitude": gap_mag,
    }
    if not config.constants.is_zero():
        # Documented outcome for user-supplied constants: deterministic
        # residual magnitudes at sign +1, not a pass criterion.
        user = rank2_solution(data, config.constants)
        info["user_constants_residuals"] = [
            [float(scalar_abs(r)) for r in chain_residuals(user, n)]
            for n in range(len(config.gamma))
        ]
    return not nonzero, worst, info


def _eval_factorization_sample(config):
    # the factorization and the band cross-check are pointwise identities
    data = _sample_data(config, 0, 0)
    ok, worst = _windows_zero([factorization_check(data), crosscheck_window(data)])
    return ok, worst, {}


def _eval_lax_x_sample(config):
    ok, worst = _windows_zero([commutator_x_check(_sample_data(config, 2, 0))])
    return ok, worst, {}


def _eval_lax_y_sample(config):
    """Valid curve-point jet with solved tail -> exactly zero; a jet violating
    the Weierstrass ODE (second derivative bumped by 1) -> nonzero.  Both
    are rational in the jet, so their sign -1 values are conjugates too.

    The check reads its whole window.  The control's verdict needs one
    nonzero coefficient, so it stops at the first (:func:`_lax_y_control`);
    the coefficients it skips divide by the check's denominators, which the
    check has already evaluated, so no pole goes unseen."""
    chain = GammaChain(config.gamma, config.curve)
    solved = solve_tail_constants(chain)
    jets = prolong_gamma_jets(chain, 1)
    wp = exact_wp_jet(config.curve, config.z0, order=3)
    ok, worst = _windows_zero([commutator_y_check(darboux_data(jets, wp), solved)])
    control_hit = _lax_y_control(jets, wp, solved) is not None
    return ok and control_hit, worst, {"negative_control_nonzero": control_hit}


def _lax_y_control(jets, wp, solved):
    """lax-y's negative control: the first nonzero ``(n, j, coefficient)``
    over one period of the y-Lax residual at the curve-point jet ``wp``
    with its second derivative bumped by 1, or None if that residual
    vanishes there."""
    data = darboux_data(jets, _bump_second(wp))
    return commutator_y_residual(data, solved).first_nonzero(0, data.period - 1)


def _bump_second(wp):
    """The curve-point jet with its second derivative bumped by 1."""
    return Jet((wp.coeffs[0], wp.coeffs[1], wp.coeffs[2] + 1) + tuple(wp.coeffs[3:]))


def l4_lax_residual_window(chain):
    """One-period window of ``dL/dx + [L, V_{n-1} V_n T^{-2}]`` for the
    fourth-order operator built from the chain couplings, with the time
    derivative taken from order-2 jets.  Exactly zero when the chain follows
    the lattice flow.
    """
    sites = list(prolong_gamma_jets(chain, 2).values)
    vs, ws = vn_from_gamma(sites, chain.curve), wn_from_gamma(sites, chain.curve)
    v = lambda n: vs[n % chain.period]
    w = lambda n: ws[n % chain.period]
    a_op = DifferenceOperator.from_bands({-2: lambda n: (v(n - 1) * v(n)).truncate(1)})
    return lax_operator(build_l4(v, w), "x", a_op).window(0, chain.period - 1)


def _eval_lax_l4_sample(config):
    ok, worst = _windows_zero(
        [l4_lax_residual_window(GammaChain(config.gamma, config.curve))]
    )
    return ok, worst, {}


# The suite registry of run_suite and replay_config.  SUITES, the suites
# run_all and the CLI offer, leaves out the library-level "lax-l4".
_SUITE_EVALS = {
    "chain": _eval_chain_sample,
    "factorization": _eval_factorization_sample,
    "lax-x": _eval_lax_x_sample,
    "lax-y": _eval_lax_y_sample,
    "lax-l4": _eval_lax_l4_sample,
}


def _suite_eval(suite):
    if suite not in _SUITE_EVALS:
        raise ValueError(
            f"unknown suite {suite!r}; expected one of {', '.join(_SUITE_EVALS)}"
        )
    return _SUITE_EVALS[suite]


# ---------------------------------------------------------------------------
# Suite drivers and reports
# ---------------------------------------------------------------------------

@dataclass
class SuiteReport:
    suite: str
    samples: int
    passes: int
    failures: list = field(default_factory=list)
    max_residual: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.passes == self.samples

    def to_json_dict(self):
        return asdict(self)


def report_to_json(reports):
    """Canonical JSON text (sorted keys, stable floats) for one or many reports."""
    if isinstance(reports, SuiteReport):
        payload = reports.to_json_dict()
    else:
        payload = {
            "suites": [r.to_json_dict() for r in reports],
            "passed": all(r.passed for r in reports),
        }
    return json.dumps(payload, sort_keys=True, indent=2)


def _collect(suite, results):
    """The report over ``(key, ok, worst, info, dump)`` sample results, in
    order: ``dump`` is a failure's dump, ``info`` lands under ``str(key)``."""
    report = SuiteReport(suite=suite, samples=len(results), passes=0)
    for key, ok, worst, info, dump in results:
        report.max_residual = max(report.max_residual, worst)
        if ok:
            report.passes += 1
        else:
            report.failures.append(dump)
        if info:
            report.details.setdefault("samples", {})[str(key)] = info
    return report


def _eval_indexed_sample(task):
    """Worker entry point: evaluate one sample; picklable args and results."""
    suite, seed, index, max_num, max_den, constants = task
    config = draw_sample(seed, index, max_num, max_den, constants)
    ok, worst, info = _suite_eval(suite)(config)
    dump = None if ok else config.to_dump(suite, index, note="residual nonzero")
    return index, ok, worst, info, dump


def run_suite(
    suite,
    samples=DEFAULT_SAMPLES,
    seed=DEFAULT_SEED,
    constants=None,
    max_num=DEFAULT_MAX_NUM,
    max_den=DEFAULT_MAX_DEN,
    workers=1,
):
    """Run one exact suite; samples are independent, so ``workers > 1`` farms
    them out to a process pool and a single collector assembles the report
    (identical output regardless of worker count).  The pool is no wider
    than ``samples``: a fork-based pool starts all its workers at once.
    ``samples`` and ``workers`` must be at least 1, since a report over no
    samples would read as a pass."""
    _suite_eval(suite)
    if samples < 1 or workers < 1:
        raise ValueError(
            f"run_suite needs samples >= 1 and workers >= 1, got samples = "
            f"{samples} and workers = {workers}"
        )
    tasks = [(suite, seed, i, max_num, max_den, constants) for i in range(samples)]
    workers = min(workers, samples)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = sorted(pool.map(_eval_indexed_sample, tasks))
    else:
        results = [_eval_indexed_sample(t) for t in tasks]

    return _collect(suite, results)


def run_all(
    samples=DEFAULT_SAMPLES,
    seed=DEFAULT_SEED,
    constants=None,
    max_num=DEFAULT_MAX_NUM,
    max_den=DEFAULT_MAX_DEN,
    workers=1,
):
    return [
        run_suite(s, samples, seed, constants, max_num, max_den, workers)
        for s in SUITES
    ]


def read_dump(dump):
    """The suite name and the configuration that a failure dump holds.

    Raises ``ValueError`` naming what is wrong: an unknown suite, a missing
    field, a value that is not an exact rational (a bool, a float, a zero
    denominator), a ``gamma`` that is not a list, or a configuration that
    ``darboux.chain_problem``, ``point_problem`` or the sampler's square test
    refuses.
    """
    try:
        suite = dump["suite"]
        _suite_eval(suite)
        config = SampleConfig.from_dump(dump)
    except KeyError as err:
        raise ValueError(f"dump has no field {err}") from err
    except (TypeError, ZeroDivisionError) as err:
        raise ValueError(f"malformed dump: {err}") from err
    _check_admissible(config.curve, config.gamma, config.z0)
    return suite, config


def _check_admissible(curve, gamma, z0):
    """Raise ``ValueError`` naming what ``darboux.chain_problem``,
    ``point_problem`` or the sampler's square test finds wrong."""
    problem = chain_problem(curve, gamma)
    if problem:
        raise ValueError(f"gamma: {problem}")
    disc = curve.eval(z0)
    problem = point_problem(curve, gamma, z0, disc) or _square_problem(disc)
    if problem:
        raise ValueError(f"z0: {problem}")


def replay_config(suite, config, sample=0):
    """Re-run ``suite`` on the exact configuration of a failure dump, as
    :func:`read_dump` returned them; ``sample`` is the dump's sample index,
    kept in the failure this replay reports."""
    ok, worst, info = _suite_eval(suite)(config)
    dump = None if ok else config.to_dump(suite, sample, "replay")
    return _collect(suite, [("replay", ok, worst, info, dump)])


# ---------------------------------------------------------------------------
# Numeric checks: convergence orders and trajectory residuals
# ---------------------------------------------------------------------------

def _richardson_order(ends, h):
    """Convergence order from the end states at steps h, h/2 and h/4.

    End states at h/2 and h/4 that agree exactly (a stationary chain, say)
    leave no error to divide by, and end states at h and h/2 that agree
    exactly leave no error to take the logarithm of; either raises
    :class:`AccuracyError` naming the two step sizes.
    """
    e1 = float(np.max(np.abs(ends[0] - ends[1])))
    e2 = float(np.max(np.abs(ends[1] - ends[2])))
    for err, coarse, fine in ((e2, h / 2, h / 4), (e1, h, h / 2)):
        if err == 0.0:
            raise AccuracyError(
                f"end states at steps {coarse!r} and {fine!r} agree exactly; "
                "no convergence order can be estimated"
            )
    return float(np.log2(e1 / e2))


def rk4_convergence_order(state, flow, t_final, h):
    """Richardson estimate of the integrator's convergence order."""
    steps = int(round(t_final / h))
    return _richardson_order(
        [rk4_integrate(state, flow, h / k, steps * k).states[-1] for k in (1, 2, 4)], h
    )


def wp_convergence_order(curve, y_final, h):
    branch = wp_init_bounded(curve)
    ends = [wp_integrate(branch, y_final, h / k) for k in (1, 2, 4)]
    return _richardson_order([np.array([s.wp, s.wp_prime]) for s in ends], h)


def trajectory_chain_residual(curve, gamma0, x_steps=200, h=1e-3, y_target=0.4):
    """Max |residual| of the chain equations at the end of integrated
    trajectories, certified exactly.

    The chain is advanced by RK4 in x and the curve point by RK4 in y along
    the bounded branch.  The end point's exact binary values (the chain and
    the curve as Fractions, z0 = Fraction(wp)) make a :class:`SampleConfig`
    with zero constants, and the result is the ``worst`` of the chain
    suite's evaluation there: the residuals, bare and with the solved tail,
    at every site in Q(w), over both signs of w.  With zero n-linear
    constants the bare R1 and R2 are the solved ones.  The identities hold
    at every admissible point, so the result is exactly 0;
    ``wp_integrate`` bounds the y-drift itself.  An end point that
    :func:`_check_admissible` refuses raises ``ValueError``.
    """
    traj = rk4_integrate(GammaChain(tuple(map(float, gamma0)), curve), "dkn", h, x_steps)
    z0 = Fraction(wp_integrate(wp_init_bounded(curve), y_target, h).wp)
    exact = SpectralCurve(tuple(map(Fraction, curve.coeffs)))
    gamma = tuple(map(Fraction, traj.chain_at(traj.steps).values))
    _check_admissible(exact, gamma, z0)
    return _eval_chain_sample(SampleConfig(exact, gamma, z0, SolutionConstants()))[1]
