import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from laxchain.curves import SpectralCurve
from laxchain import verify as verify_mod
from laxchain.darboux import DarbouxData, SolutionConstants
from laxchain.errors import AccuracyError, ConfigError
from laxchain.flows import GammaChain, VWChain
from laxchain.operators import DifferenceOperator
from laxchain.scalars import Jet, format_scalar, is_rational_square, scalar_abs
from laxchain.verify import (
    SUITES,
    SampleConfig,
    draw_sample,
    l4_lax_residual_window,
    read_dump,
    replay_config,
    report_to_json,
    rk4_convergence_order,
    run_all,
    run_suite,
    trajectory_chain_residual,
    wp_convergence_order,
)

from conftest import random_chain


def test_draw_sample_validity():
    for i in range(12):
        cfg = draw_sample(seed=99, index=i)
        assert len(set(cfg.gamma)) == 4
        assert cfg.z0 not in cfg.gamma
        disc = cfg.curve.eval(cfg.z0)
        assert disc != 0
        assert not is_rational_square(disc) and not is_rational_square(-disc)
        assert all(cfg.curve.eval(g) != 0 for g in cfg.gamma)


def test_draw_sample_deterministic():
    a = draw_sample(seed=5, index=3)
    b = draw_sample(seed=5, index=3)
    assert a.gamma == b.gamma and a.z0 == b.z0 and a.curve == b.curve
    c = draw_sample(seed=5, index=4)
    assert c.gamma != a.gamma or c.z0 != a.z0


def test_draw_sample_gives_up_after_a_fixed_number_of_rejections(monkeypatch):
    """Bounds that admit no sample (four distinct gammas need at least four
    values) end in a ConfigError naming them after MAX_REJECTED_DRAWS
    rejected draws, instead of drawing forever."""
    draws = []
    real = verify_mod._draw_fraction

    def counted(rng, max_num, max_den):
        draws.append(None)
        return real(rng, max_num, max_den)

    monkeypatch.setattr(verify_mod, "MAX_REJECTED_DRAWS", 5)
    monkeypatch.setattr(verify_mod, "_draw_fraction", counted)
    with pytest.raises(ConfigError, match="numerators <= 1 and denominators <= 1"):
        draw_sample(seed=7, index=0, max_num=1, max_den=1)
    # every rejected draw stops at the repeated gammas: 3 curve + 4 gamma values
    assert len(draws) == 5 * 7


def test_default_run_accepts_every_sample_at_its_first_draw(monkeypatch):
    """The default run (seed 7, 20 samples) never needs a second draw, so
    the rejection limit is far from binding at the default bounds."""
    monkeypatch.setattr(verify_mod, "MAX_REJECTED_DRAWS", 1)
    for i in range(20):
        draw_sample(seed=7, index=i)


def test_draw_sample_rejects_an_inadmissible_z0(monkeypatch):
    """Seed 1, index 1 at bounds 5/1 draws a z0 on the chain once before it
    draws an admissible one; the accepted z0 passes both checks."""
    rejected = []

    def counted(check):
        def wrapper(*args):
            problem = check(*args)
            if problem:
                rejected.append(problem)
            return problem

        return wrapper

    point_problem, square_problem = verify_mod.point_problem, verify_mod._square_problem
    monkeypatch.setattr(verify_mod, "point_problem", counted(point_problem))
    monkeypatch.setattr(verify_mod, "_square_problem", counted(square_problem))
    cfg = draw_sample(1, 1, 5, 1)
    assert len(rejected) == 1
    disc = cfg.curve.eval(cfg.z0)
    assert point_problem(cfg.curve, cfg.gamma, cfg.z0, disc) is None
    assert square_problem(disc) is None


def test_draw_sample_evaluates_f_at_z0_once(monkeypatch):
    points = []
    real = SpectralCurve.eval

    def counted(curve, z):
        points.append(z)
        return real(curve, z)

    monkeypatch.setattr(SpectralCurve, "eval", counted)
    cfg = draw_sample(seed=7, index=0)  # accepted at its first draw
    assert points.count(cfg.z0) == 1


def test_sample_dump_roundtrip():
    cfg = draw_sample(seed=5, index=0, constants=SolutionConstants(s0=Fraction(1, 2)))
    dump = cfg.to_dump("chain", 0)
    back = SampleConfig.from_dump(dump)
    assert back.gamma == cfg.gamma
    assert back.z0 == cfg.z0
    assert back.curve == cfg.curve
    assert back.constants == cfg.constants


@pytest.mark.parametrize("suite", SUITES)
def test_suites_pass_small(suite):
    report = run_suite(suite, samples=2, seed=13)
    assert report.passed
    assert report.failures == []


def test_report_json_deterministic():
    a = report_to_json(run_suite("chain", samples=3, seed=11))
    b = report_to_json(run_suite("chain", samples=3, seed=11))
    assert a == b
    payload = json.loads(a)
    assert payload["suite"] == "chain"
    assert payload["passes"] == 3
    assert "samples" in payload["details"]


def test_run_all_and_combined_report():
    reports = run_all(samples=1, seed=21)
    assert [r.suite for r in reports] == list(SUITES)
    text = report_to_json(reports)
    payload = json.loads(text)
    assert payload["passed"] is True
    assert len(payload["suites"]) == len(SUITES)


def test_workers_produce_identical_reports():
    for suite in ("factorization", "lax-l4"):
        serial = report_to_json(run_suite(suite, samples=2, seed=4, workers=1))
        parallel = report_to_json(run_suite(suite, samples=2, seed=4, workers=2))
        assert serial == parallel


def test_pool_is_never_wider_than_the_samples(monkeypatch):
    """A fork-based pool starts all its workers at its first task, so a run
    asks for at most one worker per sample, and for no pool when that is
    one; the reports are the serial ones."""
    import concurrent.futures

    widths = []

    class RecordingPool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for samples, workers, width in ((3, 8, 3), (3, 2, 2), (1, 8, None)):
        widths.clear()
        serial = run_all(samples=samples, seed=4)
        assert widths == []
        pooled = run_all(samples=samples, seed=4, workers=workers)
        assert widths == ([width] * len(SUITES) if width else [])
        assert report_to_json(pooled) == report_to_json(serial)


@pytest.mark.parametrize("samples, workers", [(0, 1), (-3, 1), (1, 0), (2, -1)])
def test_runs_refuse_no_samples_or_no_workers(samples, workers):
    """A report over zero samples would read as a pass, and a run with no
    worker runs nothing: both entry points refuse such values by name."""
    message = f"got samples = {samples} and workers = {workers}$"
    with pytest.raises(ValueError, match=message):
        run_suite("chain", samples, workers=workers)
    with pytest.raises(ValueError, match=message):
        run_all(samples, workers=workers)


@pytest.mark.parametrize(
    "bounds",
    [
        {"max_den": 0},
        {"max_num": 0},
        {"max_num": -5},
        {"max_num": 2**63},
        {"max_den": 2**63},
        {"seed": -1},
        {"seed": 2**64},
        {"samples": True},
        {"workers": 2.0},
        {"max_num": True},
        {"max_den": 8.0},
        {"seed": "3"},
        {"seed": np.int64(3)},
        {"constants": (0, 0, 0)},
    ],
)
def test_runs_refuse_out_of_range_bounds_and_seeds(monkeypatch, bounds):
    """Draw bounds outside 1 <= bound < 2**63 and seeds outside
    0 <= seed < 2**64 are refused by name with ``ValueError`` before any
    draw, where numpy would raise its own errors and a zero numerator bound
    would reject every draw.  A count, bound or seed that is not an int (a
    bool, a float, a string, a numpy integer), and constants that are not a
    ``SolutionConstants``, are refused by name with ``TypeError``: a bool
    would run as 1 and a float bound would reach numpy."""

    def no_draw(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(verify_mod, "draw_sample", no_draw)
    ((name, value),) = bounds.items()
    if type(value) is int:
        error, message = ValueError, rf"< 2\*\*(63|64), got {name} = {value}$"
    else:
        error, message = TypeError, rf"^run_suite needs (an int )?{name}\b.*, got "
    args = {"samples": 1, **bounds}
    with pytest.raises(error, match=message):
        run_suite("chain", **args)
    with pytest.raises(error, match=message):
        run_all(**args)


def test_runs_accept_the_edges_of_the_bound_and_seed_ranges():
    """The largest bounds and seed, and the smallest seed and denominator
    bound, still draw and certify."""
    widest = {"seed": 2**64 - 1, "max_num": 2**63 - 1, "max_den": 2**63 - 1}
    assert run_suite("factorization", 1, **widest).passed
    assert run_suite("factorization", 1, seed=0, max_den=1).passed


def test_l4_lax_residual_window_evaluates_each_coefficient_of_l4_once(monkeypatch, rng):
    """The residual reads L4 from one period's window, so no coefficient
    of L4 is evaluated twice; the window is the same."""
    chain = random_chain(rng)
    expected = l4_lax_residual_window(chain)
    reads = Counter()
    real = verify_mod.build_l4

    def counted_l4(v, w):
        l4 = real(v, w)

        def coeff(j, n):
            reads[j, n] += 1
            return l4.coeff(j, n)

        return DifferenceOperator(l4.lo, l4.hi, coeff)

    monkeypatch.setattr(verify_mod, "build_l4", counted_l4)
    assert l4_lax_residual_window(chain) == expected
    assert len(reads) == 5 * chain.period and max(reads.values()) == 1


def test_replay_from_dump():
    cfg = draw_sample(seed=31, index=0)
    for suite in ("factorization", "lax-l4"):
        report = replay_config(*read_dump(cfg.to_dump(suite, 0)))
        assert report.suite == suite
        assert report.samples == 1 and report.passed


def test_l4_lax_exact(rng):
    for _ in range(4):
        chain = random_chain(rng)
        assert l4_lax_residual_window(chain).is_zero()
    report = run_suite("lax-l4", samples=3, seed=17)
    assert report.passed


def test_l4_lax_requires_flow():
    # without the V_{n-1} V_n T^{-2} term the bracket cannot cancel dL/dx
    from laxchain.darboux import lax_operator
    from laxchain.flows import prolong_gamma_jets, vn_from_gamma, wn_from_gamma
    from laxchain.operators import build_l4, DifferenceOperator

    chain = GammaChain((1, 2, 3, 5), SpectralCurve.elliptic(0, 0, 0))
    jets = list(prolong_gamma_jets(chain, 2).values)
    vs, ws = vn_from_gamma(jets, chain.curve), wn_from_gamma(jets, chain.curve)
    l4 = build_l4(lambda n: vs[n % 4], lambda n: ws[n % 4])
    zero_a = DifferenceOperator.from_bands({0: lambda n: 0})
    assert not lax_operator(l4, zero_a).window(0, chain.period - 1).is_zero()


def test_numeric_convergence_orders():
    curve = SpectralCurve.elliptic(0.0, -1.0, 0.0)
    chain = GammaChain((-0.82, -0.31, 0.28, 0.77), curve)
    order = rk4_convergence_order(chain, "dkn", 0.2, 0.02)
    assert 3.8 <= order <= 4.2
    worder = wp_convergence_order(curve, 1.0, 0.02)
    assert 3.8 <= worder <= 4.2


def test_convergence_order_of_agreeing_end_states():
    # a stationary chain (gamma_{n-1} = gamma_{n+1}) and a (V, W) fixed point
    stationary = (
        (GammaChain((0.1, 0.5, 0.1, 0.5), SpectralCurve.elliptic(0.0, -1.0, 0.0)), "dkn"),
        (VWChain((1.0,) * 3, (2.0,) * 3), "vw"),
    )
    for state, flow in stationary:
        with pytest.raises(AccuracyError, match=r"steps 0\.01 and 0\.005 agree exactly"):
            rk4_convergence_order(state, flow, 0.2, 0.02)


@pytest.mark.filterwarnings("error")
def test_convergence_order_of_agreeing_coarse_end_states():
    """End states at h and h/2 that agree while h/4 differs leave a zero
    error to take the logarithm of: an AccuracyError naming h and h/2, not
    -inf and a numpy warning."""
    ends = [np.array([1.0]), np.array([1.0]), np.array([1.5])]
    with pytest.raises(AccuracyError, match=r"steps 0\.1 and 0\.05 agree exactly"):
        verify_mod._richardson_order(ends, 0.1)


def test_trajectory_residual_bounded_by_integration_error(monkeypatch):
    """The chain residuals at the integrated end point's exact values are
    exactly zero; the control, the bare solution with no tail at the same
    point, is not."""
    curve = SpectralCurve.elliptic(0.0, -1.0, 0.0)
    run = lambda: trajectory_chain_residual(
        curve, (-0.82, -0.31, 0.28, 0.77), x_steps=300, h=1e-3, y_target=0.4
    )
    assert run() == 0
    monkeypatch.setattr(verify_mod, "solve_tail_constants", lambda chain: SolutionConstants())
    assert run() > 0


def test_trajectory_residual_refuses_an_inadmissible_end_point():
    curve = SpectralCurve.elliptic(0.0, -1.0, 0.0)  # roots 0, 1, -1
    with pytest.raises(ValueError, match="gamma: 0 at site 1 is a branch point"):
        trajectory_chain_residual(curve, (-0.82, 0.0, 0.28, 0.77), x_steps=0)
    wp = verify_mod.wp_integrate(verify_mod.wp_init_bounded(curve), 0.4, 1e-3).wp
    with pytest.raises(ValueError, match=r"z0: \S+ lies on the chain \(site 2\)"):
        trajectory_chain_residual(curve, (-0.82, -0.31, wp, 0.77), x_steps=0, y_target=0.4)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope", samples=1, seed=1)
    with pytest.raises(ValueError):
        read_dump(draw_sample(seed=31, index=0).to_dump("nope", 0))
    with pytest.raises(ValueError):
        replay_config("nope", draw_sample(seed=31, index=0))


# ---------------------------------------------------------------------------
# Negative controls: every suite evaluator rejects a perturbed input
# ---------------------------------------------------------------------------

def _off_solved_s0(monkeypatch):
    """The solved tail constants with s0 off by one."""
    real = verify_mod.solve_tail_constants

    def off(chain):
        solved = real(chain)
        return replace(solved, s0=solved.s0 + 1)

    monkeypatch.setattr(verify_mod, "solve_tail_constants", off)


def _bare_tail_s1(monkeypatch):
    """The bare solution (no constants given) with s1 = 1 instead of zero."""
    real = verify_mod.rank2_solution
    monkeypatch.setattr(
        verify_mod,
        "rank2_solution",
        lambda data, constants=None: real(data, constants or SolutionConstants(s1=Fraction(1))),
    )


def _chi2_plus_one(monkeypatch):
    real = DarbouxData.chi2
    monkeypatch.setattr(DarbouxData, "chi2", lambda self, n: real(self, n) + 1)


def _gamma0_prime_plus_one(monkeypatch):
    """The prolonged chain with gamma_0' off the flow by one."""
    real = verify_mod.prolong_gamma_jets

    def off(chain, order=2):
        jets = real(chain, order)
        c = jets.values[0].coeffs
        return replace(jets, values=(Jet((c[0], c[1] + 1) + c[2:]),) + jets.values[1:])

    monkeypatch.setattr(verify_mod, "prolong_gamma_jets", off)


def _wp_prime_plus_one(monkeypatch):
    """The curve-point jet with w' = w + 1: off the curve, and its residuals
    mix a and b*w, so the two signs of w differ in magnitude when F(z0) > 0."""
    real = verify_mod.exact_wp_jet

    def off(curve, p, order=2, sign=1):
        c = real(curve, p, order, sign).coeffs
        return Jet((c[0], c[1] + 1) + c[2:])

    monkeypatch.setattr(verify_mod, "exact_wp_jet", off)


# ---------------------------------------------------------------------------
# Reference: every suite evaluated in full at both signs of w
# ---------------------------------------------------------------------------
# The evaluators in ``verify`` run sign +1 and reach sign -1 by conjugation.
# These run the formulas at both signs, as the evaluators once did, and read
# every library function through ``verify_mod`` so that a monkeypatched
# perturbation reaches them as well.

def _ref_sample_data(config, chain_order=3):
    jets = verify_mod.prolong_gamma_jets(GammaChain(config.gamma, config.curve), chain_order)
    return tuple(
        verify_mod.darboux_data(
            jets, verify_mod.exact_wp_jet(config.curve, config.z0, order=3, sign=sign)
        )
        for sign in (1, -1)
    )


def _ref_windows_zero(windows):
    ok = True
    worst = 0.0
    for win in windows:
        if not win.is_zero():
            ok = False
            worst = max(worst, float(win.max_abs()))
    return ok, worst


def _ref_chain(config):
    solved = verify_mod.solve_tail_constants(GammaChain(config.gamma, config.curve))
    must_vanish = []
    gap_mag = 0.0
    per_sign = [data.truncated(1, 1) for data in _ref_sample_data(config, chain_order=2)]
    for data in per_sign:
        bare = verify_mod.rank2_solution(data)
        fixed = verify_mod.rank2_solution(data, solved)
        for n in range(len(config.gamma)):
            r1, r2, r3 = verify_mod.chain_residuals(bare, n)
            must_vanish += [r1, r2, *verify_mod.chain_residuals(fixed, n)]
            gap_mag = max(gap_mag, float(scalar_abs(r3)))
    nonzero = [r for r in must_vanish if r != 0]
    worst = max((float(scalar_abs(r)) for r in nonzero), default=0.0)
    info = {
        "solved_constants": {k: format_scalar(getattr(solved, k)) for k in ("s0", "k0", "p0")},
        "gap_magnitude": gap_mag,
    }
    if not config.constants.is_zero():
        user = verify_mod.rank2_solution(per_sign[0], config.constants)
        info["user_constants_residuals"] = [
            [float(scalar_abs(r)) for r in verify_mod.chain_residuals(user, n)]
            for n in range(len(config.gamma))
        ]
    return not nonzero, worst, info


def _ref_factorization(config):
    def windows():
        for data in _ref_sample_data(config, chain_order=1):
            data = data.truncated(0, 0)
            yield verify_mod.factorization_check(data)
            yield verify_mod.crosscheck_window(data)

    ok, worst = _ref_windows_zero(windows())
    return ok, worst, {}


def _ref_lax_x(config):
    ok, worst = _ref_windows_zero(
        verify_mod.commutator_x_check(data) for data in _ref_sample_data(config)
    )
    return ok, worst, {}


def _ref_lax_y(config):
    chain = GammaChain(config.gamma, config.curve)
    solved = verify_mod.solve_tail_constants(chain)
    jets = verify_mod.prolong_gamma_jets(chain, 3)
    wps = [verify_mod.exact_wp_jet(config.curve, config.z0, order=3, sign=s) for s in (1, -1)]
    check = verify_mod.commutator_y_check
    ok, worst = _ref_windows_zero(
        check(verify_mod.darboux_data(jets, wp), solved) for wp in wps
    )
    control_hit = all(
        not check(verify_mod.darboux_data(jets, verify_mod._bump_second(wp)), solved).is_zero()
        for wp in wps
    )
    return ok and control_hit, worst, {"negative_control_nonzero": control_hit}


def _ref_lax_l4(config):
    # no w enters the fourth-order bracket: one evaluation is both signs
    window = verify_mod.l4_lax_residual_window(GammaChain(config.gamma, config.curve))
    ok, worst = _ref_windows_zero([window])
    return ok, worst, {}


TWO_SIGN_REFERENCE = {
    "chain": _ref_chain,
    "factorization": _ref_factorization,
    "lax-x": _ref_lax_x,
    "lax-y": _ref_lax_y,
    "lax-l4": _ref_lax_l4,
}

WIDE_BOUNDS = (10**9, 10**6)


def _assert_same_outcome(got, want, context):
    """Equal ``(ok, worst, info)`` in value and in the type of every part."""
    assert got == want, context
    assert repr(got) == repr(want), context


@pytest.mark.parametrize("bounds", [(1000, 8), WIDE_BOUNDS], ids=["default", "wide"])
def test_sign_one_and_its_conjugate_equal_both_signs_in_full(bounds):
    """Each evaluator returns exactly what the two-sign reference returns,
    lax-y's control flag and the chain's gap magnitude included, and the
    user-constants residuals on one draw."""
    assert TWO_SIGN_REFERENCE.keys() == verify_mod._SUITE_EVALS.keys()
    for index in range(8):
        config = draw_sample(7, index, *bounds)
        for suite, evaluate in verify_mod._SUITE_EVALS.items():
            context = (suite, bounds, index)
            _assert_same_outcome(evaluate(config), TWO_SIGN_REFERENCE[suite](config), context)
    constants = SolutionConstants(s0=Fraction(1, 3), p1=Fraction(2))
    config = draw_sample(7, 0, *bounds, constants=constants)
    _assert_same_outcome(verify_mod._eval_chain_sample(config), _ref_chain(config), "user")


@pytest.mark.parametrize("bounds", [(1000, 8), WIDE_BOUNDS], ids=["default", "wide"])
def test_suites_run_every_jet_operation_on_one_exact_kind(monkeypatch, bounds):
    """No jet sum, product or quotient of a suite runs with nothing skipped:
    a float, an int or a second discriminant slipping into the nested jets
    would give a pair without a shared exact kind, and a slower certify."""
    real = Jet._shapes
    calls = {suite: [0, 0] for suite in verify_mod._SUITE_EVALS}  # [shared, unshared]

    def counted(self, other):
        shapes = real(self, other)
        calls[suite][shapes[0] is None] += 1
        return shapes

    monkeypatch.setattr(Jet, "_shapes", counted)
    for index in range(4):
        config = draw_sample(7, index, *bounds)
        for suite, evaluate in verify_mod._SUITE_EVALS.items():
            assert evaluate(config)[0] is True, (suite, index)
    assert all(unshared == 0 for _, unshared in calls.values()), calls
    assert sum(shared for shared, _ in calls.values()) > 0


@pytest.mark.parametrize("bounds", [(1000, 8), WIDE_BOUNDS], ids=["default", "wide"])
def test_no_suite_evaluates_in_the_nested_tower(monkeypatch, bounds):
    """Every check runs in a single-layer tower: while any suite evaluates a
    sample, the tail probes included, no jet whose coefficients are jets is
    added, subtracted, multiplied or divided."""
    nested = Counter()
    current = [None]

    def is_nested(x):
        return isinstance(x, Jet) and isinstance(x.coeffs[0], Jet)

    for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        def counted(self, other, real=getattr(Jet, name), name=name):
            if is_nested(self) or is_nested(other):
                nested[current[0], name] += 1
            return real(self, other)

        monkeypatch.setattr(Jet, name, counted)
    for index in range(4):
        config = draw_sample(7, index, *bounds)
        for suite, evaluate in verify_mod._SUITE_EVALS.items():
            current[0] = suite
            assert evaluate(config)[0] is True, (suite, index)
    assert not nested, nested


def _lax_y_control_inputs(config):
    """The configuration and the solved tail of lax-y."""
    chain = GammaChain(config.gamma, config.curve)
    return verify_mod._sample_data(config, 0, 2), verify_mod.solve_tail_constants(chain)


def _full_control_window(data, solved):
    """The control's full window on a configuration built anew from the
    bumped curve-point jet: the independent reference."""
    jets = GammaChain(data.chain, data.curve)
    bumped = verify_mod.darboux_data(jets, verify_mod._bump_second(data.point))
    return verify_mod.commutator_y_check(bumped, solved)


@pytest.mark.parametrize("bounds", [(1000, 8), WIDE_BOUNDS], ids=["default", "wide"])
def test_lax_y_control_witness_is_the_first_nonzero_of_its_full_window(bounds):
    """The control stops at a witness, and that witness is the first nonzero
    coefficient, sites outer and shift powers inner, of the full window."""
    for index in range(20):
        inputs = _lax_y_control_inputs(draw_sample(7, index, *bounds))
        full = _full_control_window(*inputs)
        first = next(
            (n, j, full.coeff(j, n))
            for n in range(full.n0, full.n1 + 1)
            for j in range(full.lo, full.hi + 1)
            if full.coeff(j, n) != 0
        )
        witness = verify_mod._lax_y_control(*inputs)
        assert witness == first, (bounds, index)
        assert repr(witness) == repr(first), (bounds, index)


def test_lax_y_control_costs_a_third_of_its_full_window_at_most(monkeypatch):
    """A deterministic cost bound instead of a wall clock: over four draws
    the control multiplies at most a third as many jets as its full window
    (about a quarter, stopping at site 0), so a control that quietly reads
    every coefficient again fails here."""
    real = Jet.__mul__
    count = [0]

    def counted(a, b):
        count[0] += 1
        return real(a, b)

    monkeypatch.setattr(Jet, "__mul__", counted)
    lazy = full = 0
    for index in range(4):
        inputs = _lax_y_control_inputs(draw_sample(7, index))
        before = count[0]
        assert verify_mod._lax_y_control(*inputs) is not None
        lazy += count[0] - before
        before = count[0]
        assert not _full_control_window(*inputs).is_zero()
        full += count[0] - before
    assert 0 < 3 * lazy <= full, (lazy, full)


PERTURBATIONS = {
    "chain-solved-s0": ("chain", _off_solved_s0),
    "chain-bare-s1": ("chain", _bare_tail_s1),
    "chain-wp-prime": ("chain", _wp_prime_plus_one),
    "factorization-chi2": ("factorization", _chi2_plus_one),
    "lax-x-gamma-prime": ("lax-x", _gamma0_prime_plus_one),
    "lax-l4-gamma-prime": ("lax-l4", _gamma0_prime_plus_one),
    "lax-y-off-constants": ("lax-y", _off_solved_s0),
    "lax-y-wp-prime": ("lax-y", _wp_prime_plus_one),
}

# draw_sample(7, 0) has F(z0) < 0.  draw_sample(7, 6) has F(z0) > 0, where
# |a + b sqrt(D)| and |a - b sqrt(D)| differ: under the w' perturbation the
# chain's and lax-y's worst residuals are sign -1 magnitudes there.
NEGATIVE_DISC_DRAW, POSITIVE_DISC_DRAW = 0, 6


@pytest.mark.parametrize(
    "suite, perturb, index",
    [
        pytest.param(suite, perturb, index, id=name + suffix)
        for index, suffix in ((NEGATIVE_DISC_DRAW, ""), (POSITIVE_DISC_DRAW, "-positive-disc"))
        for name, (suite, perturb) in PERTURBATIONS.items()
    ],
)
def test_suite_rejects_perturbed_input(monkeypatch, suite, perturb, index):
    """Every evaluator fails on a perturbed input, and reports as its worst
    residual the largest magnitude over both signs of w."""
    config = draw_sample(7, index)
    assert (config.curve.eval(config.z0) > 0) == (index == POSITIVE_DISC_DRAW)
    assert verify_mod._SUITE_EVALS[suite](config)[0] is True
    perturb(monkeypatch)
    ok, worst, info = verify_mod._SUITE_EVALS[suite](config)
    assert ok is False
    assert worst > 0
    _assert_same_outcome((ok, worst, info), TWO_SIGN_REFERENCE[suite](config), suite)


def test_failure_dump_replays_as_failure(monkeypatch):
    _chi2_plus_one(monkeypatch)
    report = run_suite("factorization", samples=1, seed=7)
    assert report.passes == 0 and report.max_residual > 0
    (dump,) = report.failures
    assert dump["note"] == "residual nonzero"
    replayed = replay_config(*read_dump(dump), dump["sample"])
    assert not replayed.passed and replayed.max_residual > 0
    assert [f["note"] for f in replayed.failures] == ["replay"]
