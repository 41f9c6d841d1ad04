from fractions import Fraction

import numpy as np
import pytest

from laxchain.curves import SpectralCurve
from laxchain.elliptic import (
    exact_wp_jet,
    wp_init_bounded,
    wp_integrate,
    wp_trajectory,
)
from laxchain.errors import AccuracyError, UnsupportedCurveError
from laxchain.scalars import QuadExt

from conftest import random_fraction

THREE_ROOTS = SpectralCurve.elliptic(0, -1, 0)  # z^3 - z, roots 1, 0, -1


def test_bounded_branch_initialization():
    branch = wp_init_bounded(THREE_ROOTS)
    assert branch.wp == pytest.approx(-1.0, abs=1e-12)
    assert branch.wp_prime == 0.0
    assert branch.energy() == pytest.approx(0.0, abs=1e-12)
    e1, e2, e3 = branch.roots
    assert (e1, e2, e3) == pytest.approx((1.0, 0.0, -1.0), abs=1e-9)


def test_unsupported_curves_rejected():
    with pytest.raises(UnsupportedCurveError):
        wp_init_bounded(SpectralCurve.elliptic(0, 0, 0))  # triple root
    with pytest.raises(UnsupportedCurveError):
        wp_init_bounded(SpectralCurve.elliptic(0, 1, 0))  # complex pair


def test_trajectory_confinement_and_turning_point():
    branch = wp_init_bounded(THREE_ROOTS)
    ys, wps, wpps, drift = wp_trajectory(branch, 20.0, 1e-3)
    e1, e2, e3 = branch.roots
    tol = 1e-9
    assert wps.min() >= e3 - tol
    assert wps.max() <= e2 + tol
    # turning point: wp' crosses zero with wp near e2
    crossings = np.where(np.diff(np.sign(wpps)) != 0)[0]
    assert len(crossings) >= 1
    near_top = [i for i in crossings if abs(wps[i] - e2) < 1e-4]
    assert near_top, "no turning point at the upper root"
    assert np.max(np.abs(drift)) < 1e-8


def test_energy_drift_budget():
    branch = wp_init_bounded(THREE_ROOTS)
    state = wp_integrate(branch, 10.0, 1e-3)  # 10^4 steps
    assert abs(state.energy() - branch.energy()) < 1e-8


def test_integrate_to_zero_is_identity():
    branch = wp_init_bounded(THREE_ROOTS)
    state = wp_integrate(branch, 0.0, 1e-3)
    assert state.wp == branch.wp and state.wp_prime == branch.wp_prime


def test_integrate_rejects_backwards():
    branch = wp_init_bounded(THREE_ROOTS)
    forward = wp_integrate(branch, 1.0, 1e-3)
    with pytest.raises(ValueError):
        wp_integrate(forward, 0.5, 1e-3)


def test_accuracy_error_on_coarse_steps():
    branch = wp_init_bounded(THREE_ROOTS)
    with pytest.raises(AccuracyError):
        wp_integrate(branch, 200.0, 0.9)


def test_self_convergence_order():
    branch = wp_init_bounded(THREE_ROOTS)
    ends = []
    for k in (1, 2, 4):
        s = wp_integrate(branch, 1.0, 0.02 / k)
        ends.append(np.array([s.wp, s.wp_prime]))
    e1 = np.max(np.abs(ends[0] - ends[1]))
    e2 = np.max(np.abs(ends[1] - ends[2]))
    order = np.log2(e1 / e2)
    assert 3.8 <= order <= 4.2


def test_exact_wp_jet_frozen_case():
    cubic = SpectralCurve.elliptic(0, 0, 0)
    jet = exact_wp_jet(cubic, Fraction(2), order=3)
    p, w, ddp, dddp = jet.coeffs
    assert p == 2
    assert w == QuadExt(Fraction(0), Fraction(1), Fraction(8))
    assert ddp == 6  # F'(2)/2 = 12/2
    assert dddp == QuadExt(Fraction(0), Fraction(6), Fraction(8))  # F''(2) w / 2


@pytest.mark.parametrize("sign", [1, -1])
def test_exact_wp_jet_satisfies_curve_relations(sign):
    curve = SpectralCurve.elliptic(Fraction(1, 3), Fraction(-2), Fraction(5, 7))
    jet = exact_wp_jet(curve, Fraction(9, 2), order=3, sign=sign)
    # (wp')^2 - F(wp) vanishes as a jet: value and all derivatives
    wp = jet.truncate(2)
    dwp = jet.derivative()
    energy = dwp * dwp - curve.eval(wp)
    assert energy == 0


def test_exact_wp_jet_order_bounds():
    with pytest.raises(ValueError):
        exact_wp_jet(THREE_ROOTS, Fraction(2), order=4)


# ---------------------------------------------------------------------------
# The curve-point jet against its formula written out
# ---------------------------------------------------------------------------

def _reference_exact_jet(curve, p, order, sign):
    """The exact jet with each coefficient written out on its own."""
    disc = curve.eval(p)

    def lift(x):
        return QuadExt(x, Fraction(0), disc)

    coeffs = [
        lift(p),
        QuadExt(Fraction(0), Fraction(sign), disc),
        lift(curve.eval_derivative(p, 1) / 2),
        QuadExt(Fraction(0), Fraction(sign) * curve.eval_derivative(p, 2) / 2, disc),
    ]
    return coeffs[: order + 1]


def _deep_key(x):
    """Type and value of every component."""
    if isinstance(x, QuadExt):
        return ("QuadExt", _deep_key(x.a), _deep_key(x.b), _deep_key(x.disc))
    return (type(x).__name__, x)


def test_curve_jets_match_the_separate_formulas(rng):
    curves = [
        THREE_ROOTS,
        SpectralCurve.elliptic(0, 0, 1),
        SpectralCurve.elliptic(Fraction(1, 3), Fraction(-2), Fraction(5, 7)),
    ]
    curves += [
        SpectralCurve.elliptic(*(random_fraction(rng) for _ in range(3)))
        for _ in range(5)
    ]
    for curve in curves:
        for _ in range(6):
            p = random_fraction(rng)
            for sign in (1, -1):
                for order in range(4):
                    got = exact_wp_jet(curve, p, order=order, sign=sign).coeffs
                    want = _reference_exact_jet(curve, p, order, sign)
                    assert [_deep_key(c) for c in got] == [_deep_key(c) for c in want]


BAD_STEPS = [0.0, -1e-3, float("nan"), float("inf")]
BAD_TARGETS = [float("nan"), float("inf"), -0.5]


@pytest.mark.parametrize("h", BAD_STEPS)
def test_bad_step_size_is_refused(h):
    branch = wp_init_bounded(THREE_ROOTS)
    with pytest.raises(ValueError, match="^h: step size must be finite and positive"):
        wp_integrate(branch, 0.5, h)
    with pytest.raises(ValueError, match="^h: step size must be finite and positive"):
        wp_trajectory(branch, 0.5, h)


@pytest.mark.parametrize("target", BAD_TARGETS)
def test_bad_target_is_refused(target):
    branch = wp_init_bounded(THREE_ROOTS)
    with pytest.raises(ValueError, match="^y: must be finite and not behind"):
        wp_integrate(branch, target, 1e-3)
    with pytest.raises(ValueError, match="^y_max: must be finite and not behind"):
        wp_trajectory(branch, target, 1e-3)


def test_trajectory_runs_from_the_branch_state_to_y_max():
    forward = wp_integrate(wp_init_bounded(THREE_ROOTS), 0.25, 1e-3)
    ys, wps, wpps, drift = wp_trajectory(forward, 0.5, 1e-3)
    assert len(ys) == 251 and ys[0] == 0.25 and ys[-1] == pytest.approx(0.5)
    assert (wps[0], wpps[0]) == (forward.wp, forward.wp_prime)
    with pytest.raises(ValueError, match="^y_max"):
        wp_trajectory(forward, 0.2, 1e-3)
