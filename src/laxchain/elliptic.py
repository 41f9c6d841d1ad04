"""Weierstrass-type function of ``(p')**2 = F(p)`` on the elliptic spectral curve.

Two complementary views of the same ODE:

* numeric: RK4 on the bounded oscillatory real branch between the two lowest
  real roots of ``F`` (pole-free for all real y), with energy monitoring;
* exact: y-jets at a curve point in the quadratic extension with a formal
  ``w = sqrt(F(z0))``, which is all the Darboux identity checks need.

The sign of the derivative at an exact point is the abstract ``w``; the
branch is not fixed by the curve alone, so both signs are certified.  The
sign -1 jet is the conjugate (``w -> -w``) of the sign +1 jet, and exact
callers evaluate sign +1 only and conjugate the results (see ``darboux``).
"""

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .curves import SpectralCurve
from .errors import AccuracyError, UnsupportedCurveError
from .flows import _check_step, rk4_run
from .scalars import Fraction, Jet, QuadExt, rational

__all__ = [
    "BoundedBranch",
    "exact_wp_jet",
    "wp_init_bounded",
    "wp_integrate",
    "wp_trajectory",
]

ROOT_RESIDUAL_TOL = 1e-12
ENERGY_DRIFT_TOL = 1e-8


def exact_wp_jet(curve, p, order=2, sign=1):
    """Exact y-jet ``(p, w, F'(p)/2, F''(p) w / 2)`` of ``(p')**2 = F(p)``.

    The coefficients follow from differentiating the defining ODE, with
    ``w = sign * sqrt(F(p))`` adjoined formally.  All derivatives are
    induced, so the jet satisfies the curve relation and its derivative
    identically in the extension.  The sign -1 jet equals the
    ``conjugate()`` of the sign +1 jet, so the library asks for sign +1 only.
    """
    if not 0 <= order <= 3:
        raise ValueError(f"jet order must be between 0 and 3, got {order}")
    p = rational(p)
    disc = curve.eval(p)

    def lift(x):
        return QuadExt(x, Fraction(0), disc)

    w = QuadExt(Fraction(0), Fraction(sign), disc)
    coeffs = (
        lift(p),
        w,
        lift(curve.eval_derivative(p, 1)) / 2,
        lift(curve.eval_derivative(p, 2)) * w / 2,
    )
    return Jet(coeffs[: order + 1])


@dataclass(frozen=True)
class BoundedBranch:
    """State of the bounded real branch: ``wp`` oscillates in [e3, e2]."""

    curve: SpectralCurve
    roots: tuple  # e1 > e2 > e3
    y: float
    wp: float
    wp_prime: float

    def energy(self):
        """Conserved quantity ``(wp')**2 - F(wp)`` (zero on the branch)."""
        return self.wp_prime**2 - float(self.curve.eval(self.wp))


def _real_roots_sorted(curve):
    c0, c1, c2 = (float(c) for c in curve.coeffs)
    roots = np.roots([1.0, c2, c1, c0])
    if np.any(np.abs(roots.imag) > 1e-9):
        raise UnsupportedCurveError(
            "bounded branch needs three real roots; got complex roots"
        )
    real = np.sort(roots.real)
    if real[1] - real[0] < 1e-9 or real[2] - real[1] < 1e-9:
        raise UnsupportedCurveError(
            "bounded branch needs three distinct real roots; found a repeated root"
        )
    for r in real:
        if abs(float(curve.eval(float(r)))) > ROOT_RESIDUAL_TOL * max(
            1.0, abs(r) ** 3
        ):
            raise UnsupportedCurveError(f"root validation failed at z = {r}")
    return float(real[2]), float(real[1]), float(real[0])  # e1 > e2 > e3


def wp_init_bounded(curve):
    """Initialize the pole-free oscillatory branch at the lowest root.

    ``wp(0) = e3``, ``wp'(0) = 0``; the trajectory then stays inside
    ``[e3, e2]`` for all real y.  Curves without three distinct real roots
    are rejected, not silently approximated.
    """
    e1, e2, e3 = _real_roots_sorted(curve)
    return BoundedBranch(curve=curve, roots=(e1, e2, e3), y=0.0, wp=e3, wp_prime=0.0)


def _wp_rhs(curve):
    """Vector field ``(wp, wp') -> (wp', F'(wp)/2)`` on the float curve,
    for the two-component list state that :func:`rk4_run` steps."""
    fcurve = curve.to_float()
    return lambda vec: [vec[1], fcurve.eval_derivative(vec[0], 1) / 2.0]


def _check_target(name, value, start):
    if not (isfinite(value) and value >= start):
        raise ValueError(
            f"{name}: must be finite and not behind the start y = {start}, got {value}"
        )


def wp_integrate(state, y, h):
    """Integrate the branch from ``state.y`` to ``y``; returns the new state.

    Raises :class:`AccuracyError` if the energy drift exceeds the budget
    (the run is then untrustworthy, not merely imprecise).
    """
    _check_step(h)
    _check_target("y", y, state.y)
    rhs = _wp_rhs(state.curve)
    vec = (state.wp, state.wp_prime)
    e0 = state.energy()
    remaining = y - state.y
    nsteps = int(remaining // h)
    vec = rk4_run(rhs, vec, h, nsteps)
    tail = remaining - nsteps * h
    if tail > 1e-15:
        vec = rk4_run(rhs, vec, tail, 1)
    new = BoundedBranch(
        curve=state.curve,
        roots=state.roots,
        y=float(y),
        wp=float(vec[0]),
        wp_prime=float(vec[1]),
    )
    if abs(new.energy() - e0) > ENERGY_DRIFT_TOL:
        raise AccuracyError(
            f"energy drift {abs(new.energy() - e0):.3e} exceeds "
            f"{ENERGY_DRIFT_TOL:.0e} integrating to y = {y}"
        )
    return new


def wp_trajectory(state, y_max, h):
    """Step the branch to ``y_max`` recording every step.

    Returns arrays ``(y, wp, wp_prime, energy_drift)`` ready for CSV output.
    """
    _check_step(h)
    _check_target("y_max", y_max, state.y)
    steps = int(round((y_max - state.y) / h))
    states = np.empty((steps + 1, 2))
    states[0] = (state.wp, state.wp_prime)
    rk4_run(_wp_rhs(state.curve), states[0], h, steps, states)
    ys = state.y + np.arange(steps + 1) * h
    wps, wpps = states[:, 0], states[:, 1]
    drift = wpps**2 - state.curve.to_float().eval(wps)
    return ys, wps, wpps, drift - state.energy()
