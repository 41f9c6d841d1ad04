"""Right-hand sides of the integrable lattice flows and their integrators.

The central object is the N-periodic chain gamma_n(x) driven by the discrete
Krichever-Novikov (dKN) lattice

    gamma_n' = F(gamma_n) (gamma_{n-1} - gamma_{n+1})
               / ((gamma_{n-1} - gamma_n)(gamma_n - gamma_{n+1})),

with F the genus-1 spectral-curve polynomial.  The same chain induces the
coupled (V, W) system via

    V_n = F(gamma_n) / ((gamma_n - gamma_{n-1})(gamma_n - gamma_{n+1})),
    W_n = -c2 - gamma_n - gamma_{n+1},

whose own evolution and second hierarchy flow are implemented here, together
with jet prolongation along the dKN flow and a classical RK4 integrator.

Each right-hand side is one array expression over a whole period: it takes
periodic site arrays (:func:`site_array`) and returns the derivative at every
site, the neighbour n+k being a periodic shift of the array.  The same
function is generic in the scalar: object arrays of exact rationals and jets
verify identities and prolong jets, float64 arrays integrate.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import SpectralCurve
from .errors import AccuracyError, DegenerateConfigurationError
from .poly import poly_scale, poly_sub
from .scalars import NUMERIC_DEGENERACY_RTOL, Fraction, Jet, is_degenerate_pair

__all__ = [
    "FLOWS",
    "GammaChain",
    "GammaJetChain",
    "Trajectory",
    "VWChain",
    "chain_vw_rhs",
    "dkn_rhs",
    "flow2_rhs",
    "prolong_gamma_jets",
    "q_flow_rhs",
    "reduced_flow2_gamma",
    "rk4_integrate",
    "rk4_run",
    "site_array",
    "vn_from_gamma",
    "vw_chain_from_gamma",
    "wn_from_gamma",
]


def _normalize_value(v):
    return Fraction(v) if isinstance(v, int) else v


@dataclass(frozen=True)
class GammaChain:
    """N-periodic site values gamma_0..gamma_{N-1} tied to a genus-1 curve."""

    values: tuple
    curve: SpectralCurve

    def __post_init__(self):
        object.__setattr__(
            self, "values", tuple(_normalize_value(v) for v in self.values)
        )
        if len(self.values) < 2:
            raise ValueError("chain period must be at least 2")

    @property
    def period(self):
        return len(self.values)

    def gamma(self, n):
        return self.values[n % self.period]


@dataclass(frozen=True)
class GammaJetChain:
    """Chain whose sites carry jets (value and x-derivatives) of gamma_n."""

    jets: tuple
    curve: SpectralCurve

    @property
    def period(self):
        return len(self.jets)

    @property
    def order(self):
        return self.jets[0].order

    def gamma(self, n):
        return self.jets[n % self.period]


@dataclass(frozen=True)
class VWChain:
    """N-periodic (V, W) pair treated as independent dynamical variables."""

    v: tuple
    w: tuple

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(_normalize_value(x) for x in self.v))
        object.__setattr__(self, "w", tuple(_normalize_value(x) for x in self.w))
        if len(self.v) != len(self.w):
            raise ValueError("V and W chains must have equal periods")
        if len(self.v) < 2:
            raise ValueError("chain period must be at least 2")

    @property
    def period(self):
        return len(self.v)


@lru_cache(maxsize=None)
def _shift_index(period, k):
    index = (np.arange(period) + k) % period
    index.flags.writeable = False  # shared by every caller through the cache
    return index


def _at(a, k):
    """Periodic neighbour array: ``_at(a, k)[n] == a[(n + k) % N]``."""
    return a[_shift_index(len(a), k)]


def site_array(values):
    """Chain values as a site array: float64 if all are floats, else an
    object array that keeps exact rationals and jets exact (ints become
    Fractions; numpy never coerces them to machine numbers)."""
    values = [_normalize_value(v) for v in values]
    if all(isinstance(v, float) for v in values):
        return np.array(values, dtype=float)
    sites = np.empty(len(values), dtype=object)
    sites[:] = values
    return sites


def _check_gaps(gamma, gp):
    """Raise on the first colliding pair gamma_n, gamma_{n+1} (period-reduced):
    :func:`is_degenerate_pair`, vectorised for float sites."""
    if gamma.dtype == object:
        hits = [n for n in range(len(gamma)) if is_degenerate_pair(gamma[n], gp[n])]
    else:
        scale = np.maximum(np.maximum(np.abs(gamma), np.abs(gp)), 1.0)
        close = np.abs(gamma - gp) < NUMERIC_DEGENERACY_RTOL * scale
        if not close.any():
            return
        hits = np.flatnonzero(close)
    if len(hits):
        a, b = int(hits[0]), (int(hits[0]) + 1) % len(gamma)
        raise DegenerateConfigurationError(
            (a, b), f"gamma collision between sites {a} and {b}"
        )


def dkn_rhs(gamma, curve):
    """dKN right-hand side at every site of the periodic array ``gamma``.

    Requires gamma_n != gamma_{n+1} for every n (the denominator factors);
    the numerator may vanish freely.  Float64 sites need a float curve
    (:meth:`SpectralCurve.to_float`) to give a float64 result.
    """
    gm, gp = _at(gamma, -1), _at(gamma, 1)
    _check_gaps(gamma, gp)
    return (curve.eval(gamma) * (gm - gp)) / ((gm - gamma) * (gamma - gp))


def vn_from_gamma(gamma, curve):
    """Couplings ``V_n`` induced by the periodic site array ``gamma``."""
    gm, gp = _at(gamma, -1), _at(gamma, 1)
    _check_gaps(gamma, gp)
    return curve.eval(gamma) / ((gamma - gm) * (gamma - gp))


def wn_from_gamma(gamma, curve):
    """Diagonals ``W_n = -c2 - gamma_n - gamma_{n+1}``."""
    return -curve.coeffs[2] - gamma - _at(gamma, 1)


def vw_chain_from_gamma(chain):
    """Materialize the (V, W) chain induced by a gamma chain."""
    sites = site_array(chain.values)
    return VWChain(
        tuple(vn_from_gamma(sites, chain.curve).tolist()),
        tuple(wn_from_gamma(sites, chain.curve).tolist()),
    )


def chain_vw_rhs(v, w):
    """First flow of the coupled (V, W) system over periodic site arrays:

    dV_n = V_n (W_{n-1} - W_n + V_{n-1} - V_{n+1}),
    dW_n = (W_n - W_{n-1}) V_n + (W_{n+1} - W_n) V_{n+1}.
    """
    vm, vp = _at(v, -1), _at(v, 1)
    wm, wp = _at(w, -1), _at(w, 1)
    dv = v * (wm - w + vm - vp)
    dw = (w - wm) * v + (wp - w) * vp
    return dv, dw


def flow2_rhs(v, w):
    """Second hierarchy flow on (V, W) (the k = 2 symmetry)."""
    vmm, vm, vp, vpp = (_at(v, k) for k in (-2, -1, 1, 2))
    wmm, wm, wp, wpp = (_at(w, k) for k in (-2, -1, 1, 2))
    dv = v * (
        vmm * vm + vm * v - v * vp - vp * vpp
        + vm ** 2 - vp ** 2 + wm ** 2 - w ** 2
        + 2 * (vm + v) * wm - 2 * (v + vp) * w
    )
    dw = (
        vm * v * (wmm - 2 * wm + w)
        - vp * vpp * (w - 2 * wp + wpp)
        - v * (wm - w) * (2 * v + wm + w)
        - vp * (w - wp) * (2 * vp + w + wp)
    )
    return dv, dw


def reduced_flow2_gamma(gamma, curve):
    """Second hierarchy flow pushed down to the gamma chain.

    dgamma_n = V_n ( V_{n+1} (W_{n-1} - 2 W_n + W_{n+1})
                     - V_{n-1} (W_{n-2} - 2 W_{n-1} + W_n)
                     + (W_{n-1} - W_n)(2 V_n + W_{n-1} + W_n) )

    with V, W induced by the chain.
    """
    v, w = vn_from_gamma(gamma, curve), wn_from_gamma(gamma, curve)
    vm, vp = _at(v, -1), _at(v, 1)
    wmm, wm, wp = _at(w, -2), _at(w, -1), _at(w, 1)
    return v * (
        vp * (wm - 2 * w + wp)
        - vm * (wmm - 2 * wm + w)
        + (wm - w) * (2 * v + wm + w)
    )


def q_flow_rhs(q_prev, q_next, v_n):
    """Flow of the spectral polynomial: ``dQ_n = V_n (Q_{n+1} - Q_{n-1})``.

    ``q_prev`` and ``q_next`` are ascending coefficient sequences of the
    neighboring polynomials; the result is returned coefficient-wise.  Monic
    leading terms cancel, so the output degree drops below the input degree.
    """
    return poly_scale(poly_sub(tuple(q_next), tuple(q_prev)), v_n)


def prolong_gamma_jets(chain, order=2):
    """Taylor jets of every gamma_n along the dKN flow, to ``order`` <= 3.

    The k-th pass evaluates the right-hand side in jet arithmetic at the
    current order-(k-1) jets, which yields all derivatives through order k in
    one sweep (the derivative at a site only needs lower-order data at its
    neighbors, closed because every first derivative is given by the flow).
    """
    if not 1 <= order <= 3:
        raise ValueError(f"jet order must be between 1 and 3, got {order}")
    jets = [Jet((v,)) for v in chain.values]
    for _ in range(order):
        rhs = dkn_rhs(site_array(jets), chain.curve)
        jets = [Jet((v,) + d.coeffs) for v, d in zip(chain.values, rhs)]
    return GammaJetChain(tuple(jets), chain.curve)


# ---------------------------------------------------------------------------
# RK4 integration of the periodic flows (numeric path)
# ---------------------------------------------------------------------------

FLOWS = ("dkn", "vw", "flow2", "reduced_t2")


@dataclass(frozen=True)
class Trajectory:
    """RK4 output: recorded state vectors plus enough metadata to rebuild chains."""

    flow: str
    h: float
    states: np.ndarray  # shape (steps + 1, dim)
    kind: str  # "gamma" | "vw"
    period: int
    curve: SpectralCurve | None

    @property
    def steps(self):
        return self.states.shape[0] - 1

    def x_at(self, i):
        return i * self.h

    def chain_at(self, i):
        vec = self.states[i]
        if self.kind == "gamma":
            return GammaChain(tuple(float(v) for v in vec), self.curve)
        return VWChain(
            tuple(float(v) for v in vec[: self.period]),
            tuple(float(v) for v in vec[self.period:]),
        )


def rk4_run(rhs, vec, h, steps, out=None):
    """Advance ``vec`` by ``steps`` classical RK4 steps of size ``h``.

    ``rhs`` maps a float64 state array to its derivative; ``out[i + 1]``, if
    given, receives the state after step ``i``.  Returns the final state.
    Degeneracies are re-raised with the step index; a non-finite state
    aborts, naming the step, x and the non-finite components, so numpy's
    overflow warnings are muted.
    """
    with np.errstate(all="ignore"):
        for i in range(steps):
            try:
                k1 = rhs(vec)
                k2 = rhs(vec + 0.5 * h * k1)
                k3 = rhs(vec + 0.5 * h * k2)
                k4 = rhs(vec + h * k3)
            except DegenerateConfigurationError as err:
                raise DegenerateConfigurationError(
                    err.sites, f"at integration step {i}: {err}"
                ) from err
            vec = vec + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            finite = np.isfinite(vec)
            if not finite.all():
                raise AccuracyError(
                    f"non-finite state at integration step {i + 1} "
                    f"(x = {(i + 1) * h:g}) in components "
                    f"{np.flatnonzero(~finite).tolist()}"
                )
            if out is not None:
                out[i + 1] = vec
    return vec


def rk4_integrate(state, flow, h, steps):
    """Classical 4th-order Runge-Kutta on a periodic chain.

    ``state`` is a :class:`GammaChain` (flows "dkn", "reduced_t2") or a
    :class:`VWChain` (flows "vw", "flow2").  Each stage evaluates the flow's
    array right-hand side on the whole float64 state (see :func:`rk4_run`).
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    if steps < 0:
        raise ValueError(f"step count must be >= 0, got {steps}")
    if flow not in FLOWS:
        raise ValueError(f"unknown flow {flow!r}; expected one of {FLOWS}")

    period = state.period
    if flow in ("dkn", "reduced_t2"):
        if not isinstance(state, GammaChain):
            raise TypeError(f"flow {flow!r} integrates a GammaChain")
        fn = dkn_rhs if flow == "dkn" else reduced_flow2_gamma
        fcurve = state.curve.to_float()
        rhs = lambda y: fn(y, fcurve)
        vec = np.array([float(v) for v in state.values], dtype=float)
        kind, curve = "gamma", state.curve
    else:
        if not isinstance(state, VWChain):
            raise TypeError(f"flow {flow!r} integrates a VWChain")
        fn = chain_vw_rhs if flow == "vw" else flow2_rhs
        rhs = lambda y: np.concatenate(fn(y[:period], y[period:]))
        vec = np.array([float(v) for v in state.v + state.w], dtype=float)
        kind, curve = "vw", None

    out = np.empty((steps + 1, vec.size), dtype=float)
    out[0] = vec
    rk4_run(rhs, vec, h, steps, out)
    return Trajectory(flow, float(h), out, kind, period, curve)
