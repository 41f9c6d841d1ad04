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

Each flow's right-hand side is written once, as a per-site expression: the
derivative at site n from the values at its neighbours n+k (``_dkn_site``
and its siblings).  It is evaluated at every site in one of two ways (see
:func:`_site_ops`).  On a list of Python scalars (exact rationals and jets
to verify identities and prolong jets, or floats) it is mapped site by
site; :func:`rk4_run` steps a float state of at most ``SMALL_STATE_MAX`` =
20 components that way, because below that size numpy's per-call overhead,
not the arithmetic, sets the cost of a step.  On a float64 array, for long
chains, the neighbour n+k is a periodic shift and numpy broadcasts the
expression over the whole period.  Both evaluations run the same float
operations in the same order, so they give the same bits.

Colliding neighbours are refused before anything divides by their gap
(:func:`_check_gaps`): exact values when equal, floats by the relative
rule :func:`floats_collide`, which lives here since the scalar layer is
exact only.

Microseconds per RK4 step, list stepper / float64-array stepper, by number
of state components (the period N for dkn and reduced_t2, 2N for vw and
flow2); best of 15 to 25 runs of 40 steps on tiled README chains, one core
of a 2-vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6:

    components     4       8      16      20      24      32      40      56
    dkn         19/51   27/49   43/51   51/51   59/50   75/50      --      --
    reduced_t2  35/91   51/96   81/99   99/100 111/99  137/95      --      --
    vw          16/35   19/35   25/36   33/38   35/38   40/38   46/41   59/37
    flow2       30/123  40/117  51/118  60/123  67/122  82/122  97/123 129/123

dkn and reduced_t2 break even near 20 components, vw near 30 and flow2 near
52; ``SMALL_STATE_MAX`` is the smallest of these.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite

import numpy as np

from .curves import SpectralCurve
from .errors import AccuracyError, DegenerateConfigurationError
from .poly import poly_scale, poly_sub
from .scalars import Fraction, Jet, QuadExt, rational, scalar_value

try:
    from operator import call
except ImportError:  # Python 3.10

    def call(expr, *args):
        return expr(*args)


__all__ = [
    "FLOWS",
    "NUMERIC_DEGENERACY_RTOL",
    "SMALL_STATE_MAX",
    "GammaChain",
    "Trajectory",
    "VWChain",
    "chain_vw_rhs",
    "dkn_rhs",
    "floats_collide",
    "flow2_rhs",
    "prolong_gamma_jets",
    "q_flow_rhs",
    "reduced_flow2_gamma",
    "rk4_integrate",
    "rk4_run",
    "vn_from_gamma",
    "vw_chain_from_gamma",
    "wn_from_gamma",
]


def _site_values(values, name):
    """``values`` as a tuple, each int read as a Fraction by ``rational``,
    which refuses a bool: the ``TypeError`` names ``name`` and the site."""
    out = []
    for n, v in enumerate(values):
        if isinstance(v, int):
            try:
                v = rational(v)
            except TypeError as err:
                raise TypeError(f"{name} at site {n}: {err}") from None
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class GammaChain:
    """N-periodic site values gamma_0..gamma_{N-1} (numbers or x-jets) on a curve.

    :meth:`shared` keeps values that depend on the chain alone in a memo of
    the chain's own, which is not a field: every reader of one chain object
    shares it, and a copy made by ``dataclasses.replace`` starts empty."""

    values: tuple
    curve: SpectralCurve

    def __post_init__(self):
        object.__setattr__(self, "values", _site_values(self.values, "gamma"))
        if len(self.values) < 2:
            raise ValueError("chain period must be at least 2")
        object.__setattr__(self, "_shared", {})

    @property
    def period(self):
        return len(self.values)

    def gamma(self, n):
        return self.values[n % self.period]

    def shared(self, key, compute):
        """``compute()`` on the first call with ``key``, kept in the chain's
        memo and returned again on every later call with it."""
        hit = self._shared.get(key)
        if hit is None:
            hit = self._shared[key] = compute()
        return hit


@dataclass(frozen=True)
class VWChain:
    """N-periodic (V, W) pair treated as independent dynamical variables."""

    v: tuple
    w: tuple

    def __post_init__(self):
        object.__setattr__(self, "v", _site_values(self.v, "V"))
        object.__setattr__(self, "w", _site_values(self.w, "W"))
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


def _shifted(a, k):
    return a[_shift_index(len(a), k)]


def _rotated(a, k):
    return a[k:] + a[:k]  # |k| <= 2 <= N


def _mapped(expr, *sites):
    return list(map(expr, *sites))


def _site_ops(sites):
    """``(at, each)`` for the representation of ``sites``.

    ``at(a, k)[n] == a[(n + k) % N]`` is the periodic neighbour sequence;
    ``each(expr, *sequences)`` evaluates the per-site expression ``expr``
    at every site of aligned neighbour sequences.  On a list of scalars
    ``at`` rotates the list and ``expr`` is mapped one site at a time; on a
    float64 array ``at`` is a periodic shift and ``expr`` is called once,
    numpy broadcasting it one ufunc per operation.  Every site runs the
    same operations in the same order either way, so a float gets the same
    bits.  Callers choose once per call, so arrays pay no dispatch per
    operation."""
    return (_rotated, _mapped) if isinstance(sites, list) else (_shifted, call)


# Relative threshold below which two floats count as a degenerate collision.
NUMERIC_DEGENERACY_RTOL = 1e-12


def floats_collide(a, b):
    """The float collision rule ``|a - b| < RTOL * max(1, |a|, |b|)``.

    Written as three comparisons, so it holds for two floats and
    elementwise for two float64 arrays alike.  Rounding ``RTOL * x`` is
    monotone in ``x``, so the disjunction decides exactly as the max does;
    a NaN gap collides with nothing.
    """
    gap = abs(a - b)
    return (
        (gap < NUMERIC_DEGENERACY_RTOL)
        | (gap < NUMERIC_DEGENERACY_RTOL * abs(a))
        | (gap < NUMERIC_DEGENERACY_RTOL * abs(b))
    )


def _values_equal(a, b):
    return scalar_value(a) == scalar_value(b)


def _check_gaps(gamma, gp):
    """Raise on the first colliding pair gamma_n, gamma_{n+1} (period-reduced).

    One rule per kind: exact lists (rationals or jets of them) collide only
    on equal values, whatever their derivatives; float lists, site by site,
    and float64 arrays, elementwise, collide by :func:`floats_collide`.  A
    list whose first entry is a float (numpy's float64 scalars included)
    takes the float rule."""
    if isinstance(gamma, list):
        collide = floats_collide if isinstance(gamma[0], float) else _values_equal
        if not any(map(collide, gamma, gp)):
            return
        hits = [n for n, hit in enumerate(map(collide, gamma, gp)) if hit]
    else:
        # an all-clear first: no pair's threshold exceeds the chain-wide one
        if abs(gamma - gp).min() >= NUMERIC_DEGENERACY_RTOL * max(1.0, abs(gamma).max()):
            return
        hits = np.flatnonzero(floats_collide(gamma, gp))
    if len(hits):
        a, b = int(hits[0]), (int(hits[0]) + 1) % len(gamma)
        raise DegenerateConfigurationError(
            (a, b), f"gamma collision between sites {a} and {b}"
        )


# Per-site expressions: site n's derivative from its neighbours' values
# (``m``/``p`` suffixes: n-1/n+1, doubled for n-2/n+2; ``f`` is F(gamma_n)).
# Squares are written ``x * x``: a Python float's ``**`` raises on overflow.

def _dkn_site(f, gm, g, gp):
    return (f * (gm - gp)) / ((gm - g) * (g - gp))


def _v_site(f, gm, g, gp):
    return f / ((g - gm) * (g - gp))


def _reduced_t2_site(vm, v, vp, wmm, wm, w, wp):
    return v * (
        vp * (wm - 2 * w + wp)
        - vm * (wmm - 2 * wm + w)
        + (wm - w) * (2 * v + wm + w)
    )


def _vw_dv_site(vm, v, vp, wm, w):
    return v * (wm - w + vm - vp)


def _vw_dw_site(v, vp, wm, w, wp):
    return (w - wm) * v + (wp - w) * vp


def _flow2_dv_site(vmm, vm, v, vp, vpp, wm, w):
    return v * (
        vmm * vm + vm * v - v * vp - vp * vpp
        + vm * vm - vp * vp + wm * wm - w * w
        + 2 * (vm + v) * wm - 2 * (v + vp) * w
    )


def _flow2_dw_site(vm, v, vp, vpp, wmm, wm, w, wp, wpp):
    return (
        vm * v * (wmm - 2 * wm + w)
        - vp * vpp * (w - 2 * wp + wpp)
        - v * (wm - w) * (2 * v + wm + w)
        - vp * (w - wp) * (2 * vp + w + wp)
    )


def dkn_rhs(gamma, curve):
    """dKN right-hand side at every site of the periodic sites ``gamma``.

    Requires gamma_n != gamma_{n+1} for every n (the denominator factors);
    the numerator may vanish freely.  A float64 array needs a float curve
    (:meth:`SpectralCurve.to_float`) to give a float64 result.
    """
    at, each = _site_ops(gamma)
    gm, gp = at(gamma, -1), at(gamma, 1)
    _check_gaps(gamma, gp)
    return each(_dkn_site, each(curve.eval, gamma), gm, gamma, gp)


def vn_from_gamma(gamma, curve):
    """Couplings ``V_n`` induced by the periodic sites ``gamma``."""
    at, each = _site_ops(gamma)
    gm, gp = at(gamma, -1), at(gamma, 1)
    _check_gaps(gamma, gp)
    return each(_v_site, each(curve.eval, gamma), gm, gamma, gp)


def wn_from_gamma(gamma, curve):
    """Diagonals ``W_n = -c2 - gamma_n - gamma_{n+1}``."""
    c2 = curve.coeffs[2]
    at, each = _site_ops(gamma)
    return each(lambda g, gp: -c2 - g - gp, gamma, at(gamma, 1))


def vw_chain_from_gamma(chain):
    """Materialize the (V, W) chain induced by a gamma chain."""
    sites, curve = list(chain.values), chain.curve
    return VWChain(vn_from_gamma(sites, curve), wn_from_gamma(sites, curve))


def chain_vw_rhs(v, w):
    """First flow of the coupled (V, W) system over periodic sites:

    dV_n = V_n (W_{n-1} - W_n + V_{n-1} - V_{n+1}),
    dW_n = (W_n - W_{n-1}) V_n + (W_{n+1} - W_n) V_{n+1}.
    """
    at, each = _site_ops(v)
    vm, vp = at(v, -1), at(v, 1)
    wm, wp = at(w, -1), at(w, 1)
    return each(_vw_dv_site, vm, v, vp, wm, w), each(_vw_dw_site, v, vp, wm, w, wp)


def flow2_rhs(v, w):
    """Second hierarchy flow on (V, W) (the k = 2 symmetry)."""
    at, each = _site_ops(v)
    vmm, vm, vp, vpp = (at(v, k) for k in (-2, -1, 1, 2))
    wmm, wm, wp, wpp = (at(w, k) for k in (-2, -1, 1, 2))
    return (
        each(_flow2_dv_site, vmm, vm, v, vp, vpp, wm, w),
        each(_flow2_dw_site, vm, v, vp, vpp, wmm, wm, w, wp, wpp),
    )


def reduced_flow2_gamma(gamma, curve):
    """Second hierarchy flow pushed down to the gamma chain.

    dgamma_n = V_n ( V_{n+1} (W_{n-1} - 2 W_n + W_{n+1})
                     - V_{n-1} (W_{n-2} - 2 W_{n-1} + W_n)
                     + (W_{n-1} - W_n)(2 V_n + W_{n-1} + W_n) )

    with V, W induced by the chain.
    """
    v, w = vn_from_gamma(gamma, curve), wn_from_gamma(gamma, curve)
    at, each = _site_ops(v)
    return each(
        _reduced_t2_site,
        at(v, -1), v, at(v, 1), at(w, -2), at(w, -1), w, at(w, 1),
    )


def q_flow_rhs(q_prev, q_next, v_n):
    """Flow of the spectral polynomial: ``dQ_n = V_n (Q_{n+1} - Q_{n-1})``.

    ``q_prev`` and ``q_next`` are ascending coefficient sequences of the
    neighboring polynomials; the result is returned coefficient-wise.  Monic
    leading terms cancel, so the output degree drops below the input degree.
    """
    return poly_scale(poly_sub(tuple(q_next), tuple(q_prev)), v_n)


def prolong_gamma_jets(chain, order=2):
    """The chain of Taylor jets of gamma_n along the dKN flow, to ``order`` <= 3.

    The k-th pass evaluates the right-hand side in jet arithmetic at the
    current order-(k-1) jets, which yields all derivatives through order k in
    one sweep (the derivative at a site only needs lower-order data at its
    neighbors, closed because every first derivative is given by the flow).
    The chain values must be exact (Fractions or QuadExts): any other value
    raises ``TypeError`` naming its site.
    """
    if not 1 <= order <= 3:
        raise ValueError(f"jet order must be between 1 and 3, got {order}")
    for n, v in enumerate(chain.values):
        if not isinstance(v, (Fraction, QuadExt)):
            raise TypeError(f"gamma at site {n} is a {type(v).__name__}, not exact: {v!r}")
    jets = [Jet((v,)) for v in chain.values]
    for _ in range(order):
        rhs = dkn_rhs(jets, chain.curve)
        jets = [Jet((v,) + d.coeffs) for v, d in zip(chain.values, rhs)]
    return GammaChain(tuple(jets), chain.curve)


# ---------------------------------------------------------------------------
# RK4 integration of the periodic flows (numeric path)
# ---------------------------------------------------------------------------

FLOWS = ("dkn", "vw", "flow2", "reduced_t2")

# States up to this many components are stepped as lists of Python floats,
# longer ones as float64 arrays (see rk4_run and the module docstring).
SMALL_STATE_MAX = 20


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
        vec = self.states[i].tolist()
        if self.kind == "gamma":
            return GammaChain(vec, self.curve)
        return VWChain(vec[: self.period], vec[self.period:])


def _nonfinite_components(vec):
    """Indices of the non-finite entries of a state list or float64 array."""
    if isinstance(vec, list):
        if isfinite(sum(vec)):
            return []
        return [n for n, x in enumerate(vec) if not isfinite(x)]
    finite = np.isfinite(vec)
    return [] if finite.all() else np.flatnonzero(~finite).tolist()


def _concat(a, b):
    return a + b if isinstance(a, list) else np.concatenate((a, b))


def rk4_run(rhs, vec, h, steps, out=None):
    """Advance ``vec`` by ``steps`` classical RK4 steps of size ``h``.

    A state of at most :data:`SMALL_STATE_MAX` components is stepped as a
    list of Python floats, a longer one as a float64 array; ``rhs`` maps the
    state to its derivative in the same representation.  The stage
    arithmetic is written for each: the same operations in the same order,
    so the two give the same bits, and neither shares code with the other
    in the loop.  ``out[i + 1]``, if given, receives the state after step
    ``i``.  Returns the final state as a float64 array.  Degeneracies are
    re-raised with the step index; a non-finite state aborts, naming the
    step, x and the non-finite components, so numpy's overflow warnings are
    muted.
    """
    vec = np.asarray(vec, dtype=float)
    half, sixth = 0.5 * h, h / 6.0
    if vec.size <= SMALL_STATE_MAX:
        vec = vec.tolist()

        def advance(y, c, k):
            return [a + c * b for a, b in zip(y, k)]

        def combine(y, k1, k2, k3, k4):
            return [
                a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
            ]
    else:

        def advance(y, c, k):
            return y + c * k

        def combine(y, k1, k2, k3, k4):
            return y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    with np.errstate(all="ignore"):
        for i in range(steps):
            try:
                k1 = rhs(vec)
                k2 = rhs(advance(vec, half, k1))
                k3 = rhs(advance(vec, half, k2))
                k4 = rhs(advance(vec, h, k3))
            except DegenerateConfigurationError as err:
                raise DegenerateConfigurationError(
                    err.sites, f"at integration step {i}: {err}"
                ) from err
            vec = combine(vec, k1, k2, k3, k4)
            bad = _nonfinite_components(vec)
            if bad:
                raise AccuracyError(
                    f"non-finite state at integration step {i + 1} "
                    f"(x = {(i + 1) * h:g}) in components {bad}"
                )
            if out is not None:
                out[i + 1] = vec
    return np.asarray(vec, dtype=float)


def _check_step(h):
    if not (isfinite(h) and h > 0):
        raise ValueError(f"h: step size must be finite and positive, got {h}")


def rk4_integrate(state, flow, h, steps):
    """Classical 4th-order Runge-Kutta on a periodic chain.

    ``state`` is a :class:`GammaChain` (flows "dkn", "reduced_t2") or a
    :class:`VWChain` (flows "vw", "flow2").  Each stage evaluates the flow's
    right-hand side on the whole float state (see :func:`rk4_run`).
    """
    _check_step(h)
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
        rhs = lambda y: _concat(*fn(y[:period], y[period:]))
        vec = np.array([float(v) for v in state.v + state.w], dtype=float)
        kind, curve = "vw", None

    out = np.empty((steps + 1, vec.size), dtype=float)
    out[0] = vec
    rk4_run(rhs, vec, h, steps, out)
    return Trajectory(flow, float(h), out, kind, period, curve)
