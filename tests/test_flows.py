import math
from fractions import Fraction

import numpy as np
import pytest

from laxchain import elliptic, flows
from laxchain.curves import SpectralCurve
from laxchain.errors import AccuracyError, DegenerateConfigurationError
from laxchain.flows import (
    FLOWS,
    SMALL_STATE_MAX,
    GammaChain,
    VWChain,
    chain_vw_rhs,
    dkn_rhs,
    flow2_rhs,
    prolong_gamma_jets,
    q_flow_rhs,
    reduced_flow2_gamma,
    rk4_integrate,
    rk4_run,
    vn_from_gamma,
    vw_chain_from_gamma,
    wn_from_gamma,
)
from laxchain.scalars import Jet, QuadExt
from laxchain.spectral import QPolynomial, q_conserved_value

from conftest import random_chain

CUBIC = SpectralCurve.elliptic(0, 0, 0)  # z^3


@pytest.mark.parametrize("site", range(4))
def test_gamma_chain_refuses_a_bool_at_each_site(site):
    """A bool is an int only by inheritance: it used to enter as Fraction(1)
    and be prolonged like any exact value."""
    values = [Fraction(1, 2), 2, 3.5, Fraction(5)]
    values[site] = True
    with pytest.raises(TypeError, match=rf"^gamma at site {site}: cannot coerce bool"):
        GammaChain(tuple(values), CUBIC)


@pytest.mark.parametrize("name, site", [("V", 0), ("V", 1), ("W", 0), ("W", 1)])
def test_vw_chain_refuses_a_bool_at_each_site(name, site):
    chain = {"V": [Fraction(2), 1.0], "W": [0, 1]}
    chain[name][site] = False
    with pytest.raises(TypeError, match=rf"^{name} at site {site}: cannot coerce bool"):
        VWChain(tuple(chain["V"]), tuple(chain["W"]))


def test_chain_values_keep_their_kinds():
    """Ints become Fractions; floats, Fractions, QuadExts and jets are kept."""
    quad = QuadExt(Fraction(1), Fraction(2), Fraction(3))
    jet = Jet.variable(Fraction(1, 3), 1)
    chain = GammaChain((7, 2.5, Fraction(1, 3), quad, jet), CUBIC)
    assert [type(v) for v in chain.values] == [Fraction, float, Fraction, QuadExt, Jet]
    assert chain.values == (Fraction(7), 2.5, Fraction(1, 3), quad, jet)
    vw = VWChain((3, 0.5), (Fraction(1, 2), -4))
    assert [type(v) for v in vw.v + vw.w] == [Fraction, float, Fraction, Fraction]
    assert vw.v + vw.w == (3, 0.5, Fraction(1, 2), -4)


def test_chains_need_two_sites():
    with pytest.raises(ValueError, match="period must be at least 2"):
        VWChain((Fraction(1),), (Fraction(0),))
    with pytest.raises(ValueError, match="period must be at least 2"):
        GammaChain((Fraction(1),), CUBIC)


def test_dkn_rhs_hand_value():
    chain = GammaChain((1, 2, 3), CUBIC)
    # at n=1: F(2)*(1-3)/((1-2)(2-3)) = 8*(-2)/1 = -16
    assert dkn_rhs(list(chain.values), chain.curve)[1] == -16


def test_dkn_rhs_symmetric_numerator_vanishes():
    chain = GammaChain((1, 2, 1, 3), CUBIC)
    # site 1: neighbors gamma_0 = gamma_2 = 1
    assert dkn_rhs(list(chain.values), chain.curve)[1] == 0


def test_dkn_rhs_curve_root():
    curve = SpectralCurve.elliptic(0, -1, 0)  # roots 0, 1, -1
    chain = GammaChain((Fraction(1), Fraction(3), Fraction(5), Fraction(7)), curve)
    assert dkn_rhs(list(chain.values), curve)[0] == 0  # F(1) = 0


def test_dkn_degeneracy_error_names_sites():
    chain = GammaChain((1, 1, 2, 3), CUBIC)
    with pytest.raises(DegenerateConfigurationError) as err:
        dkn_rhs(list(chain.values), chain.curve)
    assert set(err.value.sites) & {0, 1}


def test_couplings_hand_values():
    chain = GammaChain((1, 2, 3), CUBIC)
    # V at n=1: F(2)/((2-1)(2-3)) = -8
    assert vn_from_gamma(list(chain.values), chain.curve)[1] == -8
    # W with c2=0, gamma_n=2, gamma_{n+1}=3 -> -5
    assert wn_from_gamma(list(chain.values), chain.curve)[1] == -5


def test_vn_zero_at_curve_root():
    curve = SpectralCurve.elliptic(0, -1, 0)
    chain = GammaChain((Fraction(1), Fraction(3), Fraction(5), Fraction(7)), curve)
    assert vn_from_gamma(list(chain.values), curve)[0] == 0


def test_vw_rhs_constant_chain_is_fixed_point():
    vw = VWChain((2, 2, 2, 2), (5, 5, 5, 5))
    v, w = list(vw.v), list(vw.w)
    dv1, dw1 = chain_vw_rhs(v, w)
    dv2, dw2 = flow2_rhs(v, w)
    for n in range(4):
        assert (dv1[n], dw1[n]) == (0, 0)
        assert (dv2[n], dw2[n]) == (0, 0)


def test_vw_rhs_hand_value():
    vw = VWChain((1, 2, 1, 2), (0, 1, 0, 1))
    dv, dw = chain_vw_rhs(list(vw.v), list(vw.w))
    assert dv[0] == 1  # 1*(1-0+2-2)
    assert dw[0] == 1  # (0-1)*1 + (1-0)*2


def test_flow2_hand_values_alternating_w():
    vw = VWChain((2, 2), (0, 1))
    dv, dw = flow2_rhs(list(vw.v), list(vw.w))
    assert (dv[0], dw[0]) == (18, 0)
    assert (dv[1], dw[1]) == (-18, 0)


def _flow2_second_transcription(vw, n):
    """Independent re-reading of the two k=2 hierarchy displays."""
    V = lambda m: vw.v[m % vw.period]
    W = lambda m: vw.w[m % vw.period]
    dv = V(n) * (
        V(n - 2) * V(n - 1)
        + V(n - 1) * V(n)
        - V(n) * V(n + 1)
        - V(n + 1) * V(n + 2)
        + V(n - 1) * V(n - 1)
        - V(n + 1) * V(n + 1)
        + W(n - 1) * W(n - 1)
        - W(n) * W(n)
        + (V(n - 1) + V(n)) * W(n - 1) * 2
        - (V(n) + V(n + 1)) * W(n) * 2
    )
    dw = (
        V(n - 1) * V(n) * (W(n - 2) - W(n - 1) - W(n - 1) + W(n))
        - V(n + 1) * V(n + 2) * (W(n) - W(n + 1) - W(n + 1) + W(n + 2))
        - V(n) * (W(n - 1) - W(n)) * (V(n) + V(n) + W(n - 1) + W(n))
        - V(n + 1) * (W(n) - W(n + 1)) * (V(n + 1) + V(n + 1) + W(n) + W(n + 1))
    )
    return dv, dw


def test_flow2_double_transcription(rng):
    from conftest import random_fraction

    for _ in range(10):
        vw = VWChain(
            tuple(random_fraction(rng) for _ in range(4)),
            tuple(random_fraction(rng) for _ in range(4)),
        )
        dv, dw = flow2_rhs(list(vw.v), list(vw.w))
        for n in range(4):
            assert (dv[n], dw[n]) == _flow2_second_transcription(vw, n)


def test_reduced_flow2_frozen_value():
    chain = GammaChain((1, 2, 3, 4), CUBIC)
    assert reduced_flow2_gamma(list(chain.values), chain.curve)[0] == Fraction(140, 9)


def test_reduced_flow2_alternating_fixed_point():
    chain = GammaChain((1, 3, 1, 3), CUBIC)
    rhs = reduced_flow2_gamma(list(chain.values), chain.curve)
    for n in range(4):
        assert rhs[n] == 0


def test_first_flow_reduction_consistency(rng):
    """d/dx of the induced couplings along the lattice flow equals the
    coupled-system right-hand side, exactly."""
    for _ in range(10):
        chain = random_chain(rng)
        jets = list(prolong_gamma_jets(chain, 1).values)
        vw = vw_chain_from_gamma(chain)
        v_jets = vn_from_gamma(jets, chain.curve)
        w_jets = wn_from_gamma(jets, chain.curve)
        dv, dw = chain_vw_rhs(list(vw.v), list(vw.w))
        for n in range(chain.period):
            assert v_jets[n].coeffs[1] == dv[n]
            assert w_jets[n].coeffs[1] == dw[n]


def test_second_flow_reduction_consistency(rng):
    """The displayed reduced t2 flow is exactly compatible with the k=2
    hierarchy flow under the coupling reduction (no sign discrepancy)."""
    for _ in range(10):
        chain = random_chain(rng)
        vw = vw_chain_from_gamma(chain)
        rhs = reduced_flow2_gamma(list(chain.values), chain.curve)
        jets = list([Jet((g, d)) for g, d in zip(chain.values, rhs)])
        v_jets = vn_from_gamma(jets, chain.curve)
        w_jets = wn_from_gamma(jets, chain.curve)
        dv, dw = flow2_rhs(list(vw.v), list(vw.w))
        for n in range(chain.period):
            assert v_jets[n].coeffs[1] == dv[n]
            assert w_jets[n].coeffs[1] == dw[n]


def test_q_flow_reproduces_lattice_flow(rng):
    for _ in range(6):
        chain = random_chain(rng)
        v = vn_from_gamma(list(chain.values), chain.curve)
        dgamma = dkn_rhs(list(chain.values), chain.curve)
        for n in range(chain.period):
            q_prev = QPolynomial.from_gamma(chain.gamma(n - 1)).coeffs()
            q_next = QPolynomial.from_gamma(chain.gamma(n + 1)).coeffs()
            rhs = q_flow_rhs(q_prev, q_next, v[n])
            # dQ_n/dx = -gamma_n'
            assert rhs[0] == -dgamma[n]
            assert rhs[1] == 0


def test_q_flow_trivial_and_linearity():
    q = (Fraction(1), Fraction(2), Fraction(1))
    assert q_flow_rhs(q, q, Fraction(7)) == (0, 0, 0)
    a = (Fraction(1), Fraction(0), Fraction(1))
    b = (Fraction(0), Fraction(3), Fraction(1))
    doubled = q_flow_rhs(a, b, Fraction(2))
    single = q_flow_rhs(a, b, Fraction(1))
    assert doubled == tuple(2 * c for c in single)


def test_prolong_first_coefficients_match_rhs(rng):
    chain = random_chain(rng)
    jets = prolong_gamma_jets(chain, 2)
    rhs = dkn_rhs(list(chain.values), chain.curve)
    for n in range(chain.period):
        assert jets.values[n].coeffs[1] == rhs[n]
    assert jets.values[0].order == 2
    assert tuple(j.coeffs[0] for j in jets.values) == chain.values


def test_prolong_rejects_bad_order():
    chain = GammaChain((1, 2, 3, 4), CUBIC)
    with pytest.raises(ValueError):
        prolong_gamma_jets(chain, 4)
    with pytest.raises(ValueError):
        prolong_gamma_jets(chain, 0)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_prolong_refuses_a_float_chain_at_its_first_float_site(order):
    """A float chain on an exact curve used to prolong silently at order 1
    (a float jet) and fail deep in jet arithmetic at order 2; it is refused
    where it enters, naming the site."""
    curve = SpectralCurve.elliptic(Fraction(0), Fraction(-1), Fraction(0))
    for values, site in (
        ((-0.82, -0.31, 0.28, 0.77), 0),
        ((Fraction(-1), Fraction(1, 3), np.float64(0.28), Fraction(2)), 2),
    ):
        with pytest.raises(TypeError, match=rf"gamma at site {site} is a (float|float64), not exact"):
            prolong_gamma_jets(GammaChain(values, curve), order)


def test_prolong_fixed_point_has_zero_derivatives():
    chain = GammaChain((1, 3, 1, 3), CUBIC)
    jets = prolong_gamma_jets(chain, 2)
    for jet in jets.values:
        assert jet.coeffs[1] == 0
        assert jet.coeffs[2] == 0


def test_prolong_second_coefficient_vs_finite_difference():
    curve = SpectralCurve.elliptic(0.0, -1.0, 0.0)
    chain = GammaChain((-0.82, -0.31, 0.28, 0.77), curve)
    h = 1e-4
    traj = rk4_integrate(chain, "dkn", h, 2)
    # exact jets at the midpoint chain's binary values; centered difference
    # of the rhs around it
    exact_curve = SpectralCurve(tuple(map(Fraction, curve.coeffs)))
    mid = tuple(map(Fraction, traj.chain_at(1).values))
    jets = prolong_gamma_jets(GammaChain(mid, exact_curve), 2)
    rhs_minus = dkn_rhs(np.array(traj.chain_at(0).values, dtype=float), curve)
    rhs_plus = dkn_rhs(np.array(traj.chain_at(2).values, dtype=float), curve)
    for n in range(4):
        fd = (rhs_plus[n] - rhs_minus[n]) / (2 * h)
        assert float(jets.values[n].coeffs[2]) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_spectral_value_constant_under_jets(rng):
    """The conserved spectral value has exactly zero x-derivative along the
    flow (checked with jets: every derivative coefficient vanishes)."""
    for _ in range(6):
        chain = random_chain(rng)
        jets = prolong_gamma_jets(chain, 2)
        z = Fraction(3, 2)
        q = [
            QPolynomial.from_gamma(jets.gamma(n)) for n in range(chain.period)
        ]
        v = vn_from_gamma(list(jets.values), chain.curve)
        w = wn_from_gamma(list(jets.values), chain.curve)
        val = q_conserved_value(
            q[-1 % chain.period],
            q[0],
            q[1],
            q[2 % chain.period],
            v[0],
            v[1],
            w[0],
            z,
        )
        expected = chain.curve.eval(z)
        assert val.coeffs[0] == expected
        assert val.coeffs[1] == 0
        assert val.coeffs[2] == 0


def test_rk4_fixed_point_stays_constant():
    chain = GammaChain((1.0, 3.0, 1.0, 3.0), CUBIC)
    traj = rk4_integrate(chain, "dkn", 1e-2, 50)
    assert np.allclose(traj.states[0], traj.states[-1])


def test_rk4_degenerate_start_reports_step():
    chain = GammaChain((1.0, 1.0, 2.0, 3.0), CUBIC)
    with pytest.raises(DegenerateConfigurationError) as err:
        rk4_integrate(chain, "dkn", 1e-3, 5)
    assert "step 0" in str(err.value)


def test_rk4_validation():
    chain = GammaChain((1.0, 2.0, 3.0, 4.0), CUBIC)
    with pytest.raises(ValueError):
        rk4_integrate(chain, "no-such-flow", 1e-3, 5)
    with pytest.raises(ValueError):
        rk4_integrate(chain, "dkn", -1e-3, 5)
    with pytest.raises(TypeError):
        rk4_integrate(chain, "vw", 1e-3, 5)
    with pytest.raises(ValueError, match="step count"):
        rk4_integrate(chain, "dkn", 1e-3, -2)
    assert rk4_integrate(chain, "dkn", 1e-3, 0).states.shape == (1, 4)


def test_rk4_refuses_a_flow_of_the_other_chain_kind():
    with pytest.raises(TypeError, match="flow 'dkn' integrates a GammaChain"):
        rk4_integrate(VWChain((1.0, 2.0), (0.0, 1.0)), "dkn", 1e-3, 5)


def test_rk4_self_convergence_order():
    curve = SpectralCurve.elliptic(0.0, -1.0, 0.0)
    chain = GammaChain((-0.82, -0.31, 0.28, 0.77), curve)
    ends = []
    t_final, h = 0.2, 0.02
    for k in (1, 2, 4):
        traj = rk4_integrate(chain, "dkn", h / k, int(t_final / h) * k)
        ends.append(traj.states[-1])
    e1 = np.max(np.abs(ends[0] - ends[1]))
    e2 = np.max(np.abs(ends[1] - ends[2]))
    order = np.log2(e1 / e2)
    assert 3.8 <= order <= 4.2


@pytest.mark.parametrize(
    "flow,t_final,h",
    [("vw", 0.2, 0.02), ("flow2", 2.0, 0.25), ("reduced_t2", 2.0, 0.25)],
)
def test_rk4_self_convergence_other_flows(flow, t_final, h):
    # the second-flow dynamics are slow at this configuration, so coarse
    # steps are needed to lift the error above roundoff; the Richardson
    # exponent then carries O(h) contamination, hence the wider band
    curve = SpectralCurve.elliptic(0.0, -1.0, 0.0)
    chain = GammaChain((-0.82, -0.31, 0.28, 0.77), curve)
    state = chain if flow == "reduced_t2" else vw_chain_from_gamma(chain)
    ends = []
    for k in (1, 2, 4):
        traj = rk4_integrate(state, flow, h / k, int(round(t_final / h)) * k)
        ends.append(traj.states[-1])
    e1 = np.max(np.abs(ends[0] - ends[1]))
    e2 = np.max(np.abs(ends[1] - ends[2]))
    order = np.log2(e1 / e2)
    assert 3.7 <= order <= 4.5


def test_rk4_vw_flow_runs_and_conserves_coupling_product():
    vw = VWChain((1.0, 2.0, 1.5, 0.5), (0.5, -0.5, 1.0, 0.0))
    traj = rk4_integrate(vw, "vw", 1e-3, 400)
    start = traj.chain_at(0)
    end = traj.chain_at(traj.steps)
    prod0 = np.prod([float(v) for v in start.v])
    prod1 = np.prod([float(v) for v in end.v])
    assert prod1 == pytest.approx(prod0, rel=1e-9)


def test_trajectory_chain_roundtrip():
    chain = GammaChain((2.0, 3.0, 5.0, 7.0), CUBIC)
    traj = rk4_integrate(chain, "dkn", 1e-3, 10)
    c0 = traj.chain_at(0)
    assert c0.values == (2.0, 3.0, 5.0, 7.0)
    assert traj.x_at(10) == pytest.approx(0.01)


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf, -math.inf])
def test_rk4_rejects_a_bad_step_size(h):
    chain = GammaChain((1.0, 2.0, 3.0, 4.0), CUBIC)
    with pytest.raises(ValueError, match="^h: step size must be finite and positive"):
        rk4_integrate(chain, "dkn", h, 5)


# ---------------------------------------------------------------------------
# The list stepper (at most SMALL_STATE_MAX components) against the array one
# ---------------------------------------------------------------------------

README_CURVE = SpectralCurve.elliptic(0, -1, 0)


def _stepped(monkeypatch, path, run):
    """``run()`` with every state forced onto one stepper: its trajectory
    states, or the type and text of the error it raised."""
    monkeypatch.setattr(flows, "SMALL_STATE_MAX", 10**9 if path == "list" else 0)
    try:
        return run()
    except (AccuracyError, DegenerateConfigurationError) as err:
        return type(err), str(err), getattr(err, "sites", None)


def _assert_same_outcome(monkeypatch, run):
    on_list = _stepped(monkeypatch, "list", run)
    on_array = _stepped(monkeypatch, "array", run)
    if isinstance(on_list, np.ndarray):
        assert isinstance(on_array, np.ndarray) and on_array.dtype == np.float64
        assert np.array_equal(on_list, on_array)
    else:
        assert on_list == on_array
    return on_list


def _float_state(rng, flow, period):
    """Sites spread evenly over [-1.5, 1.5), each moved by a random fifth of
    the spacing, so that V stays moderate."""
    gap = 3.0 / period
    values = (-1.5 + gap * (n + rng.uniform(-0.2, 0.2)) for n in range(period))
    chain = GammaChain(tuple(values), README_CURVE)
    return chain if flow in ("dkn", "reduced_t2") else vw_chain_from_gamma(chain)


@pytest.mark.parametrize("flow", FLOWS)
def test_list_and_array_steppers_agree_bit_for_bit(rng, monkeypatch, flow):
    """Periods 3 to SMALL_STATE_MAX + 1, each at a step size that the run
    survives and at a coarse one that may end in a non-finite state."""
    outcomes = []
    for period in range(3, SMALL_STATE_MAX + 2):
        state = _float_state(rng, flow, period)
        for h in (1e-3 / period**2, 2e-2):
            outcomes.append(_assert_same_outcome(
                monkeypatch, lambda: rk4_integrate(state, flow, h, 40).states
            ))
    finished = [isinstance(x, np.ndarray) for x in outcomes]
    assert all(finished[::2])
    assert not all(finished[1::2])


def test_wp_field_steppers_agree_bit_for_bit(monkeypatch):
    """The two-component field (wp, wp') -> (wp', F'(wp)/2) on both steppers;
    the array side converts the field's list to an array."""
    branch = elliptic.wp_init_bounded(README_CURVE)
    field = elliptic._wp_rhs(README_CURVE)
    start = np.array([branch.wp, branch.wp_prime])

    def run():
        small = flows.SMALL_STATE_MAX > 2
        rhs = field if small else (lambda y: np.array(field(y)))
        out = np.empty((501, 2))
        out[0] = start
        rk4_run(rhs, start, 1e-2, 500, out)
        return out

    _assert_same_outcome(monkeypatch, run)


def test_collision_at_a_later_stage_two_is_named_alike(monkeypatch):
    """On F = z^3 - z the chain (0, a, 1, -3) keeps sites 0 and 2 on roots,
    and site 1 obeys a' = a + 1 exactly, so RK4 gives a_i + 1 = (a_0 + 1) R^i.
    a_0 is chosen so that the second stage of step 7 lands on site 2."""
    h, step = 0.01, 7
    growth = 1 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
    a0 = 2 / (1 + h / 2) / growth**step - 1
    chain = GammaChain((0.0, a0, 1.0, -3.0), README_CURVE)
    calls = []

    def counted(gamma, curve):
        calls.append(len(gamma))
        return dkn_rhs(gamma, curve)

    monkeypatch.setattr(flows, "dkn_rhs", counted)
    outcome = _assert_same_outcome(
        monkeypatch, lambda: rk4_integrate(chain, "dkn", h, 20).states
    )
    assert outcome == (
        DegenerateConfigurationError,
        f"at integration step {step}: gamma collision between sites 1 and 2",
        (1, 2),
    )
    assert len(calls) == 2 * (4 * step + 2)  # both runs stop in stage 2


def test_overflowing_flow2_squares_fail_alike(monkeypatch):
    """|V| ~ 1e155 squares past the float range: a Python float's ``**``
    would raise OverflowError, the stepper reports a non-finite state."""
    state = VWChain((1e155, 2e155, -1.5e155, 1e155), (1.0, -1.0, 0.5, 0.0))
    outcome = _assert_same_outcome(
        monkeypatch, lambda: rk4_integrate(state, "flow2", 1e-3, 5).states
    )
    assert outcome[0] is AccuracyError
    assert outcome[1].startswith("non-finite state at integration step 1 (x = 0.001)")


def test_small_chains_step_without_numpy_in_the_loop(monkeypatch):
    """A period-4 chain takes the list stepper: no ``np.isfinite`` call
    inside the step loop, where the array stepper makes one per step."""
    calls = []
    isfinite = np.isfinite

    def counted(*args, **kwargs):
        calls.append(1)
        return isfinite(*args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    chain = GammaChain((-0.82, -0.31, 0.28, 0.77), README_CURVE)
    rk4_integrate(chain, "dkn", 1e-3, 50)
    assert calls == []
    long_chain = GammaChain(
        tuple(-0.9 + 1.8 * n / SMALL_STATE_MAX for n in range(SMALL_STATE_MAX + 1)),
        README_CURVE,
    )
    rk4_integrate(long_chain, "dkn", 1e-5, 3)
    assert len(calls) == 3
