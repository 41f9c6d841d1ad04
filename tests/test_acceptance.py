"""Acceptance suite: one test (or test group) per exit criterion.

Each criterion prints a single PASS line on success (run with ``-s`` or read
the captured output).  Three literal clauses are provably unattainable and
are encoded as strict xfails right next to the green tests that pin the
deterministic, documented behavior:

* the third chain equation is NOT satisfied with the oscillating tail absent:
  its residual is an alternating flow-invariant gap 2(-1)^n P(z0)/z0' with P
  a chain-determined quadratic, and the tail exists precisely to cancel it
  (see ``solve_tail_constants``); with the solved tail all three residuals
  vanish identically in Q(w), both square-root signs;
* the y-bracket inherits the same gap through f, so it too needs the solved
  tail;
* the band-1/degree-0 commutant of T + T^-1 has dimension 3, not 2: the three
  constant bands I, T, T^-1 each commute with it (brute-force solve).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from laxchain.curves import SpectralCurve
from laxchain import verify as verify_mod
from laxchain.darboux import (
    SolutionConstants,
    chain_residuals,
    commutator_x_check,
    commutator_y_check,
    darboux_data,
    eigenfunction_step,
    factorization_check,
    rank2_solution,
    solve_tail_constants,
    transformed_operator,
)
from laxchain.elliptic import exact_wp_jet, wp_init_bounded, wp_integrate
from laxchain.flows import (
    GammaChain,
    chain_vw_rhs,
    dkn_rhs,
    flow2_rhs,
    prolong_gamma_jets,
    q_flow_rhs,
    reduced_flow2_gamma,
    site_array,
    vn_from_gamma,
    vw_chain_from_gamma,
    wn_from_gamma,
)
from laxchain.operators import build_l4
from laxchain.scalars import Jet
from laxchain.spectral import (
    CommutantAnsatz,
    PolynomialBandOperator,
    QPolynomial,
    commutant_solve_exact,
    commutant_solve_windowed,
    commutator_polynomial_bands,
    exact_commutator_is_zero,
    flat_operator,
    q_conserved_value,
    q_recurrence_residual,
    sharp_operator,
)
from laxchain.poly import poly_eval
from laxchain.verify import (
    draw_sample,
    l4_lax_residual_window,
    run_suite,
    rk4_convergence_order,
    trajectory_chain_residual,
    wp_convergence_order,
)

SEED = 7
SAMPLES = 20


def _configs(seed=SEED, samples=SAMPLES):
    return [draw_sample(seed, i) for i in range(samples)]


# ---------------------------------------------------------------------------
# Criterion 1: exact verification of the chain equations
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="with the oscillating tail absent the third chain equation keeps "
    "an alternating flow-invariant gap 2(-1)^n(s0 z0^2 + k0 z0 + p0)/z0'; "
    "only the solved tail constants close it (see the green criterion-1 test "
    "and the gap-structure tests in test_darboux)",
)
def test_criterion1_literal_zero_tail_residuals():
    cfg = draw_sample(SEED, 0)
    chain = GammaChain(cfg.gamma, cfg.curve)
    jets = prolong_gamma_jets(chain, 2)
    for sign in (1, -1):
        wp = exact_wp_jet(cfg.curve, cfg.z0, order=3, sign=sign)
        data = darboux_data(jets, wp).truncated(1, 1)
        sol = rank2_solution(data)  # constants zero
        for n in range(4):
            assert chain_residuals(sol, n) == (0, 0, 0)


def test_criterion1_chain_residuals_deterministic():
    start = time.perf_counter()
    report = run_suite("chain", samples=SAMPLES, seed=SEED)
    elapsed = time.perf_counter() - start
    assert report.passed, report.failures
    assert elapsed < 10.0
    # nonzero-constants outcome is deterministic and recorded in the report
    details = report.details["samples"]
    assert all("solved_constants" in d for d in details.values())
    print(
        f"\nACCEPTANCE 1 PASS: chain residuals (0,0,0) exactly in Q(w) for "
        f"{SAMPLES} samples x both signs at the solved tail constants; "
        f"zero-tail gap documented per sample; runtime {elapsed:.2f}s < 10s"
    )


# ---------------------------------------------------------------------------
# Criterion 2: the fourth-order Lax identity
# ---------------------------------------------------------------------------

def test_criterion2_l4_lax_identity():
    report = run_suite("lax-l4", samples=SAMPLES, seed=SEED)
    assert report.passed, report.failures
    print(
        f"\nACCEPTANCE 2 PASS: dL/dx + [L, V_(n-1)V_n T^-2] exactly zero "
        f"(order-2 jets) on {SAMPLES} random exact chains"
    )


# ---------------------------------------------------------------------------
# Criterion 3: the Darboux suite
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="the y-bracket sees the same zero-tail gap through f; it closes "
    "exactly at the solved tail constants (green test below)",
)
def test_criterion3_literal_y_bracket_zero_tail():
    cfg = draw_sample(SEED, 0)
    chain = GammaChain(cfg.gamma, cfg.curve)
    jets = prolong_gamma_jets(chain, 3)
    wp = exact_wp_jet(cfg.curve, cfg.z0, order=3)
    data = darboux_data(jets, wp)
    assert commutator_y_check(data).is_zero()  # constants zero


def test_criterion3_darboux_suite():
    fact = run_suite("factorization", samples=SAMPLES, seed=SEED)
    lax_x = run_suite("lax-x", samples=SAMPLES, seed=SEED)
    lax_y = run_suite("lax-y", samples=SAMPLES, seed=SEED)
    assert fact.passed, fact.failures
    assert lax_x.passed, lax_x.failures
    assert lax_y.passed, lax_y.failures
    # negative control hit in 20/20 samples (tracked per sample)
    controls = [
        d["negative_control_nonzero"] for d in lax_y.details["samples"].values()
    ]
    assert len(controls) == SAMPLES and all(controls)
    print(
        f"\nACCEPTANCE 3 PASS: factorization, band cross-check, x-bracket, "
        f"y-bracket (solved tail) exactly zero on {SAMPLES} samples x both "
        f"signs; ODE-violating jet control nonzero {SAMPLES}/{SAMPLES}"
    )


# ---------------------------------------------------------------------------
# Criterion 4: spectral conservation
# ---------------------------------------------------------------------------

def test_criterion4_spectral_conservation():
    for cfg in _configs():
        chain = GammaChain(cfg.gamma, cfg.curve)
        jets = prolong_gamma_jets(chain, 2)
        v_jets = vn_from_gamma(site_array(jets.values), chain.curve)
        w_jets = wn_from_gamma(site_array(jets.values), chain.curve)
        v = vn_from_gamma(site_array(chain.values), chain.curve)
        w = wn_from_gamma(site_array(chain.values), chain.curve)
        p = chain.period
        z = cfg.z0
        expected = cfg.curve.eval(z)
        values = set()
        for n in range(chain.period):
            q = [QPolynomial.from_gamma(jets.gamma(n + k)) for k in (-1, 0, 1, 2)]
            val = q_conserved_value(
                q[0], q[1], q[2], q[3],
                v_jets[n],
                v_jets[(n + 1) % p],
                w_jets[n],
                z,
            )
            # n-independent, equals F(z), zero x-derivative along the flow
            assert val.coeffs[0] == expected
            assert val.coeffs[1] == 0 and val.coeffs[2] == 0
            values.add(val.coeffs[0])
            res = q_recurrence_residual(
                QPolynomial.from_gamma(chain.gamma(n - 1)),
                QPolynomial.from_gamma(chain.gamma(n)),
                QPolynomial.from_gamma(chain.gamma(n + 2)),
                QPolynomial.from_gamma(chain.gamma(n + 3)),
                v[n],
                v[(n + 1) % p],
                v[(n + 2) % p],
                w[n],
                w[(n + 1) % p],
            )
            assert all(c == 0 for c in res)
        assert len(values) == 1
    print(
        f"\nACCEPTANCE 4 PASS: conserved spectral value site-independent, "
        f"equal to F(z), jet-constant along the flow; linear recurrence "
        f"residual exactly zero ({SAMPLES} samples)"
    )


# ---------------------------------------------------------------------------
# Criterion 5: reduction consistency
# ---------------------------------------------------------------------------

def test_criterion5_reduction_consistency():
    for cfg in _configs():
        chain = GammaChain(cfg.gamma, cfg.curve)
        vw = vw_chain_from_gamma(chain)
        v_sites, w_sites = site_array(vw.v), site_array(vw.w)
        gamma = site_array(chain.values)
        jets1 = site_array(prolong_gamma_jets(chain, 1).values)
        v1, w1 = vn_from_gamma(jets1, chain.curve), wn_from_gamma(jets1, chain.curve)
        v = vn_from_gamma(gamma, chain.curve)
        dgamma = dkn_rhs(gamma, chain.curve)
        dv, dw = chain_vw_rhs(v_sites, w_sites)
        for n in range(chain.period):
            assert v1[n].coeffs[1] == dv[n]
            assert w1[n].coeffs[1] == dw[n]
            # polynomial flow at genus 1 reproduces the lattice flow
            rhs = q_flow_rhs(
                QPolynomial.from_gamma(chain.gamma(n - 1)).coeffs(),
                QPolynomial.from_gamma(chain.gamma(n + 1)).coeffs(),
                v[n],
            )
            assert rhs[0] == -dgamma[n] and rhs[1] == 0
        # second-flow reduction: documented deterministic result = exact match
        dgamma2 = reduced_flow2_gamma(gamma, chain.curve)
        jets2 = site_array([Jet((g, d)) for g, d in zip(chain.values, dgamma2)])
        v2, w2 = vn_from_gamma(jets2, chain.curve), wn_from_gamma(jets2, chain.curve)
        dv2, dw2 = flow2_rhs(v_sites, w_sites)
        for n in range(chain.period):
            assert v2[n].coeffs[1] == dv2[n]
            assert w2[n].coeffs[1] == dw2[n]
    print(
        f"\nACCEPTANCE 5 PASS: first-flow reduction exact; polynomial flow "
        f"reproduces the lattice flow coefficient-wise; second-flow "
        f"reduction exactly consistent ({SAMPLES} samples)"
    )


# ---------------------------------------------------------------------------
# Criterion 6: commutant searches
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="the band-1/degree-0 commutant of T + T^-1 is 3-dimensional "
    "(I, T, T^-1 all commute; brute-force oracle), so dimension 2 is "
    "impossible for a correct solver",
)
def test_criterion6_literal_shift_pair_dimension_two():
    tt = {1: (Fraction(1),), -1: (Fraction(1),)}
    res = commutant_solve_exact(PolynomialBandOperator(tt), CommutantAnsatz(1, 0))
    assert res.dimension == 2


def test_criterion6_commutant_searches():
    # shift pair: oracle dimension 3, containing I and L
    tt = {1: (Fraction(1),), -1: (Fraction(1),)}
    res = commutant_solve_exact(PolynomialBandOperator(tt), CommutantAnsatz(1, 0))
    assert res.dimension == 3
    assert res.spans({0: (Fraction(1),)}) and res.spans(tt)

    # sharp family: nontrivial band-3 partner at the minimal degree 9
    op = sharp_operator((0, 0, 0, 1))
    found = commutant_solve_exact(op, CommutantAnsatz(3, 9))
    assert found.dimension == 3  # strictly more than span{I, L}
    assert any(3 in sol.bands or -3 in sol.bands for sol in found.basis)
    for sol in found.basis:
        assert exact_commutator_is_zero(op, sol)
        comm = commutator_polynomial_bands(op.bands, sol.bands)
        for p in comm.values():
            for n in range(50, 61):  # disjoint verification window
                assert poly_eval(p, Fraction(n)) == 0

    # flat family: windowed nullity beyond the trivial count, huge gap
    flat = flat_operator((0, 1))
    win = commutant_solve_windowed(flat, 3, 0, 39)
    assert win.nullity > 2
    assert win.gap >= 1e6
    print(
        "\nACCEPTANCE 6 PASS: shift-pair commutant dimension 3 (oracle; "
        "contains I and L), sharp-family band-3 partner found at degree 9 "
        "with exactly-zero commutator on a disjoint window, flat-family "
        f"windowed nullity {win.nullity} > trivial with gap {win.gap:.2e} >= 1e6"
    )


# ---------------------------------------------------------------------------
# Criterion 7: numerics
# ---------------------------------------------------------------------------

def test_criterion7_numerics(monkeypatch):
    curve = SpectralCurve.elliptic(0.0, -1.0, 0.0)
    chain = GammaChain((-0.82, -0.31, 0.28, 0.77), curve)
    dkn_order = rk4_convergence_order(chain, "dkn", 0.2, 0.02)
    wp_order = wp_convergence_order(curve, 1.0, 0.02)
    assert 3.8 <= dkn_order <= 4.2
    assert 3.8 <= wp_order <= 4.2

    branch = wp_init_bounded(curve)
    state = wp_integrate(branch, 10.0, 1e-3)  # 10^4 steps at h = 1e-3
    drift = abs(state.energy() - branch.energy())
    assert drift < 1e-8

    # the chain residuals at the integrated end point, read exactly; the
    # control is the bare solution (no tail) at the same point
    run = lambda: trajectory_chain_residual(
        curve, (-0.82, -0.31, 0.28, 0.77), x_steps=300, h=1e-3, y_target=0.4
    )
    worst = run()
    assert worst == 0
    monkeypatch.setattr(verify_mod, "solve_tail_constants", lambda chain: SolutionConstants())
    bare = run()
    assert bare > 0
    print(
        f"\nACCEPTANCE 7 PASS: RK4 orders {dkn_order:.2f} (lattice) / "
        f"{wp_order:.2f} (elliptic) in 4.0 +/- 0.2; energy drift "
        f"{drift:.2e} < 1e-8; trajectory chain residuals exactly {worst}, "
        f"bare solution {bare:.2e} > 0"
    )


# ---------------------------------------------------------------------------
# Criterion 8: eigenfunction recursion
# ---------------------------------------------------------------------------

def test_criterion8_eigenfunction_recursion():
    checked = 0
    index = 0
    while checked < 10:
        cfg = draw_sample(SEED + 1, index)
        index += 1
        chain = GammaChain(cfg.gamma, cfg.curve)
        data = darboux_data(
            prolong_gamma_jets(chain, 1), exact_wp_jet(cfg.curve, cfg.z0, order=1)
        )
        psi = {0: 1, 1: 1}
        for n in range(1, 7):
            psi[n + 1] = eigenfunction_step(data, psi[n - 1], psi[n], n)
        l4 = build_l4(data.v_at, data.w_site)
        for n in range(2, 6):
            assert l4.apply(lambda m: psi[m], n) == data.z0 * psi[n]
        checked += 1
    print(
        "\nACCEPTANCE 8 PASS: recursion-generated sequences satisfy "
        "L4 psi = z0 psi exactly at 10 exact curve points"
    )
