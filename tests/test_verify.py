import json
from dataclasses import replace
from fractions import Fraction

import pytest

from laxchain.curves import SpectralCurve
from laxchain import verify as verify_mod
from laxchain.darboux import DarbouxData, SolutionConstants
from laxchain.errors import ConfigError
from laxchain.flows import GammaChain
from laxchain.scalars import Jet, is_rational_square
from laxchain.verify import (
    SUITES,
    SampleConfig,
    draw_sample,
    l4_lax_residual_window,
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


def test_replay_from_dump():
    cfg = draw_sample(seed=31, index=0)
    for suite in ("factorization", "lax-l4"):
        report = replay_config(cfg.to_dump(suite, 0))
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
    from laxchain.darboux import lax_window
    from laxchain.flows import prolong_gamma_jets, site_array, vn_from_gamma, wn_from_gamma
    from laxchain.operators import build_l4, DifferenceOperator

    chain = GammaChain((1, 2, 3, 5), SpectralCurve.elliptic(0, 0, 0))
    jets = site_array(prolong_gamma_jets(chain, 2).jets)
    vs, ws = vn_from_gamma(jets, chain.curve), wn_from_gamma(jets, chain.curve)
    l4 = build_l4(lambda n: vs[n % 4], lambda n: ws[n % 4])
    zero_a = DifferenceOperator.from_constant_bands({0: 0})
    assert not lax_window(l4, "x", zero_a, chain.period).is_zero()


def test_numeric_convergence_orders():
    curve = SpectralCurve.elliptic(0.0, -1.0, 0.0)
    chain = GammaChain((-0.82, -0.31, 0.28, 0.77), curve)
    order = rk4_convergence_order(chain, "dkn", 0.2, 0.02)
    assert 3.8 <= order <= 4.2
    worder = wp_convergence_order(curve, 1.0, 0.02)
    assert 3.8 <= worder <= 4.2


def test_trajectory_residual_bounded_by_integration_error():
    curve = SpectralCurve.elliptic(0.0, -1.0, 0.0)
    worst = trajectory_chain_residual(
        curve, (-0.82, -0.31, 0.28, 0.77), x_steps=300, h=1e-3, y_target=0.4
    )
    assert worst < 1e-6


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope", samples=1, seed=1)
    with pytest.raises(ValueError):
        replay_config(draw_sample(seed=31, index=0).to_dump("nope", 0))


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
        c = jets.jets[0].coeffs
        return replace(jets, jets=(Jet((c[0], c[1] + 1) + c[2:]),) + jets.jets[1:])

    monkeypatch.setattr(verify_mod, "prolong_gamma_jets", off)


@pytest.mark.parametrize(
    "suite, perturb",
    [
        ("chain", _off_solved_s0),
        ("chain", _bare_tail_s1),
        ("factorization", _chi2_plus_one),
        ("lax-x", _gamma0_prime_plus_one),
        ("lax-l4", _gamma0_prime_plus_one),
        ("lax-y", _off_solved_s0),
    ],
    ids=["chain-solved-s0", "chain-bare-s1", "factorization-chi2", "lax-x-gamma-prime",
         "lax-l4-gamma-prime", "lax-y-off-constants"],
)
def test_suite_rejects_perturbed_input(monkeypatch, suite, perturb):
    config = draw_sample(7, 0)
    assert verify_mod._SUITE_EVALS[suite](config)[0] is True
    perturb(monkeypatch)
    ok, worst, _ = verify_mod._SUITE_EVALS[suite](config)
    assert ok is False
    assert worst > 0


def test_failure_dump_replays_as_failure(monkeypatch):
    _chi2_plus_one(monkeypatch)
    report = run_suite("factorization", samples=1, seed=7)
    assert report.passes == 0 and report.max_residual > 0
    (dump,) = report.failures
    assert dump["note"] == "residual nonzero"
    replayed = replay_config(dump)
    assert not replayed.passed and replayed.max_residual > 0
    assert [f["note"] for f in replayed.failures] == ["replay"]
