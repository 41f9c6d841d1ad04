import csv
import json
import os

import pytest

from laxchain import cli
from laxchain import verify as verify_mod


def run_cli(args):
    return cli.main(args)


def test_verify_subcommand_passes(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        ["verify", "--suite", "factorization", "--samples", "2", "--seed", "3",
         "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["suite"] == "factorization"
    assert payload["passes"] == 2


def test_verify_all_suites(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["verify", "--suite", "all", "--samples", "1", "--seed", "5",
                    "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert {r["suite"] for r in payload["suites"]} == set(verify_mod.SUITES)


def test_verify_exit_status_reflects_failures(tmp_path, monkeypatch):
    # inject a failing suite evaluation
    def always_fail(config):
        return False, 1.0, {}

    monkeypatch.setitem(verify_mod._SUITE_EVALS, "chain", always_fail)
    out = tmp_path / "report.json"
    code = run_cli(["verify", "--suite", "chain", "--samples", "2", "--seed", "3",
                    "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["passes"] == 0
    assert len(payload["failures"]) == 2


def test_verify_replay(tmp_path):
    cfg = verify_mod.draw_sample(seed=9, index=1)
    dump_path = tmp_path / "dump.json"
    dump_path.write_text(json.dumps(cfg.to_dump("lax-x", 1)))
    out = tmp_path / "replay.json"
    code = run_cli(["verify", "--replay", str(dump_path), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["samples"] == 1 and payload["passes"] == 1


def test_verify_replay_validates_the_dump_once(tmp_path, monkeypatch):
    """``read_dump`` checks the dump, and the replay runs on what it returned."""
    cfg = verify_mod.draw_sample(seed=9, index=1)
    dump_path = tmp_path / "dump.json"
    dump_path.write_text(json.dumps(cfg.to_dump("lax-x", 1)))
    calls = []
    real = verify_mod.chain_problem

    def counted(curve, gamma):
        calls.append(gamma)
        return real(curve, gamma)

    monkeypatch.setattr(verify_mod, "chain_problem", counted)
    out = tmp_path / "replay.json"
    assert run_cli(["verify", "--replay", str(dump_path), "--out", str(out)]) == 0
    assert calls == [cfg.gamma]



CUBIC = {"c2": "0", "c1": "-1", "c0": "0"}  # F = z^3 - z, roots 0, 1, -1

CONSTANTS = dict.fromkeys(("s0", "k0", "p0", "s1", "k1", "p1"), "0")

# Damage to a valid dump: the edit and what the error line must name.  Five
# are configurations that ``draw_sample`` never draws; before they were
# rejected, three failed inside the suite and a factorization replay at
# F(z0) = 0 passed.  The last four are values that are not exact rationals
# or a list of them; before they were rejected, a zero denominator ended in
# a traceback, a string of digits was read as one site per digit and a bool
# as 0 or 1.
DUMP_DAMAGE = {
    "unknown-suite": ({"suite": "nope"}, "'nope'"),
    "missing-field": (None, "'c1'"),
    "equal-neighbours": (
        {"curve": CUBIC, "gamma": ["2", "2", "4", "5"]},
        "gamma: sites 0 and 1 hold the same value 2",
    ),
    "z0-on-chain": (
        {"curve": CUBIC, "gamma": ["2", "3", "4", "5"], "z0": "4"},
        "z0: 4 lies on the chain (site 2)",
    ),
    "gamma-branch-point": (
        {"curve": CUBIC, "gamma": ["1", "3", "4", "5"]},
        "gamma: 1 at site 0 is a branch point",
    ),
    "z0-branch-point": (
        {"suite": "factorization", "curve": CUBIC, "gamma": ["2", "3", "4", "5"],
         "z0": "-1"},
        "z0: -1 is a branch point",
    ),
    "z0-square-disc": (
        {"curve": {"c2": "0", "c1": "0", "c0": "1"}, "gamma": ["3", "4", "5", "6"],
         "z0": "2"},
        "z0: F(z0) = 9 is a rational square",
    ),
    "z0-zero-denominator": ({"z0": "1/0"}, "malformed dump: Fraction(1, 0)"),
    "constant-zero-denominator": (
        {"constants": {**CONSTANTS, "p0": "3/0"}}, "malformed dump: Fraction(3, 0)"
    ),
    "gamma-string": (
        {"curve": CUBIC, "gamma": "2345", "z0": "7"},
        "malformed dump: gamma must be a list, got str",
    ),
    "z0-bool": ({"z0": True}, "malformed dump: cannot coerce bool"),
}


@pytest.mark.parametrize("damage", ["not-an-object", *DUMP_DAMAGE])
def test_verify_replay_bad_dump_is_config_error(tmp_path, capsys, damage):
    dump = verify_mod.draw_sample(seed=9, index=1).to_dump("lax-x", 1)
    edit, named = DUMP_DAMAGE.get(damage, ({}, ""))
    if damage == "missing-field":
        del dump["curve"]["c1"]
    elif damage == "not-an-object":
        dump = [dump]
    else:
        dump.update(edit)
    dump_path = tmp_path / "dump.json"
    dump_path.write_text(json.dumps(dump))
    out = tmp_path / "replay.json"
    code = run_cli(["verify", "--replay", str(dump_path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: replay: ")
    assert named in err
    assert not out.exists()


def test_verify_byte_identical_reports(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suite", "chain", "--samples", "2", "--seed", "8"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_malformed_curve_is_config_error(tmp_path, capsys):
    code = run_cli(
        ["simulate", "--flow", "dkn", "--curve", "1,2", "--gamma", "1,2,3,4",
         "--h", "1e-3", "--steps", "5", "--csv", str(tmp_path / "t.csv"),
         "--out", str(tmp_path / "s.json")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "curve" in err


VERIFY = ["verify", "--suite", "factorization", "--samples", "1"]
SIMULATE = ["simulate", "--flow", "dkn", "--curve", "0,-1,0",
            "--gamma=-0.82,-0.31,0.28,0.77"]
ELLIPTIC = ["elliptic", "--curve", "0,-1,0"]
FLAT = ["commutant", "--variant", "flat", "--r", "0,1"]
DARBOUX = ["darboux", "--curve", "0,-1,0"]
CUSTOM = ["commutant", "--variant", "custom"]
# a path that no file can have: os.devnull is not a directory
UNREADABLE = os.path.join(os.devnull, "missing")


@pytest.mark.parametrize(
    "args, field",
    [
        (VERIFY + ["--samples", "0"], "samples"),
        (VERIFY + ["--workers", "0"], "workers"),
        (VERIFY + ["--max-num", "0"], "max_num"),
        (VERIFY + ["--max-den", "0"], "max_den"),
        (VERIFY + ["--max-num", "1", "--max-den", "1"], "numerators <= 1"),
        (SIMULATE + ["--h", "0", "--steps", "5"], "h"),
        (SIMULATE + ["--h", "1e-3", "--steps", "-2"], "steps"),
        (ELLIPTIC + ["--h", "0", "--y-max", "1"], "h"),
        (ELLIPTIC + ["--h", "1e-3", "--y-max", "-1"], "y_max"),
        (FLAT + ["--band", "3", "--window", "40,0"], "window"),
        (FLAT + ["--band", "-1", "--window", "0,40"], "band"),
        (FLAT + ["--band", "3", "--window", "0.5,40"], "window[0]"),
        (["commutant", "--r", "1,0,0,0"], "r: sharp family requires r3 != 0"),
        (["commutant", "--variant", "flat", "--r", "0,0"], "r: flat family requires r1"),
        (["commutant", "--genus", "0"], "genus: must be >= 1"),
        (FLAT + ["--band", "3", "--window", "0,3"], "window: ill-posed window"),
        (DARBOUX + ["--gamma", "2,3,4,5", "--z0", "1"], "darboux.z0: 1 is a branch point"),
        (DARBOUX + ["--gamma", "2,3,4,5", "--z0", "3"], "darboux.z0: 3 lies on the chain"),
        (DARBOUX + ["--gamma", "2,3", "--z0", "7"], "chain.gamma: the lattice stencil"),
        (SIMULATE[:-1] + ["--gamma", "2,3", "--steps", "1"], "chain.gamma: the lattice stencil"),
        (DARBOUX + ["--gamma", "1,3,4,5", "--z0", "2"],
         "chain.gamma: 1 at site 0 is a branch point"),
        (DARBOUX + ["--gamma", "2,3,4,5", "--z0", "x"], "darboux.z0: not a rational"),
        (DARBOUX + ["--gamma", "2,2,4,5", "--z0", "3"],
         "chain.gamma: sites 0 and 1 hold the same value 2"),
        (SIMULATE[:-1] + ["--gamma", "2,2,4,5", "--steps", "1"],
         "chain.gamma: sites 0 and 1 hold the same value 2"),
        (DARBOUX + ["--gamma", "2,3,4,2", "--z0", "5"],
         "chain.gamma: sites 3 and 0 hold the same value 2"),
        (DARBOUX + ["--gamma", "2,3,2,5", "--z0", "7"],
         "chain.gamma: sites 0 and 2 hold the same value 2"),
        (DARBOUX + ["--gamma", "2,3,4,3", "--z0", "7"],
         "chain.gamma: sites 1 and 3 hold the same value 3"),
        (ELLIPTIC + ["--y-max", "far"], "y_max: not a number"),
        (DARBOUX + ["--z0", "7"], "chain.gamma: required for darboux"),
        (["simulate", "--flow", "vw", "--v", "1,2,3"], "chain.v / chain.w: required"),
        (["simulate", "--flow", "vw", "--v", "1,2", "--w", "1"],
         "chain.v / chain.w: V and W chains must have equal periods"),
        (["simulate", "--flow", "vw", "--v", "1", "--w", "1"],
         "chain.v / chain.w: chain period must be at least 2"),
        (VERIFY + ["--seed", "-1"], "seed: must be >= 0, got -1"),
        (VERIFY + ["--seed", str(2**64)], f"seed: must be < {2**64}"),
        (VERIFY + ["--seed", "-1", "--workers", "2"], "seed: must be >= 0, got -1"),
        (CUSTOM, "commutant.bands: required"),
        (CUSTOM + ["--bands", "{"], "commutant.bands: "),
        (CUSTOM + ["--bands", '{"1": ["1/0"]}'], "commutant.bands: Fraction(1, 0)"),
        (CUSTOM + ["--bands", "[1]"], "commutant.bands: expected a JSON object"),
        (CUSTOM + ["--bands", '{"-1": "11"}'], "commutant.bands: expected a JSON object"),
        (VERIFY + ["--config", UNREADABLE], "config: cannot read"),
        (["elliptic", "--config", os.devnull], "curve: missing coefficients c2, c1, c0"),
        (["verify", "--replay", UNREADABLE], "replay: "),
        (["verify", "--suite", "nope"], "suite: unknown suite 'nope'"),
        (["simulate", "--flow", "nope"], "flow: unknown flow 'nope'"),
        (["commutant", "--variant", "nope"], "variant: unknown variant 'nope'"),
        (SIMULATE + ["--steps", "0", "--h", "inf"], "h: must be positive and finite"),
        (ELLIPTIC + ["--h", "inf"], "h: must be positive and finite"),
        (ELLIPTIC + ["--y-max", "1", "--h", "1e-300"], "h: 1e+300 steps"),
        (ELLIPTIC + ["--y-max", "1e300", "--h", "1e-10"], "h: inf steps"),
        (SIMULATE + ["--steps", "100000000000000000000"], "steps: 1e+20 steps"),
        (["elliptic", "--curve", "0,0,1"], "curve: bounded branch needs three real roots"),
        (["elliptic", "--curve", "0,0,0"], "curve: bounded branch needs three distinct"),
        (["simulate", "--flow", "dkn", "--curve", "0,-1,0", "--gamma=1e400,2,3,4"],
         "chain.gamma[0]: '1e400' is beyond the float range"),
        (["simulate", "--flow", "dkn", "--curve", "1e400,-1,0", "--gamma=1,2,3,4"],
         "curve[0]: '1e400' is beyond the float range"),
        (["simulate", "--flow", "vw", "--v=1e400,1,1", "--w=1,2,3"],
         "chain.v[0]: '1e400' is beyond the float range"),
        (["elliptic", "--curve", "1e400,-1,0"], "curve[0]: '1e400' is beyond the float range"),
        (["commutant", "--variant", "flat", "--r", "1e400,1"],
         "r[0]: '1e400' is beyond the float range"),
        (VERIFY + ["--max-num", str(2**63)], f"max_num: must be < {2**63}"),
        (VERIFY + ["--max-den", str(2**63)], f"max_den: must be < {2**63}"),
    ],
    ids=[
        "verify-samples-0", "verify-workers-0", "verify-max-num-0",
        "verify-max-den-0", "verify-no-admissible-draw", "simulate-h-0",
        "simulate-steps-negative", "elliptic-h-0", "elliptic-y-max-negative",
        "flat-window-reversed", "flat-band-negative", "flat-window-fraction",
        "sharp-r3-zero", "flat-r1-zero", "genus-0", "flat-window-ill-posed",
        "darboux-z0-branch-point", "darboux-z0-on-chain", "darboux-period-2",
        "simulate-period-2", "darboux-gamma-branch-point", "not-a-rational",
        "darboux-gamma-equal-neighbours", "simulate-gamma-equal-neighbours",
        "darboux-gamma-equal-wrap-pair", "darboux-gamma-equal-across-site-1",
        "darboux-gamma-equal-across-site-2",
        "not-a-number", "darboux-gamma-missing", "simulate-vw-missing",
        "simulate-vw-unequal-periods", "simulate-vw-period-1", "verify-seed-negative",
        "verify-seed-2-64", "verify-seed-negative-workers-2",
        "custom-bands-missing", "custom-bands-bad-json", "custom-bands-zero-denominator",
        "custom-bands-not-an-object", "custom-bands-string-coefficients", "config-unreadable",
        "config-no-curve", "replay-unreadable", "verify-unknown-suite",
        "simulate-unknown-flow", "commutant-unknown-variant",
        "simulate-h-inf", "elliptic-h-inf", "elliptic-h-tiny", "elliptic-steps-overflow",
        "simulate-steps-huge", "elliptic-complex-roots", "elliptic-repeated-root",
        "simulate-gamma-beyond-float", "simulate-curve-beyond-float",
        "simulate-vw-beyond-float", "elliptic-curve-beyond-float", "flat-r-beyond-float",
        "verify-max-num-2-63", "verify-max-den-2-63",
    ],
)
def test_out_of_range_input_is_config_error(tmp_path, capsys, args, field):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "out.csv"
    extra = ["--out", str(out)]
    if args[0] in ("simulate", "elliptic"):
        extra += ["--csv", str(csv_path)]
    assert run_cli(args + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert field in err
    assert "Traceback" not in err
    assert not out.exists() and not csv_path.exists()


@pytest.mark.parametrize("flag", ["--max-num", "--max-den"])
def test_draw_bound_just_below_2_63_is_accepted(tmp_path, flag):
    """numpy draws the bounds as int64, so 2**63 - 1 is the largest bound."""
    out = tmp_path / "report.json"
    assert run_cli(VERIFY + [flag, str(2**63 - 1), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passes"] == 1


# One admissibility rule, two doors: ``darboux`` and a ``--replay`` dump of
# the same configuration must both refuse it, with the same text after the
# field name.  Each case: gamma, z0, the field that is refused and the text.
BAD_CONFIGS = {
    "period-1": ("2", "7", "gamma", "the lattice stencil needs period >= 3"),
    "period-2": ("2,3", "7", "gamma", "the lattice stencil needs period >= 3"),
    "equal-neighbours": ("2,2,4,5", "7", "gamma", "sites 0 and 1 hold the same value 2"),
    "equal-wrap-pair": ("2,3,4,2", "7", "gamma", "sites 3 and 0 hold the same value 2"),
    "equal-second-neighbours": (
        "2,3,2,5", "7", "gamma",
        "sites 0 and 2 hold the same value 2, so gamma_1' = 0 and b vanishes at site 1",
    ),
    "gamma-at-root": ("1,3,4,5", "7", "gamma", "1 at site 0 is a branch point of the curve"),
    "z0-at-root": ("2,3,4,5", "-1", "z0", "-1 is a branch point of the curve (F(z0) = 0)"),
    "z0-on-chain": ("2,3,4,5", "4", "z0", "4 lies on the chain (site 2)"),
}
DARBOUX_FIELD = {"gamma": "chain.gamma", "z0": "darboux.z0"}


def _replay(tmp_path, suite, gamma, z0, curve=CUBIC):
    """Exit status of replaying a dump of this configuration."""
    dump = verify_mod.draw_sample(seed=9, index=1).to_dump(suite, 1)
    dump.update({"curve": curve, "gamma": gamma.split(","), "z0": z0})
    dump_path = tmp_path / f"{suite}.json"
    dump_path.write_text(json.dumps(dump))
    out = tmp_path / f"{suite}-replay.json"
    return run_cli(["verify", "--replay", str(dump_path), "--out", str(out)])


@pytest.mark.parametrize("case", BAD_CONFIGS)
def test_darboux_and_replay_refuse_alike(tmp_path, capsys, case):
    gamma, z0, field, text = BAD_CONFIGS[case]
    out = tmp_path / "darboux.json"
    args = DARBOUX + [f"--gamma={gamma}", f"--z0={z0}", "--out", str(out)]
    assert run_cli(args) == 2
    assert capsys.readouterr().err == f"config error: {DARBOUX_FIELD[field]}: {text}\n"
    assert not out.exists()
    for suite in verify_mod.SUITES:
        assert _replay(tmp_path, suite, gamma, z0) == 2
        assert capsys.readouterr().err == f"config error: replay: {field}: {text}\n"


def test_darboux_and_replay_accept_equal_sites_three_apart(tmp_path, capsys):
    """No formula divides by gamma_0 - gamma_3, so a period-6 chain with
    gamma_0 = gamma_3 is evaluated: the x bracket and the factorization
    pass, and the chain and y suites report that no tail closes the chain
    at a period other than 4 (exit 1), as ``darboux`` does."""
    curve = {"c2": "1/3", "c1": "-2", "c0": "5/7"}
    gamma, z0 = "2,3,4,2,5,7", "9/2"
    args = ["darboux", "--curve", "1/3,-2,5/7", "--gamma", gamma, "--z0", z0,
            "--out", str(tmp_path / "darboux.json")]
    assert run_cli(args) == 1
    codes = {suite: _replay(tmp_path, suite, gamma, z0, curve) for suite in verify_mod.SUITES}
    assert codes == {"chain": 1, "lax-x": 0, "lax-y": 1, "factorization": 0}
    assert capsys.readouterr().err == ""


def test_simulate_accepts_equal_second_neighbours(tmp_path):
    """gamma_{n-1} = gamma_{n+1} only stops site n (gamma_n' = 0): a legal
    dKN state, which ``darboux`` rejects because b_n vanishes there."""
    csv_path = tmp_path / "traj.csv"
    args = ["simulate", "--flow", "dkn", "--curve", "0,-1,0", "--gamma", "2,3,2,5",
            "--steps", "2", "--csv", str(csv_path), "--out", str(tmp_path / "s.json")]
    assert run_cli(args) == 0
    assert csv_path.exists()


def test_simulate_dkn_csv_and_summary(tmp_path):
    csv_path = tmp_path / "traj.csv"
    out = tmp_path / "summary.json"
    code = run_cli(
        ["simulate", "--flow", "dkn", "--curve", "0,-1,0",
         "--gamma=-0.82,-0.31,0.28,0.77", "--h", "1e-3", "--steps", "50",
         "--csv", str(csv_path), "--out", str(out)]
    )
    assert code == 0
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "x", "site", "gamma"]
    assert len(rows) == 1 + 51 * 4
    summary = json.loads(out.read_text())
    assert summary["flow"] == "dkn"
    assert summary["invariants"]["coupling_product"]["max_drift"] < 1e-8
    assert summary["invariants"]["spectral_value"]["max_drift"] < 1e-8


def test_simulate_vw_flow(tmp_path):
    csv_path = tmp_path / "traj.csv"
    out = tmp_path / "summary.json"
    code = run_cli(
        ["simulate", "--flow", "vw", "--v", "1,2,1.5,0.5", "--w", "0.5,-0.5,1,0",
         "--h", "1e-3", "--steps", "20", "--csv", str(csv_path), "--out", str(out)]
    )
    assert code == 0
    with open(csv_path) as fh:
        header = next(csv.reader(fh))
    assert header == ["step", "x", "site", "V", "W"]


def test_simulate_requires_stencil(tmp_path):
    code = run_cli(
        ["simulate", "--flow", "dkn", "--curve", "0,0,0", "--gamma", "1,2",
         "--h", "1e-3", "--steps", "5", "--csv", str(tmp_path / "t.csv"),
         "--out", str(tmp_path / "s.json")]
    )
    assert code == 2


def test_simulate_blowup_names_step_x_and_components(tmp_path, capsys):
    # |V| ~ F(gamma)/gap^2 is large here, so h = 1e-3 overflows at once
    code = run_cli(
        ["simulate", "--flow", "reduced_t2", "--curve", "1/3,-2,5/7",
         "--gamma=1,2.5,3,5,7.25", "--h", "1e-3",
         "--csv", str(tmp_path / "t.csv"), "--out", str(tmp_path / "s.json")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "non-finite state at integration step 2 (x = 0.002)" in err
    assert "in components [0, 2, 3, 4]" in err


def test_simulate_readme_chain_past_its_pole(tmp_path, capsys):
    # the README chain leaves the float range at step 1295 (a pole of gamma)
    code = run_cli(
        ["simulate", "--flow", "dkn", "--curve", "0,-1,0",
         "--gamma=-0.82,-0.31,0.28,0.77", "--h", "1e-3", "--steps", "2000",
         "--csv", str(tmp_path / "t.csv"), "--out", str(tmp_path / "s.json")]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: non-finite state at integration step 1295 (x = 1.295) "
        "in components [0, 1, 2, 3]\n"
    )


def test_commutant_sharp(tmp_path):
    out = tmp_path / "commutant.json"
    code = run_cli(
        ["commutant", "--variant", "sharp", "--band", "3", "--degree", "9",
         "--r", "0,0,0,1", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["dimension"] == 3
    assert payload["verified_exact"] is True


def test_commutant_sharp_unverified_basis_fails(tmp_path, monkeypatch):
    """A basis element that fails the exact check gets its commutator norm
    computed, and the command reports the failure."""
    monkeypatch.setattr(cli, "exact_commutator_is_zero", lambda l_op, x_op: False)
    computed = []
    real = cli.commutator_polynomial_bands
    monkeypatch.setattr(
        cli, "commutator_polynomial_bands", lambda a, b: computed.append(b) or real(a, b)
    )
    out = tmp_path / "commutant.json"
    code = run_cli(["commutant", "--variant", "sharp", "--band", "3", "--degree", "9",
                    "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["verified_exact"] is False
    assert len(computed) == payload["dimension"] == 3
    # the basis does commute, so the computed norms are zero
    assert payload["residual_norms"] == [0.0] * 3


def test_commutant_flat(tmp_path):
    out = tmp_path / "commutant.json"
    code = run_cli(
        ["commutant", "--variant", "flat", "--band", "3", "--r", "0,1",
         "--window", "0,40", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["nullity"] >= 3
    assert payload["gap"] >= 1e6


def test_commutant_custom(tmp_path):
    out = tmp_path / "commutant.json"
    code = run_cli(
        ["commutant", "--variant", "custom", "--band", "1", "--degree", "0",
         "--bands", '{"1": ["1"], "-1": ["1"]}', "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["dimension"] == 3


def test_elliptic_csv(tmp_path):
    csv_path = tmp_path / "wp.csv"
    code = run_cli(
        ["elliptic", "--curve", "0,-1,0", "--y-max", "2.0", "--h", "1e-3",
         "--csv", str(csv_path)]
    )
    assert code == 0
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["y", "wp", "wp_prime", "energy_drift"]
    assert len(rows) == 1 + 2001
    assert all(abs(float(r[3])) < 1e-8 for r in rows[1:])


def test_darboux_subcommand(tmp_path):
    out = tmp_path / "darboux.json"
    code = run_cli(
        ["darboux", "--curve", "1/3,-2,5/7", "--gamma", "1,2,3,5",
         "--z0", "9/2", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["factorization_zero"] is True
    assert payload["crosscheck_zero"] is True
    assert payload["lax_x_zero"] is True
    assert payload["lax_y_zero"] is True
    win = payload["transformed_operator"]
    assert win["band"] == [-2, 2]
    assert payload["solved_constants"]["s0"] == "1123/336"


def test_verify_with_user_constants_reports_residuals(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        ["verify", "--suite", "chain", "--samples", "1", "--seed", "3",
         "--constants", "1,0,0,0,0,0", "--out", str(out)]
    )
    assert code == 0  # structural identities still hold; outcome is recorded
    payload = json.loads(out.read_text())
    sample = payload["details"]["samples"]["0"]
    assert "user_constants_residuals" in sample
    rows = sample["user_constants_residuals"]
    # a lone s0 leaves R1 and R2 intact but breaks R3 at every site
    assert all(row[0] == 0.0 and row[1] == 0.0 for row in rows)
    assert all(row[2] > 0.0 for row in rows)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[verify]\nsuite = factorization\nsamples = 5\nseed = 3\n"
    )
    out = tmp_path / "r.json"
    code = run_cli(
        ["verify", "--config", str(cfg), "--samples", "1", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    # file picked the suite; the flag overrode the sample count
    assert payload["suite"] == "factorization"
    assert payload["samples"] == 1


def test_ini_curve_coefficients_match_the_flag(tmp_path):
    cfg = tmp_path / "curve.ini"
    cfg.write_text("[curve]\nc2 = 1/3\nc1 = -2\nc0 = 5/7\n")
    run = ["darboux", "--gamma", "1,2,3,5", "--z0", "9/2"]
    from_flag, from_ini = tmp_path / "flag.json", tmp_path / "ini.json"
    assert run_cli(run + ["--curve", "1/3,-2,5/7", "--out", str(from_flag)]) == 0
    assert run_cli(run + ["--config", str(cfg), "--out", str(from_ini)]) == 0
    assert from_ini.read_bytes() == from_flag.read_bytes()


def test_verify_without_out_writes_the_report_to_stdout(tmp_path, capsys):
    run = ["verify", "--suite", "factorization", "--samples", "1"]
    out = tmp_path / "report.json"
    assert run_cli(run + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(run) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "broken.ini"
    cfg.write_text("not an ini file [[[")
    code = run_cli(["verify", "--config", str(cfg)])
    assert code == 2
    assert "config" in capsys.readouterr().err


def test_one_parser_serves_every_call(tmp_path, monkeypatch, capsys):
    """``main`` builds its parser once per process.  A run of commands
    through it writes the bytes that a parser built per call writes, and no
    option given to one call (``--out``, ``--suite``) carries over to the
    next: the last ``verify`` runs every suite and reports to stdout."""
    assert cli.build_parser() is cli.build_parser()
    calls = [
        ["verify", "--suite", "lax-x", "--samples", "1", "--seed", "3",
         "--out", "verify.json"],
        ["simulate", "--flow", "dkn", "--curve", "0,-1,0",
         "--gamma=-0.82,-0.31,0.28,0.77", "--h", "1e-3", "--steps", "5",
         "--csv", "traj.csv", "--out", "simulate.json"],
        ["commutant", "--variant", "sharp", "--band", "2", "--degree", "6",
         "--out", "commutant.json"],
        ["verify", "--samples", "1", "--seed", "3"],
    ]

    def run_calls(name):
        d = tmp_path / name
        d.mkdir()
        monkeypatch.chdir(d)
        codes, stdout = [], []
        for argv in calls:
            codes.append(run_cli(argv))
            stdout.append(capsys.readouterr().out)
        files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        return codes, stdout, files

    cached = run_calls("cached")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = run_calls("fresh")
    assert cached == fresh
    codes, stdout, files = cached
    assert codes == [0, 0, 0, 0]
    assert stdout[:3] == ["", "", ""]
    assert [s["suite"] for s in json.loads(stdout[3])["suites"]] == [
        "chain", "lax-x", "lax-y", "factorization"
    ]
    assert sorted(files) == ["commutant.json", "simulate.json", "traj.csv", "verify.json"]
