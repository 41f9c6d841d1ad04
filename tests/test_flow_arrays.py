"""The right-hand sides against a per-site transcription of each flow.

The reference functions below evaluate one site at a time, written straight
from the flow displays with the same operation order as the array code.
Exact inputs (lists of Fractions or nested jets) must give equal values;
float inputs (float64 arrays) must give the same bits, with either the exact curve (``float + Fraction``
rounds through ``float(c)``) or its float copy.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import laxchain
from laxchain.curves import SpectralCurve
from laxchain.errors import DegenerateConfigurationError
from laxchain.flows import (
    GammaChain,
    chain_vw_rhs,
    dkn_rhs,
    flow2_rhs,
    reduced_flow2_gamma,
    rk4_integrate,
    vn_from_gamma,
    wn_from_gamma,
)
from laxchain.flows import NUMERIC_DEGENERACY_RTOL, floats_collide
from laxchain.scalars import Jet

from conftest import random_fraction

PERIODS = (3, 4, 5, 64)
CUBIC = SpectralCurve.elliptic(0, 0, 0)


# ---------------------------------------------------------------------------
# Per-site reference transcription
# ---------------------------------------------------------------------------

def ref_dkn(g, curve, n):
    p = len(g)
    gm, g0, gp = g[(n - 1) % p], g[n % p], g[(n + 1) % p]
    return (curve.eval(g0) * (gm - gp)) / ((gm - g0) * (g0 - gp))


def ref_v(g, curve, n):
    p = len(g)
    gm, g0, gp = g[(n - 1) % p], g[n % p], g[(n + 1) % p]
    return curve.eval(g0) / ((g0 - gm) * (g0 - gp))


def ref_w(g, curve, n):
    return -curve.coeffs[2] - g[n % len(g)] - g[(n + 1) % len(g)]


def ref_reduced(g, curve, n):
    v = lambda k: ref_v(g, curve, k)
    w = lambda k: ref_w(g, curve, k)
    return v(n) * (
        v(n + 1) * (w(n - 1) - 2 * w(n) + w(n + 1))
        - v(n - 1) * (w(n - 2) - 2 * w(n - 1) + w(n))
        + (w(n - 1) - w(n)) * (2 * v(n) + w(n - 1) + w(n))
    )


def ref_vw(vs, ws, n):
    v = lambda k: vs[k % len(vs)]
    w = lambda k: ws[k % len(ws)]
    dv = v(n) * (w(n - 1) - w(n) + v(n - 1) - v(n + 1))
    dw = (w(n) - w(n - 1)) * v(n) + (w(n + 1) - w(n)) * v(n + 1)
    return dv, dw


def ref_flow2(vs, ws, n):
    v = lambda k: vs[k % len(vs)]
    w = lambda k: ws[k % len(ws)]
    dv = v(n) * (
        v(n - 2) * v(n - 1)
        + v(n - 1) * v(n)
        - v(n) * v(n + 1)
        - v(n + 1) * v(n + 2)
        + v(n - 1) ** 2
        - v(n + 1) ** 2
        + w(n - 1) ** 2
        - w(n) ** 2
        + 2 * (v(n - 1) + v(n)) * w(n - 1)
        - 2 * (v(n) + v(n + 1)) * w(n)
    )
    dw = (
        v(n - 1) * v(n) * (w(n - 2) - 2 * w(n - 1) + w(n))
        - v(n + 1) * v(n + 2) * (w(n) - 2 * w(n + 1) + w(n + 2))
        - v(n) * (w(n - 1) - w(n)) * (2 * v(n) + w(n - 1) + w(n))
        - v(n + 1) * (w(n) - w(n + 1)) * (2 * v(n + 1) + w(n) + w(n + 1))
    )
    return dv, dw


GAMMA_FLOWS = {
    "dkn": (dkn_rhs, ref_dkn),
    "V": (vn_from_gamma, ref_v),
    "W": (wn_from_gamma, ref_w),
    "reduced_t2": (reduced_flow2_gamma, ref_reduced),
}
VW_FLOWS = {"vw": (chain_vw_rhs, ref_vw), "flow2": (flow2_rhs, ref_flow2)}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def random_curve(rng):
    return SpectralCurve.elliptic(*(random_fraction(rng) for _ in range(3)))


def distinct_fractions(rng, period):
    values = set()
    while len(values) < period:
        values.add(random_fraction(rng, max_num=10 * period))
    values = list(values)
    rng.shuffle(values)
    return values


def nested_jet(rng, value):
    """An x-jet of y-jets (order 1 in both) whose innermost value is ``value``."""
    inner = lambda v: Jet((v, random_fraction(rng)))
    return Jet((inner(value), inner(random_fraction(rng))))


def distinct_floats(rng, period):
    values = set()
    while len(values) < period:
        values.add(rng.uniform(-3.0, 3.0))
    return list(values)


def assert_entries(result, kind):
    assert isinstance(result, list)
    assert all(isinstance(x, kind) for x in result)


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("flow", sorted(GAMMA_FLOWS))
def test_gamma_flows_exact_fractions(rng, flow, period):
    array_fn, ref = GAMMA_FLOWS[flow]
    for _ in range(3):
        curve = random_curve(rng)
        gamma = distinct_fractions(rng, period)
        result = array_fn(gamma, curve)
        assert_entries(result, Fraction)
        assert list(result) == [ref(gamma, curve, n) for n in range(period)]


@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("flow", sorted(GAMMA_FLOWS))
def test_gamma_flows_nested_jets(rng, flow, period):
    array_fn, ref = GAMMA_FLOWS[flow]
    curve = random_curve(rng)
    gamma = [nested_jet(rng, v) for v in distinct_fractions(rng, period)]
    result = array_fn(gamma, curve)
    assert_entries(result, Jet)
    assert list(result) == [ref(gamma, curve, n) for n in range(period)]


@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("flow", sorted(GAMMA_FLOWS))
def test_gamma_flows_floats_bit_for_bit(rng, flow, period):
    array_fn, ref = GAMMA_FLOWS[flow]
    for _ in range(3):
        curve = random_curve(rng)
        gamma = distinct_floats(rng, period)
        result = array_fn(np.array(gamma, dtype=float), curve.to_float())
        assert result.dtype == np.float64
        for ref_curve in (curve, curve.to_float()):
            expected = np.array([ref(gamma, ref_curve, n) for n in range(period)])
            assert np.array_equal(result, expected)


@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("flow", sorted(VW_FLOWS))
def test_vw_flows_exact_and_jets(rng, flow, period):
    array_fn, ref = VW_FLOWS[flow]
    v = [random_fraction(rng) for _ in range(period)]
    w = [random_fraction(rng) for _ in range(period)]
    for vs, ws, kind in (
        (v, w, Fraction),
        ([nested_jet(rng, x) for x in v], [nested_jet(rng, x) for x in w], Jet),
    ):
        dv, dw = array_fn(vs, ws)
        assert_entries(dv, kind)
        assert_entries(dw, kind)
        expected = [ref(vs, ws, n) for n in range(period)]
        assert list(zip(dv, dw)) == expected


@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("flow", sorted(VW_FLOWS))
def test_vw_flows_floats_bit_for_bit(rng, flow, period):
    array_fn, ref = VW_FLOWS[flow]
    for _ in range(3):
        v = [rng.uniform(-2.0, 2.0) for _ in range(period)]
        w = [rng.uniform(-2.0, 2.0) for _ in range(period)]
        dv, dw = array_fn(np.array(v, dtype=float), np.array(w, dtype=float))
        assert dv.dtype == np.float64 and dw.dtype == np.float64
        expected = np.array([ref(v, w, n) for n in range(period)])
        assert np.array_equal(dv, expected[:, 0])
        assert np.array_equal(dw, expected[:, 1])


# ---------------------------------------------------------------------------
# Collision guard
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base", [0.25, 1.0, -7.5, 3.0e6])
def test_float_guard_threshold(base):
    scale = max(1.0, abs(base))
    far = [base + 10 * scale, base + 20 * scale]
    curve = CUBIC.to_float()
    near = base + 0.5 * NUMERIC_DEGENERACY_RTOL * scale
    apart = base + 2.0 * NUMERIC_DEGENERACY_RTOL * scale
    assert floats_collide(base, near) and not floats_collide(base, apart)
    # a float64 array, a list of floats and a list of numpy float64 scalars
    # all take the float rule
    for sites in (
        lambda g: np.array(g, dtype=float),
        list,
        lambda g: list(map(np.float64, g)),
    ):
        for fn in (dkn_rhs, vn_from_gamma):
            with pytest.raises(DegenerateConfigurationError) as err:
                fn(sites([base, near] + far), curve)
            assert err.value.sites == (0, 1)
            assert np.all(np.isfinite(fn(sites([base, apart] + far), curve)))


def test_exact_guard_collides_on_equal_values_only():
    """Exact sites collide when their values are equal, even when their
    derivatives differ; values 10^-30 apart, which the float rule would
    call a collision, do not."""
    third = Fraction(1, 3)
    far = [Fraction(5), Fraction(9)]
    jets = [Jet((third, Fraction(1))), Jet((third, Fraction(-2)))]
    jets += [Jet((v, Fraction(0))) for v in far]
    for gamma in (jets, [third, third] + far):
        with pytest.raises(DegenerateConfigurationError) as err:
            dkn_rhs(gamma, CUBIC)
        assert err.value.sites == (0, 1)
        assert "between sites 0 and 1" in str(err.value)
    near = third + Fraction(1, 10**30)
    assert floats_collide(float(third), float(near))
    assert dkn_rhs([third, near] + far, CUBIC)[0] == ref_dkn([third, near] + far, CUBIC, 0)
    apart = [Jet((third, Fraction(1))), Jet((near, Fraction(1)))] + jets[2:]
    assert dkn_rhs(apart, CUBIC)[1].coeffs[0] == ref_dkn([third, near] + far, CUBIC, 1)


@pytest.mark.parametrize("period", [3, 4, 5])
@pytest.mark.parametrize("exact", [True, False])
def test_wraparound_collision_names_last_and_first_site(period, exact):
    gamma = [Fraction(n + 1) for n in range(period - 1)] + [Fraction(1)]
    curve = CUBIC
    if not exact:
        gamma, curve = np.array(gamma, dtype=float), CUBIC.to_float()
    for fn in (dkn_rhs, vn_from_gamma, reduced_flow2_gamma):
        with pytest.raises(DegenerateConfigurationError) as err:
            fn(gamma, curve)
        assert set(err.value.sites) == {period - 1, 0}
        assert f"between sites {period - 1} and 0" in str(err.value)


@pytest.mark.parametrize("exact", [True, False])
def test_guard_names_the_first_of_several_collisions(exact):
    # sites 1-2, 3-4 and the wrap pair 5-0 all collide; the first is named
    gamma = [Fraction(v) for v in (1, 3, 3, 5, 5, 1)]
    curve = CUBIC
    if not exact:
        gamma, curve = np.array(gamma, dtype=float), CUBIC.to_float()
    for fn in (dkn_rhs, vn_from_gamma, reduced_flow2_gamma):
        with pytest.raises(DegenerateConfigurationError) as err:
            fn(gamma, curve)
        assert err.value.sites == (1, 2)


def test_reduced_t2_hits_the_collision_guard():
    with pytest.raises(DegenerateConfigurationError) as err:
        reduced_flow2_gamma(np.array((1.0, 1.0, 2.0, 3.0)), CUBIC.to_float())
    assert err.value.sites == (0, 1)
    chain = GammaChain((1.0, 1.0, 2.0, 3.0), CUBIC)
    with pytest.raises(DegenerateConfigurationError) as err:
        rk4_integrate(chain, "reduced_t2", 1e-3, 5)
    assert err.value.sites == (0, 1)
    assert "step 0" in str(err.value)


# ---------------------------------------------------------------------------
# Python 3.10: no operator.call
# ---------------------------------------------------------------------------

FALLBACK_GAMMA = [-0.82, -0.31, 0.28, 0.77, 1.9]
FALLBACK_CURVE = (0.5, -1.0, 0.25)


def test_array_path_without_operator_call_gives_the_list_paths_bits():
    """Python 3.10 has no ``operator.call``, so ``flows`` defines its own.
    A fresh interpreter with ``operator.call`` deleted before the import
    runs that fallback on a float64 array; it gives the bits of the list
    path in this interpreter."""
    script = textwrap.dedent(f"""
        import operator
        del operator.call
        import numpy as np
        from laxchain import flows
        from laxchain.curves import SpectralCurve
        assert flows.call.__module__ == "laxchain.flows", flows.call
        curve = SpectralCurve({FALLBACK_CURVE!r})
        result = flows.dkn_rhs(np.array({FALLBACK_GAMMA!r}, dtype=float), curve)
        assert result.dtype == np.float64
        print(" ".join(x.hex() for x in result.tolist()))
    """)
    src = str(Path(laxchain.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert run.returncode == 0, run.stderr
    listed = dkn_rhs(list(FALLBACK_GAMMA), SpectralCurve(FALLBACK_CURVE))
    assert run.stdout.split() == [x.hex() for x in listed]
