import random
from fractions import Fraction

import numpy as np
import pytest

from laxchain.curves import SpectralCurve
from laxchain.errors import UnsupportedCurveError
from laxchain.scalars import Jet, QuadExt

from conftest import random_fraction


def reference_eval(coeffs, z):
    """The general-degree Horner loop that the cubic's ``eval`` unrolls."""
    acc = z + coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def reference_derivative(coeffs, z, order):
    """The general-degree loops that the cubic's ``eval_derivative`` unrolls."""
    d = len(coeffs)
    if order == 1:
        acc = d * z + (d - 1) * coeffs[d - 1]
        for i in range(d - 2, 0, -1):
            acc = acc * z + i * coeffs[i]
        return acc
    acc = d * (d - 1) * z + (d - 1) * (d - 2) * coeffs[d - 1]
    for i in range(d - 2, 1, -1):
        acc = acc * z + i * (i - 1) * coeffs[i]
    return acc


def outputs(curve, z):
    return curve.eval(z), curve.eval_derivative(z, 1), curve.eval_derivative(z, 2)


def reference_outputs(coeffs, z):
    return (
        reference_eval(coeffs, z),
        reference_derivative(coeffs, z, 1),
        reference_derivative(coeffs, z, 2),
    )


def same(x, y):
    """Equal in value and type, leaf by leaf through jets and QuadExts."""
    if type(x) is not type(y):
        return False
    if isinstance(x, Jet):
        return len(x.coeffs) == len(y.coeffs) and all(map(same, x.coeffs, y.coeffs))
    if isinstance(x, QuadExt):
        return same(x.a, y.a) and same(x.b, y.b) and same(x.disc, y.disc)
    return x == y


def test_cubic_evaluations():
    cubic = SpectralCurve.elliptic(0, 0, 0)  # z^3
    assert cubic.eval(Fraction(2)) == 8
    roots = SpectralCurve.elliptic(0, -1, 0)  # z^3 - z
    assert roots.eval(Fraction(1)) == 0


def test_derivatives():
    cubic = SpectralCurve.elliptic(0, 0, 0)
    assert cubic.eval_derivative(Fraction(2), 1) == 12  # 3z^2
    assert cubic.eval_derivative(Fraction(2), 2) == 12  # 6z
    roots = SpectralCurve.elliptic(0, -1, 0)
    assert roots.eval_derivative(Fraction(0), 1) == -1
    with pytest.raises(ValueError):
        cubic.eval_derivative(Fraction(1), 3)


def test_horner_matches_term_sum(rng):
    for _ in range(25):
        coeffs = tuple(random_fraction(rng) for _ in range(3))
        curve = SpectralCurve(coeffs)
        z = random_fraction(rng)
        term_sum = z**3 + sum(c * z**i for i, c in enumerate(coeffs))
        assert curve.eval(z) == term_sum
        # derivative oracle: 3 z^2 + sum of i*c_i z^(i-1)
        deriv = 3 * z**2 + sum(i * c * z ** (i - 1) for i, c in enumerate(coeffs) if i >= 1)
        assert curve.eval_derivative(z, 1) == deriv


def test_jet_evaluation_consistency():
    curve = SpectralCurve.elliptic(Fraction(1, 3), Fraction(-2), Fraction(5, 7))
    x = Jet.variable(Fraction(3, 2), 2)
    fx = curve.eval(x)
    assert fx.coeffs[0] == curve.eval(Fraction(3, 2))
    assert fx.coeffs[1] == curve.eval_derivative(Fraction(3, 2), 1)
    assert fx.coeffs[2] == curve.eval_derivative(Fraction(3, 2), 2)


def test_validation():
    with pytest.raises(UnsupportedCurveError):
        SpectralCurve((1, 2))
    with pytest.raises(UnsupportedCurveError):
        SpectralCurve((1, 1, 1, 1, 1))  # a quintic: not an elliptic curve
    assert SpectralCurve.elliptic(3, 2, 1).coeffs == (1, 2, 3)


@pytest.mark.parametrize("position", range(3))
def test_a_bool_coefficient_is_refused_by_name(position):
    """``elliptic(True, -2, 0)`` used to keep ``True`` as c2 and evaluate F
    with c2 = 1."""
    coeffs = [Fraction(1, 2), -2, 0.5]
    coeffs[position] = True
    with pytest.raises(TypeError, match=f"^curve coefficient c{position} is a bool"):
        SpectralCurve(tuple(coeffs))
    with pytest.raises(TypeError, match=f"^curve coefficient c{position} is a bool"):
        SpectralCurve.elliptic(*reversed(coeffs))


SPECIAL_FLOATS = [0.0, -0.0, 1.0, -1.5, 1e-310, -3e-320, 1e150, -2.5e200, 1e308, float("inf")]


def test_float_evaluation_matches_reference_bit_for_bit():
    rng = random.Random(20261019)
    draws = [rng.uniform(-4.0, 4.0) for _ in range(200)]
    draws += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300) for _ in range(200)]
    draws += SPECIAL_FLOATS
    for k in range(100):
        coeffs = tuple(draws[(3 * k + i) % len(draws)] for i in range(3))
        curve = SpectralCurve(coeffs)
        for z in draws[k::7] + SPECIAL_FLOATS:
            got = [v.hex() for v in outputs(curve, z)]
            want = [v.hex() for v in reference_outputs(coeffs, z)]
            assert got == want, (coeffs, z)
        # the float64 site arrays of the numeric paths
        zs = np.array(draws[k::5])
        with np.errstate(over="ignore", invalid="ignore"):
            pairs = list(zip(outputs(curve, zs), reference_outputs(coeffs, zs)))
        for got, want in pairs:
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_exact_evaluation_matches_reference_in_value_and_type(rng):
    for _ in range(20):
        ints = tuple(rng.randint(-9, 9) for _ in range(3))
        fracs = tuple(random_fraction(rng) for _ in range(3))
        disc = random_fraction(rng, nonzero=True)
        quad = QuadExt(random_fraction(rng), random_fraction(rng), disc)
        cases = [
            (ints, rng.randint(-9, 9)),
            (ints, random_fraction(rng)),
            (fracs, random_fraction(rng)),
            (ints, quad),
            (fracs, quad),
            (fracs, Jet.variable(random_fraction(rng), 3)),
            (fracs, Jet.variable(Jet.variable(quad, 2), 1)),
        ]
        for coeffs, z in cases:
            for got, want in zip(outputs(SpectralCurve(coeffs), z), reference_outputs(coeffs, z)):
                assert same(got, want), (coeffs, z)
