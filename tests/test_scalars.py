import math
import operator
import random
import re
import struct
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxchain import scalars, verify
from laxchain.flows import NUMERIC_DEGENERACY_RTOL, floats_collide
from laxchain.scalars import (
    Jet,
    QuadExt,
    format_scalar,
    is_rational_square,
    rational,
    scalar_abs,
    scalar_value,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


def test_rational_parsing():
    assert rational("3/7") == Fraction(3, 7)
    assert rational("-2") == Fraction(-2)
    assert rational("1.25") == Fraction(5, 4)
    assert rational(4) == Fraction(4)
    with pytest.raises(TypeError):
        rational(0.1)
    with pytest.raises(TypeError):
        rational(True)


def test_rational_square_detection():
    assert is_rational_square(Fraction(4, 9))
    assert is_rational_square(Fraction(0))
    assert not is_rational_square(Fraction(8))
    assert not is_rational_square(Fraction(-4))
    assert not is_rational_square(Fraction(2, 9))
    assert is_rational_square(4) and is_rational_square("9/4")
    with pytest.raises(TypeError):
        is_rational_square(4.0)


@given(rationals, rationals, rationals)
def test_fraction_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    if c != 0:
        assert (a / c) * c == a


# ---------------------------------------------------------------------------
# Quadratic extension
# ---------------------------------------------------------------------------

@given(rationals, rationals, rationals)
@settings(max_examples=60)
def test_quadext_conjugate_norm(a, b, d):
    x = QuadExt(a, b, d)
    prod = x * x.conjugate()
    assert prod.a == a * a - d * b * b
    assert prod.b == 0
    assert x.norm() == prod.a


def test_quadext_arithmetic():
    w = QuadExt(Fraction(0), Fraction(1), Fraction(8))
    assert w * w == 8
    x = 3 + 2 * w
    assert isinstance(x, QuadExt)
    assert x.a == 3 and x.b == 2
    y = x / w
    assert y * w == x
    assert (x - x) == 0
    assert -x == QuadExt(Fraction(-3), Fraction(-2), Fraction(8))
    assert x**0 == 1
    assert x**3 == x * x * x


def test_quadext_zero_test_and_disc_mixing():
    z = QuadExt(Fraction(0), Fraction(0), Fraction(5))
    assert z == 0 and not bool(z)
    nz = QuadExt(Fraction(0), Fraction(1), Fraction(5))
    assert nz != 0
    other = QuadExt(Fraction(1), Fraction(1), Fraction(7))
    with pytest.raises(ValueError):
        nz + other


def test_quadext_division_by_zero_divisor():
    # disc = 4 is a square: 2 + 1*w has norm 4 - 4 = 0
    x = QuadExt(Fraction(2), Fraction(1), Fraction(4))
    with pytest.raises(ZeroDivisionError):
        1 / x


def test_quadext_holds_fractions_only():
    assert type(QuadExt(3, 0, 5).a) is Fraction
    for args in ((0.5, 0, 5), (1, 0, 5.0), (1, 0.0, 5), (True, 0, 5)):
        with pytest.raises(TypeError):
            QuadExt(*args)
    q = QuadExt(Fraction(1, 2), Fraction(3), Fraction(5))
    for op in (lambda: q * 0.5, lambda: 0.5 + q, lambda: q / 0.5, lambda: 0.5 - q):
        with pytest.raises(TypeError):
            op()
    for r in (q + 2, 2 - q, q * q, q * 3, 1 / q, q / 3, -q, q**2, q.conjugate()):
        assert all(type(c) is Fraction for c in (r.a, r.b, r.disc)), r


def test_quadext_formatting():
    x = QuadExt(Fraction(1, 2), Fraction(-3), Fraction(8))
    assert format_scalar(x) == "1/2 + -3/1*w | w^2 = 8/1"


def test_quadext_str_is_its_report_form():
    x = QuadExt(Fraction(1, 2), Fraction(-3), Fraction(8))
    assert str(x) == format_scalar(x)


def test_quadext_is_immutable():
    x = QuadExt(Fraction(1), Fraction(2), Fraction(3))
    for name in ("a", "b", "disc"):
        with pytest.raises(AttributeError, match="^QuadExt is immutable$"):
            setattr(x, name, Fraction(0))
    assert (x.a, x.b, x.disc) == (1, 2, 3)


@pytest.mark.parametrize("exponent", [-1, 2.0, Fraction(1, 2)])
def test_quadext_powers_take_non_negative_ints_only(exponent):
    with pytest.raises(TypeError):
        QuadExt(Fraction(1), Fraction(2), Fraction(3)) ** exponent


def test_a_float_over_a_quadext_is_refused():
    with pytest.raises(TypeError):
        2.5 / QuadExt(Fraction(1), Fraction(2), Fraction(3))


def test_division_by_a_pure_w_element_needs_a_nonzero_disc():
    """With disc = 0, w^2 = 0, so a multiple of w is a zero divisor."""
    x = QuadExt(Fraction(1), Fraction(2), Fraction(0))
    with pytest.raises(ZeroDivisionError):
        x / QuadExt(Fraction(0), Fraction(3), Fraction(0))


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

def test_jet_identity_product():
    one = Jet((Fraction(1), Fraction(0)))
    c = Jet((Fraction(3), Fraction(5)))
    assert one * c == c


def test_jet_variable_square():
    x = Jet.variable(Fraction(5), 1)
    assert x.coeffs == (Fraction(5), Fraction(1))
    assert (x * x).coeffs == (Fraction(25), Fraction(10))


def test_order_zero_variable_is_its_value():
    assert Jet.variable(Fraction(5), 0).coeffs == (Fraction(5),)


def test_jet_truth_value_reads_every_coefficient():
    zero = Fraction(0)
    quad_zero = QuadExt(zero, zero, Fraction(2))
    assert not Jet((zero, zero))
    assert Jet((zero, Fraction(1, 3)))
    assert not Jet((quad_zero, quad_zero))
    assert Jet((quad_zero, QuadExt(zero, Fraction(1), Fraction(2))))
    assert not Jet((Jet((zero, zero)), Jet((zero, zero))))
    assert Jet((Jet((zero, zero)), Jet((zero, Fraction(-1)))))


def test_jet_is_immutable():
    jet = Jet((Fraction(1), Fraction(2)))
    for name in ("coeffs", "_shape"):
        with pytest.raises(AttributeError, match="^Jet is immutable$"):
            setattr(jet, name, ())
    assert jet.coeffs == (1, 2)


def test_a_jet_needs_a_value_coefficient():
    with pytest.raises(ValueError, match="at least a value coefficient"):
        Jet(())


@pytest.mark.parametrize("exponent", [-1, 2.0, Fraction(1, 2)])
def test_jet_powers_take_non_negative_ints_only(exponent):
    with pytest.raises(TypeError):
        Jet((Fraction(1), Fraction(2))) ** exponent


def test_jet_quotient_by_hand():
    # (1, 0) / (2, 3) -> value 1/2, derivative (0*2 - 1*3)/4 = -3/4
    num = Jet((Fraction(1), Fraction(0)))
    den = Jet((Fraction(2), Fraction(3)))
    q = num / den
    assert q.coeffs == (Fraction(1, 2), Fraction(-3, 4))
    assert q * den == num


def test_jet_order_mismatch_raises():
    with pytest.raises(ValueError):
        Jet((1, 2)) + Jet((1, 2, 3))


def test_jet_zero_value_division_raises():
    with pytest.raises(ZeroDivisionError):
        Jet((Fraction(1), Fraction(1))) / Jet((Fraction(0), Fraction(1)))


def test_jet_scalar_fast_paths():
    j = Jet((Fraction(2), Fraction(3), Fraction(4)))
    assert (j + 1).coeffs == (Fraction(3), Fraction(3), Fraction(4))
    assert (1 - j).coeffs == (Fraction(-1), Fraction(-3), Fraction(-4))
    assert (j * 2).coeffs == (Fraction(4), Fraction(6), Fraction(8))
    assert (j / 2).coeffs == (Fraction(1), Fraction(3, 2), Fraction(2))


@given(
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(rationals, min_size=3, max_size=3),
    rationals,
    rationals,
)
@settings(max_examples=40)
def test_jet_chain_rule_vs_analytic_derivative(pc, qc, x0, dx):
    """r = p/q evaluated on a jet must produce the analytic derivative."""

    def poly_eval(cs, x):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def poly_diff(cs):
        return [i * c for i, c in enumerate(cs)][1:]

    if poly_eval(qc, x0) == 0:
        return
    jet = Jet((x0, dx, Fraction(0)))
    num = Fraction(0)
    for c in reversed(pc):
        num = num * jet + c
    den = Fraction(0)
    for c in reversed(qc):
        den = den * jet + c
    r = num / den

    p0, q0 = poly_eval(pc, x0), poly_eval(qc, x0)
    dp = poly_eval(poly_diff(pc), x0)
    dq = poly_eval(poly_diff(qc), x0)
    assert r.coeffs[0] == p0 / q0
    assert r.coeffs[1] == (dp * q0 - p0 * dq) / q0**2 * dx


def test_nested_jets_mixed_partials():
    # f(x, y) = x^2 y + y^3 at (x, y) = (2, 3), first-order jets in each slot
    x_val, y_val = Fraction(2), Fraction(3)
    y_jet = Jet.variable(y_val, 1)
    zero_y = Jet.constant(Fraction(0), 1)
    x_nested = Jet((Jet.constant(x_val, 1), Jet.constant(Fraction(1), 1)))
    y_nested = Jet((y_jet, zero_y))
    f = x_nested * x_nested * y_nested + y_nested**3
    assert f.coeffs[0].coeffs[0] == 4 * 3 + 27  # value
    assert f.coeffs[1].coeffs[0] == 2 * x_val * y_val  # d/dx
    assert f.coeffs[0].coeffs[1] == x_val**2 + 3 * y_val**2  # d/dy
    assert f.coeffs[1].coeffs[1] == 2 * x_val  # d2/dxdy


def test_jet_derivative_and_truncate():
    j = Jet((Fraction(1), Fraction(2), Fraction(3)))
    assert j.derivative().coeffs == (Fraction(2), Fraction(3))
    assert j.truncate(1).coeffs == (Fraction(1), Fraction(2))
    with pytest.raises(ValueError):
        j.truncate(5)
    with pytest.raises(ValueError):
        Jet((1,)).derivative()


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def test_scalar_value_and_exactness():
    w = QuadExt(Fraction(1), Fraction(2), Fraction(3))
    nested = Jet((Jet((w, w)), Jet((w, w))))
    assert scalar_value(nested) == w
    # a QuadExt equals exact base values only; a float is never equal
    two = QuadExt(Fraction(2), Fraction(0), Fraction(3))
    assert two == 2 and two == Fraction(2) and two != 2.0 and 2.0 != two


def test_scalar_abs():
    assert scalar_abs(Fraction(-3, 4)) == Fraction(3, 4)
    assert scalar_abs(QuadExt(Fraction(0), Fraction(0), Fraction(7))) == 0
    w = QuadExt(Fraction(1), Fraction(1), Fraction(4))
    assert scalar_abs(w) == pytest.approx(3.0)
    neg = QuadExt(Fraction(3), Fraction(4), Fraction(-1))
    assert scalar_abs(neg) == pytest.approx(5.0)
    assert scalar_abs(Jet((Fraction(0), Fraction(-2)))) == 2


def test_format_scalar_rationals_and_jets():
    assert format_scalar(Fraction(5)) == "5/1"
    assert format_scalar(Fraction(-2, 3)) == "-2/3"
    assert format_scalar(Jet((Fraction(1), Fraction(2)))) == "jet(1/1; 2/1)"


def _collide_by_max(a, b):
    return abs(a - b) < NUMERIC_DEGENERACY_RTOL * max(1.0, abs(a), abs(b))


def test_float_collision_rule_matches_the_max_form_on_floats_and_arrays():
    """Gaps a few ulps either side of the threshold, at scales below, at and
    above 1, signs mixed, plus zero, infinities and NaN."""
    rtol = NUMERIC_DEGENERACY_RTOL
    pairs = []
    for base in (0.0, 0.3, -0.7, 1.0, -1.0, 1.5, 3.0e6, -2.5e-3, 7.0e200):
        scale = max(1.0, abs(base))
        for sign in (1.0, -1.0):
            edge = base + sign * rtol * scale
            for k in range(-3, 4):
                pairs.append((base, edge + k * math.ulp(edge)))
    inf, nan = math.inf, math.nan
    pairs += [(inf, inf), (inf, 1.0), (-inf, inf), (nan, 1.0), (nan, nan), (0.0, -0.0)]
    expected = [_collide_by_max(a, b) for a, b in pairs]
    assert [floats_collide(a, b) for a, b in pairs] == expected
    assert any(expected) and not all(expected)
    a, b = (np.array(x) for x in zip(*pairs))
    with np.errstate(invalid="ignore"):
        assert floats_collide(a, b).tolist() == expected


# ---------------------------------------------------------------------------
# Zero-skipping kernels against the dense formulas
# ---------------------------------------------------------------------------
#
# ``ref_*`` transcribe the QuadExt and Jet arithmetic as it was before the
# kernels learned to skip exact zeros: every Leibniz term is formed, every
# binomial multiplied, and base-field operands are lifted to QuadExt(x, 0).
# They follow Python's operator dispatch (left operand first, reflected
# methods of QuadExt and Jet computing with themselves on the left) and
# recurse through jet coefficients, so no level uses the kernels under test.

def _ref_lift_quad(q, other):
    if isinstance(other, QuadExt):
        if other.disc != q.disc:
            raise ValueError("mixing quadratic extensions with different discriminants")
        return other
    return QuadExt(other, 0, q.disc)


def _ref_quad_add(q, other):
    o = _ref_lift_quad(q, other)
    return QuadExt(q.a + o.a, q.b + o.b, q.disc)


def _ref_quad_sub(q, other):
    o = _ref_lift_quad(q, other)
    return QuadExt(q.a - o.a, q.b - o.b, q.disc)


def _ref_quad_mul(q, other):
    o = _ref_lift_quad(q, other)
    if q.b == 0:
        return QuadExt(q.a * o.a, q.a * o.b, q.disc)
    if o.b == 0:
        return QuadExt(q.a * o.a, q.b * o.a, q.disc)
    return QuadExt(q.a * o.a + q.disc * q.b * o.b, q.a * o.b + q.b * o.a, q.disc)


def _ref_quad_div(q, other):
    o = _ref_lift_quad(q, other)
    nrm = o.a * o.a - q.disc * o.b * o.b
    if nrm == 0:
        raise ZeroDivisionError("division by a zero divisor in the quadratic extension")
    return QuadExt(
        (q.a * o.a - q.disc * q.b * o.b) / nrm, (q.b * o.a - q.a * o.b) / nrm, q.disc
    )


def _ref_jet_lift(j, other):
    if isinstance(other, Jet):
        if other.order != j.order:
            raise ValueError("jet order mismatch")
        return other
    zero = ref_mul(other, 0)
    return Jet((other,) + (zero,) * j.order)


def _ref_jet_mul(j, other):
    if not isinstance(other, Jet):
        return Jet(tuple(ref_mul(c, other) for c in j.coeffs))
    a, b = j.coeffs, _ref_jet_lift(j, other).coeffs
    out = []
    for k in range(len(a)):
        term = ref_mul(a[0], b[k])
        for j_ in range(1, k + 1):
            term = ref_add(term, ref_mul(comb(k, j_), ref_mul(a[j_], b[k - j_])))
        out.append(term)
    return Jet(out)


def _ref_jet_div(j, other):
    if not isinstance(other, Jet):
        return Jet(tuple(ref_div(c, other) for c in j.coeffs))
    a, b = j.coeffs, _ref_jet_lift(j, other).coeffs
    if b[0] == 0:
        raise ZeroDivisionError("division by a jet with zero value coefficient")
    h = [ref_div(a[0], b[0])]
    for k in range(1, len(a)):
        acc = a[k]
        for j_ in range(k):
            acc = ref_sub(acc, ref_mul(comb(k, j_), ref_mul(h[j_], b[k - j_])))
        h.append(ref_div(acc, b[0]))
    return Jet(h)


def ref_neg(x):
    if isinstance(x, Jet):
        return Jet(tuple(ref_neg(c) for c in x.coeffs))
    if isinstance(x, QuadExt):
        return QuadExt(-x.a, -x.b, x.disc)
    return -x


def ref_add(x, y):
    if isinstance(x, Jet):
        if not isinstance(y, Jet):
            return Jet((ref_add(x.coeffs[0], y),) + x.coeffs[1:])
        b = _ref_jet_lift(x, y).coeffs
        return Jet(tuple(ref_add(p, q) for p, q in zip(x.coeffs, b)))
    if isinstance(y, Jet):
        return ref_add(y, x)
    if isinstance(x, QuadExt):
        return _ref_quad_add(x, y)
    if isinstance(y, QuadExt):
        return _ref_quad_add(y, x)
    return x + y


def ref_sub(x, y):
    if isinstance(x, Jet):
        if not isinstance(y, Jet):
            return Jet((ref_sub(x.coeffs[0], y),) + x.coeffs[1:])
        b = _ref_jet_lift(x, y).coeffs
        return Jet(tuple(ref_sub(p, q) for p, q in zip(x.coeffs, b)))
    if isinstance(y, Jet):
        return Jet((ref_sub(x, y.coeffs[0]),) + tuple(ref_neg(c) for c in y.coeffs[1:]))
    if isinstance(x, QuadExt):
        return _ref_quad_sub(x, y)
    if isinstance(y, QuadExt):
        o = _ref_lift_quad(y, x)
        return QuadExt(o.a - y.a, o.b - y.b, y.disc)
    return x - y


def ref_mul(x, y):
    if isinstance(x, Jet):
        return _ref_jet_mul(x, y)
    if isinstance(y, Jet):
        return _ref_jet_mul(y, x)
    if isinstance(x, QuadExt):
        return _ref_quad_mul(x, y)
    if isinstance(y, QuadExt):
        return _ref_quad_mul(y, x)
    return x * y


def ref_div(x, y):
    if isinstance(x, Jet):
        return _ref_jet_div(x, y)
    if isinstance(y, Jet):
        return _ref_jet_div(_ref_jet_lift(y, x), y)
    if isinstance(x, QuadExt):
        return _ref_quad_div(x, y)
    if isinstance(y, QuadExt):
        return _ref_quad_div(_ref_lift_quad(y, x), y)
    return x / y


OPS = {
    "+": (operator.add, ref_add),
    "-": (operator.sub, ref_sub),
    "*": (operator.mul, ref_mul),
    "/": (operator.truediv, ref_div),
}


def deep_key(x):
    """Type and value of every component; floats by their bits.

    Python leaves the sign and payload of a NaN unspecified (CPython's
    specialised float instructions can return either operand's NaN, so one
    expression run twice may differ), so every NaN keys as ``nan``.
    """
    if isinstance(x, Jet):
        return ("Jet", tuple(deep_key(c) for c in x.coeffs))
    if isinstance(x, QuadExt):
        return ("QuadExt", deep_key(x.a), deep_key(x.b), deep_key(x.disc))
    if isinstance(x, float):
        return ("float", "nan" if x != x else struct.pack("<d", x))
    return (type(x).__name__, x)


def outcome(fn, x, y):
    try:
        return fn(x, y)
    except (ZeroDivisionError, ValueError) as err:
        return type(err)


def assert_same(got, want, context):
    if isinstance(want, type):
        assert got is want, context
        return
    assert deep_key(got) == deep_key(want), context
    assert format_scalar(got) == format_scalar(want), context


def sparse_fraction(rng, zero_rate, wide=False):
    if rng.random() < zero_rate:
        return Fraction(0)
    if wide:
        return Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
    return Fraction(rng.randint(-1000, 1000), rng.randint(1, 8))


def sparse_quad(rng, disc, zero_rate, wide=False):
    return QuadExt(
        sparse_fraction(rng, zero_rate, wide), sparse_fraction(rng, zero_rate, wide), disc
    )


def sparse_jet(rng, orders, leaf, zero_rate):
    """Jet_x(Jet_y(...(leaf))) with whole coefficients zeroed at random."""
    if not orders:
        return leaf()
    order, inner = orders[0], orders[1:]

    def coeff():
        c = sparse_jet(rng, inner, leaf, zero_rate)
        return c * 0 if rng.random() < zero_rate else c

    return Jet(tuple(coeff() for _ in range(order + 1)))


def check_all_ops(x, y):
    for name, (new, ref) in OPS.items():
        got, want = outcome(new, x, y), outcome(ref, x, y)
        assert_same(got, want, (name, x, y))


DISC = Fraction(-7, 3)


@pytest.mark.parametrize("seed", range(6))
def test_kernels_match_dense_formulas_on_nested_jets(seed):
    rng = random.Random(seed)
    wide = seed % 2 == 1
    for orders in ((2, 2), (1, 3), (3, 1), (0, 2), (2, 0), (0, 0), (2,), (3,)):
        for zero_rate in (0.0, 0.3, 0.6, 0.9, 1.0):
            leaf = lambda: sparse_quad(rng, DISC, zero_rate, wide)
            x = sparse_jet(rng, orders, leaf, zero_rate)
            y = sparse_jet(rng, orders, leaf, zero_rate)
            check_all_ops(x, y)
            check_all_ops(x, x)
            for const in (Fraction(0), Fraction(3, 4), 2, leaf()):
                check_all_ops(x, const)
                check_all_ops(const, x)


def test_kernels_match_dense_formulas_on_zero_value_coefficients():
    # every Leibniz term of some coefficient has a zero factor
    rng = random.Random(11)
    z = QuadExt(Fraction(0), Fraction(0), DISC)
    q = lambda: sparse_quad(rng, DISC, 0.0)
    cases = [
        (Jet((z, q(), q())), Jet((z, q(), q()))),
        (Jet((z, z, q())), Jet((q(), z, z))),
        (Jet((Jet((z, z)), Jet((q(), z)))), Jet((Jet((z, q())), Jet((z, z))))),
        (Jet((z, q(), z, q())), Jet((q(), z, q(), z))),
    ]
    for x, y in cases:
        check_all_ops(x, y)
        check_all_ops(y, x)
    prod = cases[0][0] * cases[0][1]
    assert prod.coeffs[0] == 0 and prod.coeffs[1] == 0
    assert isinstance(prod.coeffs[1], QuadExt)


def _share_kind(x, y):
    sx, sy = Jet(x.coeffs)._scan(), Jet(y.coeffs)._scan()
    return bool(sx and sy and sx[0] == sy[0])


def check_all_ops_or_refused(x, y):
    """Two jets of order >= 1 with no shared exact kind are refused with
    ``TypeError`` (a zero divisor raises ``ZeroDivisionError`` first); any
    other pair matches the dense formulas."""
    if not (isinstance(x, Jet) and isinstance(y, Jet) and x.order) or _share_kind(x, y):
        check_all_ops(x, y)
        return
    for name, (new, _) in OPS.items():
        with pytest.raises((TypeError, ZeroDivisionError)) as err:
            new(x, y)
        zero_divisor = name == "/" and y.coeffs[0] == 0
        assert err.type is (ZeroDivisionError if zero_divisor else TypeError), (name, x, y)


def test_kernels_match_dense_formulas_on_mixed_coefficients():
    rng = random.Random(5)
    for _ in range(60):
        def leaf():
            if rng.random() < 0.3:
                return sparse_fraction(rng, 0.4)
            return sparse_quad(rng, DISC, 0.4)

        order = rng.randint(0, 3)
        x = Jet(tuple(leaf() for _ in range(order + 1)))
        y = Jet(tuple(leaf() for _ in range(order + 1)))
        check_all_ops_or_refused(x, y)
        check_all_ops(leaf(), leaf())
        # int components and int discriminants
        ix = QuadExt(rng.randint(-3, 3), rng.randint(-1, 1), rng.choice((5, DISC)))
        check_all_ops(ix, leaf())
        check_all_ops(leaf(), ix)
        nested = Jet((Jet((leaf(), leaf())), Jet((leaf(), leaf()))))
        check_all_ops_or_refused(nested, nested * 0)
        check_all_ops_or_refused(nested, Jet((Jet((leaf(), leaf())), Jet((leaf(), leaf())))))


def _refused_pairs(order):
    """Pairs of order-``order`` jets with nonzero values and no shared exact
    kind: floats, ints, Fraction against QuadExt, and two discriminants."""
    def jet(value, slope):
        return Jet((value,) + (slope,) * order)

    quad = lambda disc: jet(QuadExt(Fraction(3, 2), Fraction(-1, 5), disc), QuadExt(1, 2, disc))
    fraction = jet(Fraction(3, 2), Fraction(1, 3))
    return [
        (jet(1.5, 0.25), jet(-2.0, 0.5)),
        (jet(3, 1), jet(-2, 5)),
        (fraction, quad(DISC)),
        (quad(DISC), fraction),
        (quad(DISC), quad(Fraction(5))),
    ]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_jets_of_no_shared_exact_kind_raise(order):
    for x, y in _refused_pairs(order):
        for name, (op, _) in OPS.items():
            with pytest.raises(TypeError, match="jets share no exact kind"):
                op(x, y)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_constants_and_powers_keep_the_jet_kind(order):
    """``1 / x``, ``Fraction(3, 4) - x`` and ``x ** 0`` of an exact nested
    jet are jets of x's kind: their zeros equal x's zero component by
    component, in type and discriminant."""
    rng = random.Random(order)
    x = sparse_jet(rng, (order, 2), lambda: sparse_quad(rng, DISC, 0.0), 0.0)
    for got in (1 / x, Fraction(3, 4) - x, x**0):
        assert deep_key(got * 0) == deep_key(x * 0)
    assert_same(1 / x, ref_div(1, x), "1 / x")
    assert_same(Fraction(3, 4) - x, ref_sub(Fraction(3, 4), x), "3/4 - x")


def test_constants_of_another_kind_raise_where_they_enter():
    """A float constant, or one of an exact kind the jet's coefficients do
    not hold, is refused by the constant paths of + - * / on either side,
    before any jet of mixed kinds is built; the message names the jet."""
    x = Jet((Fraction(1), Fraction(2)))
    for expr in (lambda: x * 0.5, lambda: x + 0.25, lambda: x + QuadExt(0, 1, 5)):
        with pytest.raises(TypeError, match=re.escape(scalars._kind_name(x))):
            expr()
    quad = Jet((QuadExt(1, 2, DISC), QuadExt(0, 1, DISC)))
    nested = Jet((Jet((Fraction(1), Fraction(2))), Jet((Fraction(0), Fraction(1)))))
    refused = [
        (x, 0.5), (x, QuadExt(0, 1, 5)), (quad, 0.5), (quad, QuadExt(0, 1, 5)),
        (nested, QuadExt(0, 1, DISC)), (nested, 0.5), (Jet((Fraction(1),)), 0.5),
    ]
    for jet, c in refused:
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for a, b in ((jet, c), (c, jet)):
                with pytest.raises(TypeError, match=re.escape(scalars._kind_name(jet))):
                    op(a, b)


def test_constants_of_the_jet_kind_keep_it():
    """ints, Fractions and QuadExt constants of the coefficients' kind, or of
    the kind of a nested jet, keep x's kind (checked by its zero, as above)."""
    rng = random.Random(3)
    fraction = Jet((Fraction(1), Fraction(2)))
    leaf = lambda: sparse_quad(rng, DISC, 0.0)
    quad, nested = sparse_jet(rng, (1,), leaf, 0.0), sparse_jet(rng, (1, 2), leaf, 0.0)
    own = QuadExt(1, 2, DISC)
    for x in (fraction, quad, nested):
        got = [x * 2, x + Fraction(1, 3), 2 - x, x / 3]
        if x is not fraction:
            got += [x + own, own + x, x - own, own - x, x * own, own * x, x / own, own / x]
        for value in got:
            assert deep_key(value * 0) == deep_key(x * 0)


@pytest.mark.parametrize("orders", [(2, 2), (3,), (1, 1), (0, 0)])
def test_jet_power_equals_repeated_multiplication(orders):
    rng = random.Random(sum(orders))
    leaf = lambda: sparse_quad(rng, DISC, 0.3)
    for zero_rate in (0.0, 0.5):
        x = sparse_jet(rng, orders, leaf, zero_rate)
        product = Jet.constant(x.coeffs[0] * 0 + 1, x.order)
        for exponent in range(6):
            assert deep_key(x**exponent) == deep_key(product)
            product = product * x


# ---------------------------------------------------------------------------
# Equality and hashing
# ---------------------------------------------------------------------------

DISCS = (Fraction(5), Fraction(-7, 3))


@st.composite
def embedded_scalars(draw):
    """A base value in one of the representations that compare equal to it.

    The plain and jet wraps also draw floats; a QuadExt holds Fractions only,
    so the wraps that hold one draw exact values and zeros.
    """
    wrap = draw(st.sampled_from(("plain", "quad", "jet", "jet-quad", "nested")))
    values, zeros = st.one_of(st.integers(-5, 5), rationals), (0, Fraction(0))
    if wrap in ("plain", "jet"):
        values = st.one_of(values, st.sampled_from((0.5, -0.0, 2.0)))
        zeros += (0.0,)
    value = draw(values)
    disc = draw(st.sampled_from(DISCS))
    zero = draw(st.sampled_from(zeros))
    if wrap == "plain":
        return value
    if wrap == "quad":
        return QuadExt(value, zero, disc)
    order = draw(st.integers(0, 2))
    if wrap == "jet":
        return Jet((value,) + (zero,) * order)
    inner = QuadExt(value, zero, disc)
    if wrap == "jet-quad":
        return Jet((inner,) + (QuadExt(zero, zero, disc),) * order)
    return Jet((Jet((inner, QuadExt(zero, zero, disc))),) + (Jet((zero, zero)),) * order)


scalars_any = st.one_of(
    embedded_scalars(),
    st.builds(QuadExt, rationals, rationals, st.sampled_from(DISCS)),
    st.builds(lambda cs: Jet(cs), st.lists(rationals, min_size=1, max_size=3)),
)


@given(scalars_any, scalars_any)
@settings(max_examples=300)
def test_equal_scalars_hash_equal(x, y):
    if x == y:
        assert hash(x) == hash(y)


def test_embedded_values_collapse_in_sets():
    disc = Fraction(5)
    three = Fraction(3)
    assert len({QuadExt(3, 0, disc), three}) == 1
    assert len({Jet((3, 0)), three, 3}) == 1
    assert len({Jet((QuadExt(three, Fraction(0), disc), QuadExt(0, 0, disc))), 3}) == 1
    assert len({QuadExt(three, Fraction(1), disc), three}) == 2


# ---------------------------------------------------------------------------
# Galois conjugation w -> -w
# ---------------------------------------------------------------------------

sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)


def nested_quad_jets(disc, x_order, y_order, parts=sparse_rationals):
    """Jet_x(Jet_y(QuadExt)) over Fraction components, many of them zero."""
    quad = st.builds(QuadExt, parts, parts, st.just(disc))
    inner = st.lists(quad, min_size=y_order + 1, max_size=y_order + 1).map(Jet)
    return st.lists(inner, min_size=x_order + 1, max_size=x_order + 1).map(Jet)


def _assert_shapes_fresh(x):
    """Every cached jet shape in ``x`` equals a fresh scan of its coefficients.

    Shapes left by arithmetic may list a cancelled coefficient as nonzero,
    so this holds for scanned jets, not for every result."""
    if isinstance(x, Jet):
        if x._shape is not None:
            assert x._shape == Jet(x.coeffs)._scan()
        for c in x.coeffs:
            _assert_shapes_fresh(c)


@given(st.data(), st.sampled_from(DISCS), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=80)
def test_conjugation_is_a_ring_homomorphism_on_nested_jets(data, disc, x_order, y_order):
    x, y = (data.draw(nested_quad_jets(disc, x_order, y_order)) for _ in range(2))
    for name, (op, _) in OPS.items():
        got = outcome(op, x, y)
        want = outcome(op, x.conjugate(), y.conjugate())
        if isinstance(want, type):
            assert got is want, name
            continue
        assert_same(got.conjugate(), want, (name, x, y))
    assert deep_key(x.conjugate().conjugate()) == deep_key(x)
    x._scan()
    _assert_shapes_fresh(x.conjugate())


# components from a small pool, so sums and products often cancel to zero
cancelling_rationals = st.sampled_from((0, 0, 1, -1, 2)).map(Fraction)


def _unshaped(x):
    """``x`` rebuilt with no jet shape cached anywhere in it."""
    return Jet(tuple(_unshaped(c) for c in x.coeffs)) if isinstance(x, Jet) else x


def _assert_shapes_sound(x):
    """Every jet shape carried in ``x`` is sound: of the kind a fresh scan
    finds, and listing every coefficient a fresh scan finds nonzero.  It may
    list a coefficient that cancelled to zero, never leave out a nonzero one:
    the kernels skip exactly the coefficients a shape leaves out."""
    if isinstance(x, Jet):
        if x._shape:
            fresh = Jet(x.coeffs)._scan()
            assert fresh and x._shape[0] == fresh[0], (x._shape, fresh)
            assert set(fresh[1]) <= set(x._shape[1]), (x._shape, fresh)
        for c in x.coeffs:
            _assert_shapes_sound(c)


@given(st.data(), st.sampled_from(DISCS), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=150)
def test_carried_zero_patterns_are_sound_on_nested_jets(data, disc, x_order, y_order):
    """Results of +, -, * and / carry sound shapes, also when their operands
    are themselves results carrying shapes, and they equal the same
    operation on operands with no cached shapes in value and type."""
    jets = nested_quad_jets(disc, x_order, y_order, cancelling_rationals)
    x, y, z = (data.draw(jets) for _ in range(3))
    for op, _ in OPS.values():
        first = outcome(op, x, y)
        if isinstance(first, type):
            continue
        _assert_shapes_sound(first)
        for op2, _ in OPS.values():
            got = outcome(op2, first, z)
            want = outcome(op2, _unshaped(first), _unshaped(z))
            assert_same(got, want, (x, y, z))
            if not isinstance(got, type):
                _assert_shapes_sound(got)


def flat_jets(leaf, order):
    """Jets of ``order`` over the scalars ``leaf``."""
    return st.lists(leaf, min_size=order + 1, max_size=order + 1).map(Jet)


@given(st.data(), st.sampled_from((None,) + DISCS), st.integers(1, 3))
@settings(max_examples=200)
def test_carried_zero_patterns_are_sound_on_flat_jets(data, disc, order):
    """Sums, differences, products and quotients of Fraction or QuadExt jets
    of orders 1-3 carry a zero pattern that lists every coefficient a fresh
    scan finds nonzero, also after a second operation; operands are drawn
    from a small pool, so results often cancel."""
    if disc is None:
        leaf = cancelling_rationals
    else:
        leaf = st.builds(QuadExt, cancelling_rationals, cancelling_rationals, st.just(disc))
    x, y, z = (data.draw(flat_jets(leaf, order)) for _ in range(3))
    for op, _ in OPS.values():
        first = outcome(op, x, y)
        if isinstance(first, type):
            continue
        _assert_shapes_sound(first)
        for op2, _ in OPS.values():
            second = outcome(op2, first, z)
            if not isinstance(second, type):
                _assert_shapes_sound(second)


def test_cancelled_coefficients_stay_listed_in_the_carried_pattern():
    """Two results whose operation cancels a coefficient: the pattern they
    carry may still list it (later operations then do not skip it), but
    must list every coefficient that is nonzero."""
    w = QuadExt(0, 1, 5)
    z = QuadExt(0, 0, 5)
    difference = Jet((w, z)) - Jet((w, z))
    product = Jet((w, w)) * Jet((w, -w))
    assert Jet(difference.coeffs)._scan()[1] == ()
    assert Jet(product.coeffs)._scan()[1] == (0,)
    for result in (difference, product):
        assert result._shape
        _assert_shapes_sound(result)


# ---------------------------------------------------------------------------
# The exact helpers against the stdlib operators
# ---------------------------------------------------------------------------

HELPERS = {
    "+": (scalars._add, operator.add),
    "-": (scalars._sub, operator.sub),
    "*": (scalars._mul, operator.mul),
    "/": (scalars._div, operator.truediv),
}


def _differential_operands(rng):
    """Fractions and ints at the draw bounds, the wide bounds and far past
    them, of either sign, zero included."""
    ints = [0, 1, -1, 7, -12, 2**200, -(2**200) + 3]
    ints += [rng.randint(-1000, 1000) for _ in range(4)]
    ints += [rng.randint(-10**9, 10**9) for _ in range(4)]
    fractions = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2**200, 3),
                 Fraction(-5, 2**200 + 1)]
    fractions += [Fraction(rng.randint(-1000, 1000), rng.randint(1, 8)) for _ in range(8)]
    fractions += [Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
                  for _ in range(8)]
    return fractions, ints


def _same_fraction(got, want, context):
    assert type(got) is type(want) is Fraction, context
    assert got == want and hash(got) == hash(want), context
    n, d = got._numerator, got._denominator
    assert type(n) is int and type(d) is int, context
    assert d > 0 and math.gcd(n, d) == 1, context
    assert (n, d) == (want.numerator, want.denominator), context


@pytest.mark.parametrize("seed", range(3))
def test_helpers_match_the_stdlib_operators_on_fractions_and_ints(seed):
    fractions, ints = _differential_operands(random.Random(seed))
    pairs = [(x, y) for x in fractions for y in fractions]
    pairs += [(x, n) for x in fractions for n in ints]
    pairs += [(n, x) for x in fractions for n in ints]
    for name, (helper, plain) in HELPERS.items():
        for x, y in pairs:
            want = outcome(plain, x, y)
            got = outcome(helper, x, y)
            if isinstance(want, type):
                assert got is want, (name, x, y)
            else:
                _same_fraction(got, want, (name, x, y))


def test_helpers_give_floats_and_bools_the_plain_operator():
    values = (Fraction(1, 3), Fraction(0), 3, 0)
    others = (0.0, -0.0, 2.5, math.inf, -math.inf, math.nan, True, False)
    for name, (helper, plain) in HELPERS.items():
        for x in values:
            for y in others:
                for a, b in ((x, y), (y, x)):
                    want = outcome(plain, a, b)
                    got = outcome(helper, a, b)
                    if isinstance(want, type):
                        assert got is want, (name, a, b)
                    else:
                        assert type(got) is type(want), (name, a, b)
                        assert deep_key(got) == deep_key(want), (name, a, b)


def test_helpers_give_fraction_subclasses_the_plain_operator():
    class Tagged(Fraction):
        def _tag(self, other):
            return "plain operator"

        __add__ = __radd__ = __sub__ = __rsub__ = _tag
        __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _tag

    for name, (helper, _) in HELPERS.items():
        for other in (Fraction(2, 3), 5):
            assert helper(Tagged(1, 2), other) == "plain operator", name
            assert helper(other, Tagged(1, 2)) == "plain operator", name


def test_division_by_zero_raises_before_the_zero_dividend_shortcut():
    for x in (Fraction(0), Fraction(3, 4), 0, 5):
        with pytest.raises(ZeroDivisionError):
            scalars._div(x, Fraction(0))
    for x in (Fraction(0), Fraction(-3, 4)):
        with pytest.raises(ZeroDivisionError):
            scalars._div(x, 0)
    assert scalars._div(Fraction(0), Fraction(-2, 3)) == 0
    disc = Fraction(-7, 3)
    for x in (QuadExt(0, 0, disc), QuadExt(1, 2, disc)):
        for zero in (QuadExt(0, 0, disc), Fraction(0), 0):
            with pytest.raises(ZeroDivisionError):
                x / zero
    for x in (Jet((Fraction(0), Fraction(0))), Jet((Fraction(2), Fraction(1)))):
        for zero in (Jet((Fraction(0), Fraction(0))), Fraction(0), 0):
            with pytest.raises(ZeroDivisionError):
                x / zero
    q0 = QuadExt(0, 0, disc)
    for x in (Jet((q0, q0)), Jet((Jet((q0, q0)), Jet((q0, q0))))):
        with pytest.raises(ZeroDivisionError):
            x / x


STDLIB_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def test_lax_y_runs_its_rationals_through_the_helpers(monkeypatch):
    """A deterministic cost bound instead of a wall clock: over four lax-y
    samples at most 3,000 stdlib Fraction arithmetic calls (the kernels
    calling the operators make over 13,000), so a kernel that quietly falls
    back to the stdlib dispatch fails here."""
    configs = [verify.draw_sample(7, index) for index in range(4)]
    calls = []
    for name in STDLIB_ARITHMETIC:
        real = Fraction.__dict__[name]
        monkeypatch.setattr(
            Fraction, name, lambda a, b, real=real: calls.append(1) or real(a, b)
        )
    results = [verify._eval_lax_y_sample(config) for config in configs]
    monkeypatch.undo()
    assert all(ok for ok, _, _ in results)
    assert len(calls) <= 3000, len(calls)
