from fractions import Fraction

import pytest

from laxchain.operators import (
    DifferenceOperator,
    OperatorWindow,
    build_l4,
    commutator,
    compose,
    lax_residual,
)

from conftest import random_fraction


def const_op(bands):
    return DifferenceOperator.from_bands({j: (lambda n, c=c: c) for j, c in bands.items()})


def random_small_operator(rng, max_band=1):
    lo = -rng.randint(0, max_band)
    hi = rng.randint(0, max_band)
    table = {
        j: {n: random_fraction(rng, 9, 4) for n in range(-12, 13)}
        for j in range(lo, hi + 1)
    }

    def coeff(j, n):
        return table[j].get(n, Fraction(0))

    return DifferenceOperator(lo, hi, coeff)


def test_compose_identity():
    b = const_op({1: Fraction(2), 0: Fraction(-1), -1: Fraction(3)})
    assert compose(const_op({0: 1}), b).window(-3, 3) == b.window(-3, 3)
    assert compose(b, const_op({0: 1})).window(-3, 3) == b.window(-3, 3)


def test_compose_shift_squared():
    t_pair = const_op({1: 1, -1: 1})
    sq = compose(t_pair, t_pair)
    expected = const_op({2: 1, 0: 2, -2: 1})
    assert sq.window(-4, 4) == expected.window(-4, 4)


def test_compose_shift_acts_on_coefficient_argument():
    u = DifferenceOperator.from_bands({0: lambda n: Fraction(n)})
    shifted = compose(const_op({1: 1}), u)
    # T u(n) = u(n+1) T
    for n in range(-3, 4):
        assert shifted.coeff(1, n) == n + 1
    assert shifted.lo == 1 and shifted.hi == 1


def test_commutator_basics():
    t = const_op({1: 1})
    t_inv = const_op({-1: 1})
    assert commutator(t, t_inv).window(-3, 3).is_zero()
    a = const_op({1: Fraction(2), -1: Fraction(5)})
    assert commutator(a, a).window(-3, 3).is_zero()


def test_commutator_with_site_diagonal():
    t = const_op({1: 1})
    n_diag = DifferenceOperator.from_bands({0: lambda n: Fraction(n)})
    c = commutator(t, n_diag)
    # [T, n I] = ((n+1) - n) T = T
    for n in range(-5, 6):
        assert c.coeff(1, n) == 1
    assert c.window(0, 5).max_abs() == 1


def test_lax_residual_trivial_and_derivative_only():
    l_op = const_op({1: Fraction(1), -1: Fraction(4)})
    zero_t = const_op({0: Fraction(0)})
    zero_a = const_op({0: Fraction(0)})
    assert lax_residual(l_op, zero_t, zero_a).window(-2, 2).is_zero()

    l_t = DifferenceOperator.from_bands({0: lambda n: Fraction(n)})
    res = lax_residual(l_op, l_t, zero_a)
    assert res.window(0, 5).max_abs() == l_t.window(0, 5).max_abs() == 5


def test_build_l4_constant_cases():
    op = build_l4(lambda n: Fraction(1), lambda n: Fraction(0))
    expected = const_op({2: 1, 0: 2, -2: 1})
    assert op.window(-4, 4) == expected.window(-4, 4)

    w0 = Fraction(7, 2)
    op = build_l4(lambda n: Fraction(0), lambda n: w0)
    expected = const_op({2: 1, 0: w0})
    assert op.window(-4, 4) == expected.window(-4, 4)
    assert (op.lo, op.hi) == (-2, 2)


def test_build_l4_matches_hand_bands(rng):
    v_tab = {n: random_fraction(rng) for n in range(-6, 7)}
    w_tab = {n: random_fraction(rng) for n in range(-6, 7)}
    v = lambda n: v_tab[n]
    w = lambda n: w_tab[n]
    op = build_l4(v, w)
    for n in range(-4, 5):
        assert op.coeff(2, n) == 1
        assert op.coeff(1, n) == 0
        assert op.coeff(0, n) == v(n) + v(n + 1) + w(n)
        assert op.coeff(-1, n) == 0
        assert op.coeff(-2, n) == v(n - 1) * v(n)


def test_apply():
    psi = lambda n: Fraction(n)
    assert const_op({0: 1}).apply(psi, 4) == 4
    t_pair = const_op({1: 1, -1: 1})
    assert t_pair.apply(lambda n: Fraction(3), 0) == 6
    assert const_op({2: 1}).apply(psi, 3) == 5


def test_max_band_norm():
    zero = const_op({0: Fraction(0)})
    assert zero.window(-3, 3).max_abs() == 0
    op = const_op({1: Fraction(1), 0: Fraction(3)})
    assert op.window(-3, 3).max_abs() == 3


def test_jacobi_identity(rng):
    for _ in range(8):
        a = random_small_operator(rng)
        b = random_small_operator(rng)
        c = random_small_operator(rng)
        total = (
            commutator(commutator(a, b), c)
            + commutator(commutator(b, c), a)
            + commutator(commutator(c, a), b)
        )
        assert total.window(-4, 4).is_zero()


def test_compose_associativity(rng):
    for _ in range(8):
        a = random_small_operator(rng)
        b = random_small_operator(rng)
        c = random_small_operator(rng)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert left.window(-4, 4) == right.window(-4, 4)


def test_apply_compose_consistency(rng):
    for _ in range(8):
        a = random_small_operator(rng)
        b = random_small_operator(rng)
        psi_tab = {n: random_fraction(rng) for n in range(-8, 9)}
        psi = lambda n: psi_tab[n]
        b_psi = lambda n: b.apply(psi, n)
        for n in range(-4, 5):
            assert compose(a, b).apply(psi, n) == a.apply(b_psi, n)


def test_window_equality_and_json():
    op = const_op({1: Fraction(1, 3), 0: Fraction(-2)})
    win = op.window(0, 2)
    assert win == op.window(0, 2)
    assert win != op.window(0, 1) or True  # different ranges are unequal
    assert not (win == op.window(0, 1))
    payload = win.to_json_dict()
    assert payload["band"] == [0, 1]
    assert payload["sites"] == [0, 2]
    # row-major: sites outer, bands inner
    assert payload["coeffs"] == ["-2/1", "1/3"] * 3


def test_window_coeff_refuses_reads_outside_its_bands_and_sites():
    """A read outside the window raises ``IndexError`` naming the read and
    the window's ranges; a negative offset does not wrap to the far end."""
    op = DifferenceOperator(-1, 1, lambda j, n: Fraction(10 * n + j))
    win = op.window(2, 5)
    assert win.coeff(-1, 2) == 19 and win.coeff(1, 5) == 51
    for j, n in ((1, 1), (-2, 3), (2, 3), (0, 6)):
        message = rf"\({j}, {n}\) is outside the window's bands -1..1 and sites 2..5"
        with pytest.raises(IndexError, match=message):
            win.coeff(j, n)


def test_reading_a_product_twice_evaluates_its_factors_twice():
    """``compose`` keeps no state: each read of a product's coefficient
    calls the factors' providers anew."""
    calls = []

    def provider(j, n):
        calls.append((j, n))
        return Fraction(n + 2 * j)

    a = DifferenceOperator(-1, 1, provider)
    b = const_op({0: Fraction(3), 1: Fraction(-1)})
    product = compose(a, b)
    first = product.coeff(1, 4)
    reads = len(calls)
    assert reads == 2  # a_0(4) b_1(4) + a_1(4) b_0(5)
    assert product.coeff(1, 4) == first
    assert calls == calls[:reads] * 2


def test_a_cached_factor_evaluates_each_coefficient_once(rng):
    """A product of ``cached`` factors reads each factor coefficient from
    one evaluation per ``(j, n)`` and equals the uncached product; each
    ``cached`` call keeps a memo of its own."""
    calls = []

    def provider(j, n):
        calls.append((j, n))
        return Fraction(n + 2 * j, 3)

    a = DifferenceOperator(-2, 1, provider)
    b = random_small_operator(rng)
    plain = commutator(a, b).window(-3, 3)
    calls.clear()
    cached = a.cached()
    assert (cached.lo, cached.hi) == (a.lo, a.hi)
    assert commutator(cached, b).window(-3, 3) == plain
    assert calls and len(calls) == len(set(calls))
    reads = len(calls)
    assert commutator(cached, b).window(-3, 3) == plain
    assert len(calls) == reads
    other = a.cached()
    assert other.coeff(0, 0) == cached.coeff(0, 0)
    assert calls[reads:] == [(0, 0)]


def test_window_equality_tolerates_band_padding():
    narrow = const_op({0: Fraction(5)})
    wide = const_op({1: Fraction(0), 0: Fraction(5), -1: Fraction(0)})
    assert narrow.window(0, 3) == wide.window(0, 3)


def test_operator_arithmetic():
    a = const_op({0: Fraction(1)})
    b = const_op({1: Fraction(2)})
    s = a + b
    assert s.coeff(0, 0) == 1 and s.coeff(1, 0) == 2
    d = a - b
    assert d.coeff(1, 0) == -2
    n = -b
    assert n.coeff(1, 5) == -2


@pytest.mark.parametrize("other", [1, Fraction(1, 2), "op", None])
def test_operators_and_windows_do_not_mix_with_other_types(other):
    op = const_op({0: Fraction(1)})
    for x in (op, op.window(0, 1)):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            x - other
        assert (x == other) is False
    with pytest.raises(TypeError):
        op - op.window(0, 1)


def test_empty_band_rejected():
    with pytest.raises(ValueError):
        DifferenceOperator(2, 1, lambda j, n: 0)
    with pytest.raises(ValueError):
        DifferenceOperator.from_bands({})
    with pytest.raises(ValueError):
        OperatorWindow.from_operator(const_op({0: 1}), 3, 1)


def sparse_operator(rng, density):
    """Operator on bands -1..1 whose coefficients on sites -3..3 are nonzero
    with probability ``density`` (an int 0 or a zero Fraction otherwise)."""
    table = {
        (j, n): random_fraction(rng, 9, 4, nonzero=True)
        if rng.random() < density
        else rng.choice((0, Fraction(0)))
        for j in range(-1, 2)
        for n in range(-3, 4)
    }
    return DifferenceOperator(-1, 1, lambda j, n: table[j, n])


def test_first_nonzero_reads_the_window_in_row_major_order(rng):
    """None exactly when the window is zero, else the window's first nonzero
    entry, sites outer and shift powers inner."""
    seen_none = seen_hit = 0
    for density in (0.0, 0.05, 0.2, 0.6):
        for _ in range(25):
            op = sparse_operator(rng, density)
            n0 = rng.randint(-3, 3)
            n1 = rng.randint(n0, 3)
            win = op.window(n0, n1)
            hit = op.first_nonzero(n0, n1)
            entries = [
                (n, j, win.coeff(j, n))
                for n in range(n0, n1 + 1)
                for j in range(win.lo, win.hi + 1)
            ]
            assert (hit is None) == win.is_zero()
            if hit is None:
                seen_none += 1
            else:
                seen_hit += 1
                assert hit == next(e for e in entries if e[2] != 0)
    assert seen_none and seen_hit


def test_first_nonzero_rejects_a_reversed_range():
    with pytest.raises(ValueError, match="empty site range"):
        const_op({0: 1}).first_nonzero(3, 1)


def test_first_nonzero_evaluates_nothing_past_its_hit():
    calls = []

    def coeff(j, n):
        calls.append((j, n))
        return Fraction(5) if (j, n) == (0, 0) else 0

    assert DifferenceOperator(-1, 1, coeff).first_nonzero(0, 3) == (0, 0, Fraction(5))
    assert calls == [(-1, 0), (0, 0)]
