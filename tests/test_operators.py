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
    return DifferenceOperator.from_constant_bands(bands)


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
    assert compose(DifferenceOperator.identity(), b).window(-3, 3) == b.window(-3, 3)
    assert compose(b, DifferenceOperator.identity()).window(-3, 3) == b.window(-3, 3)


def test_compose_shift_squared():
    t_pair = const_op({1: 1, -1: 1})
    sq = compose(t_pair, t_pair)
    expected = const_op({2: 1, 0: 2, -2: 1})
    assert sq.window(-4, 4) == expected.window(-4, 4)


def test_compose_shift_acts_on_coefficient_argument():
    u = DifferenceOperator.diagonal(lambda n: Fraction(n))
    shifted = compose(DifferenceOperator.shift(1), u)
    # T u(n) = u(n+1) T
    for n in range(-3, 4):
        assert shifted.coeff(1, n) == n + 1
    assert shifted.lo == 1 and shifted.hi == 1


def test_commutator_basics():
    t = DifferenceOperator.shift(1)
    t_inv = DifferenceOperator.shift(-1)
    assert commutator(t, t_inv).window(-3, 3).is_zero()
    a = const_op({1: Fraction(2), -1: Fraction(5)})
    assert commutator(a, a).window(-3, 3).is_zero()


def test_commutator_with_site_diagonal():
    t = DifferenceOperator.shift(1)
    n_diag = DifferenceOperator.diagonal(lambda n: Fraction(n))
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

    l_t = DifferenceOperator.diagonal(lambda n: Fraction(n))
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
    assert DifferenceOperator.identity().apply(psi, 4) == 4
    t_pair = const_op({1: 1, -1: 1})
    assert t_pair.apply(lambda n: Fraction(3), 0) == 6
    assert DifferenceOperator.shift(2).apply(psi, 3) == 5


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
    scaled = b.scaled(Fraction(1, 2))
    assert scaled.coeff(1, 0) == 1
    assert (a @ b).coeff(1, 0) == 2


def test_empty_band_rejected():
    with pytest.raises(ValueError):
        DifferenceOperator(2, 1, lambda j, n: 0)
    with pytest.raises(ValueError):
        DifferenceOperator.from_bands({})
    with pytest.raises(ValueError):
        OperatorWindow.from_operator(DifferenceOperator.identity(), 3, 1)


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
        DifferenceOperator.identity().first_nonzero(3, 1)


def test_first_nonzero_evaluates_nothing_past_its_hit():
    calls = []

    def coeff(j, n):
        calls.append((j, n))
        return Fraction(5) if (j, n) == (0, 0) else 0

    assert DifferenceOperator(-1, 1, coeff).first_nonzero(0, 3) == (0, 0, Fraction(5))
    assert calls == [(-1, 0), (0, 0)]
