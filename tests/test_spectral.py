from fractions import Fraction
from math import cos

import numpy as np
import pytest

from laxchain.curves import SpectralCurve
from laxchain.errors import AnsatzError, DegreeError
from laxchain.flows import GammaChain, vn_from_gamma, wn_from_gamma
from laxchain.operators import DifferenceOperator, build_l4, commutator
from laxchain.poly import poly_eval
from laxchain.spectral import (
    CommutantAnsatz,
    PolynomialBandOperator,
    QPolynomial,
    commutant_columns,
    commutant_solve_exact,
    commutant_solve_windowed,
    commutator_polynomial_bands,
    compose_polynomial_bands,
    exact_commutator_is_zero,
    flat_operator,
    propagate_q,
    q_conserved_value,
    q_recurrence_residual,
    sharp_operator,
)

from conftest import random_chain, random_fraction
from test_poly_linalg import dense_rref

CUBIC = SpectralCurve.elliptic(0, 0, 0)


def chain_q(chain, n):
    return QPolynomial.from_gamma(chain.gamma(n))


def couplings(chain):
    gamma = list(chain.values)
    return vn_from_gamma(gamma, chain.curve), wn_from_gamma(gamma, chain.curve)


# ---------------------------------------------------------------------------
# Conserved value and the linear recurrence
# ---------------------------------------------------------------------------

def test_conserved_value_frozen_case():
    chain = GammaChain((1, 2, 3, 4), CUBIC)
    v, w = couplings(chain)
    z = Fraction(5)
    for n in range(4):
        val = q_conserved_value(
            chain_q(chain, n - 1),
            chain_q(chain, n),
            chain_q(chain, n + 1),
            chain_q(chain, n + 2),
            v[n % 4],
            v[(n + 1) % 4],
            w[n % 4],
            z,
        )
        assert val == 125  # F(5) = 5^3, independent of n


def test_conserved_value_random_chains(rng):
    for _ in range(10):
        chain = random_chain(rng)
        v, w = couplings(chain)
        z = random_fraction(rng)
        expected = chain.curve.eval(z)
        for n in range(chain.period):
            val = q_conserved_value(
                chain_q(chain, n - 1),
                chain_q(chain, n),
                chain_q(chain, n + 1),
                chain_q(chain, n + 2),
                v[n % 4],
                v[(n + 1) % 4],
                w[n % 4],
                z,
            )
            assert val == expected


def test_conserved_value_zero_couplings_structure():
    # with V = 0 the expression collapses to Q_n Q_{n+1} (z - W_n)
    q0 = QPolynomial(1, (Fraction(-2),))
    q1 = QPolynomial(1, (Fraction(-3),))
    z = Fraction(7)
    w0 = Fraction(5)
    val = q_conserved_value(q0, q0, q1, q1, Fraction(0), Fraction(0), w0, z)
    assert val == q0.eval(z) * q1.eval(z) * (z - w0)


def test_recurrence_residual_zero_on_reduction(rng):
    for _ in range(8):
        chain = random_chain(rng)
        v, w = couplings(chain)
        for n in range(chain.period):
            res = q_recurrence_residual(
                chain_q(chain, n - 1),
                chain_q(chain, n),
                chain_q(chain, n + 2),
                chain_q(chain, n + 3),
                v[n % 4],
                v[(n + 1) % 4],
                v[(n + 2) % 4],
                w[n % 4],
                w[(n + 1) % 4],
            )
            assert all(c == 0 for c in res)


def test_recurrence_residual_telescoping_equal_data():
    q = QPolynomial(1, (Fraction(-2),))
    res = q_recurrence_residual(
        q, q, q, q, Fraction(3), Fraction(3), Fraction(3), Fraction(1), Fraction(1)
    )
    assert all(c == 0 for c in res)


def test_recurrence_residual_detects_perturbation(rng):
    chain = random_chain(rng)
    v, w = couplings(chain)
    q3 = QPolynomial(1, (chain_q(chain, 3).alphas[0] + 1,))
    res = q_recurrence_residual(
        chain_q(chain, -1),
        chain_q(chain, 0),
        chain_q(chain, 2),
        q3,
        v[0],
        v[1],
        v[2],
        w[0],
        w[1],
    )
    assert any(c != 0 for c in res)


def test_recurrence_from_conserved_difference(rng):
    """Structural identity: the difference of consecutive conserved values
    factors as Q_{n+1} times the linear recurrence, for arbitrary data."""
    for _ in range(8):
        qs = [QPolynomial(1, (random_fraction(rng),)) for _ in range(5)]
        vs = [random_fraction(rng) for _ in range(3)]
        ws = [random_fraction(rng) for _ in range(2)]
        res_poly = q_recurrence_residual(
            qs[0], qs[1], qs[3], qs[4], vs[0], vs[1], vs[2], ws[0], ws[1]
        )
        for z in (Fraction(0), Fraction(1), Fraction(-2), Fraction(5, 3)):
            lhs = q_conserved_value(
                qs[0], qs[1], qs[2], qs[3], vs[0], vs[1], ws[0], z
            ) - q_conserved_value(
                qs[1], qs[2], qs[3], qs[4], vs[1], vs[2], ws[1], z
            )
            assert lhs == qs[2].eval(z) * poly_eval(res_poly, z)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def test_propagate_recovers_chain(rng):
    for _ in range(8):
        chain = random_chain(rng)
        v, w = couplings(chain)
        if v[2] == 0:
            continue
        out = propagate_q(
            chain_q(chain, -1),
            chain_q(chain, 0),
            chain_q(chain, 2),
            v[0],
            v[1],
            v[2],
            w[0],
            w[1],
        )
        assert out == chain_q(chain, 3)
        # propagation preserves the conserved curve: the value at the next
        # site, built with the propagated polynomial, is still F(z)
        z = random_fraction(rng)
        val = q_conserved_value(
            chain_q(chain, 0), chain_q(chain, 1), chain_q(chain, 2), out,
            v[1], v[2], w[1], z,
        )
        assert val == chain.curve.eval(z)


def test_propagate_constant_continuation():
    q = QPolynomial(1, (Fraction(-2),))
    out = propagate_q(
        q, q, q, Fraction(3), Fraction(3), Fraction(3), Fraction(1), Fraction(1)
    )
    assert out == q


def test_q_polynomial_validation():
    with pytest.raises(ValueError, match="genus must be positive"):
        QPolynomial(0, ())
    with pytest.raises(ValueError, match="genus 2 needs 2 free coefficients, got 1"):
        QPolynomial(2, (Fraction(1),))


def test_propagate_refuses_seeds_whose_leading_powers_do_not_cancel():
    """A genus-2 seed among genus-1 ones leaves a z^3 term nothing cancels."""
    q = QPolynomial(1, (Fraction(-2),))
    with pytest.raises(DegreeError, match="leading powers do not cancel"):
        propagate_q(
            q, q, QPolynomial(2, (Fraction(0), Fraction(0))),
            Fraction(1), Fraction(2), Fraction(3), Fraction(4), Fraction(7),
        )


def test_propagate_errors():
    q = QPolynomial(1, (Fraction(-2),))
    with pytest.raises(ZeroDivisionError):
        propagate_q(q, q, q, Fraction(1), Fraction(1), Fraction(0), Fraction(1), Fraction(1))
    # inconsistent seeds: mismatched couplings make the solved leading term != 1
    with pytest.raises(DegreeError):
        propagate_q(
            q,
            q,
            QPolynomial(1, (Fraction(5),)),
            Fraction(1),
            Fraction(2),
            Fraction(3),
            Fraction(4),
            Fraction(7),
        )


# ---------------------------------------------------------------------------
# Explicit families
# ---------------------------------------------------------------------------

def test_sharp_operator_band_table():
    op = sharp_operator((0, 0, 0, 1))
    # diagonal: n^3 + (n+1)^3 + 2n ; lower band: (n-1)^3 n^3
    expected_diag = {0: 1, 1: 11, 2: 39, 3: 97}
    expected_low = {0: 0, 1: 0, 2: 8, 3: 216}
    for n in range(4):
        assert op.operator.coeff(0, n) == expected_diag[n]
        assert op.operator.coeff(-2, n) == expected_low[n]
        assert op.operator.coeff(2, n) == 1
        assert op.operator.coeff(1, n) == 0


def test_sharp_polynomial_bands_match_operator():
    r = (2, -1, 3, 5)
    op = sharp_operator(r, genus=2)
    # reference: the provider route, composing the factor with build_l4
    p = tuple(Fraction(c) for c in r)
    diag = (Fraction(0), Fraction(2 * 3) * p[3])
    ref = build_l4(lambda n: poly_eval(p, n), lambda n: poly_eval(diag, n))
    for n in range(-5, 6):
        for j in range(-2, 3):
            assert op.coeff(j, n) == ref.band_coeff(j, n)
            assert op.operator.band_coeff(j, n) == ref.band_coeff(j, n)
    assert op.operator.window(-5, 5) == ref.window(-5, 5)


@pytest.mark.parametrize("r", [(0, 0, 0, 1), (3, -2, 5, 4)])
def test_band_commutator_norm_matches_provider_route(r):
    """The sharp report's residual norm, taken from the exact band
    commutator, equals the norm of the provider-form commutator on the same
    window; X = n^2 T + T^-3 does not commute with L, so the norms are
    nonzero, and the found partners give 0.0 both ways."""
    op = sharp_operator(r)
    x_bad = PolynomialBandOperator(
        {1: (Fraction(0), Fraction(0), Fraction(1)), -3: (Fraction(1),)}
    )
    found = commutant_solve_exact(op, CommutantAnsatz(3, 9))
    norms = []
    for x in (x_bad,) + found.basis:
        band_route = PolynomialBandOperator(
            commutator_polynomial_bands(op.bands, x.bands)
        ).operator.window(0, 7).max_abs()
        provider_route = commutator(op.operator, x.operator).window(0, 7).max_abs()
        assert band_route == provider_route
        assert float(band_route) == float(provider_route)
        norms.append(float(band_route))
    assert norms[0] > 0
    assert norms[1:] == [0.0] * found.dimension


def test_sharp_side_condition():
    with pytest.raises(AnsatzError, match="requires r3 != 0"):
        sharp_operator((1, 0, 0, 0))
    with pytest.raises(AnsatzError, match=r"needs r = \(r0, r1, r2, r3\)"):
        sharp_operator((1, 0))
    with pytest.raises(AnsatzError, match="genus must be positive"):
        sharp_operator((0, 0, 0, 1), genus=0)


def test_flat_operator_bands():
    op = flat_operator((0, 1))
    for n in range(-3, 4):
        assert op.coeff(-2, n) == pytest.approx(cos(n - 1) * cos(n))
        assert op.coeff(2, n) == 1
    with pytest.raises(AnsatzError, match="requires r1 != 0"):
        flat_operator((1, 0))
    with pytest.raises(AnsatzError, match=r"needs r = \(r0, r1\)"):
        flat_operator((0, 1, 2))


# ---------------------------------------------------------------------------
# Exact commutant search
# ---------------------------------------------------------------------------

def reference_columns(l_bands, ansatz):
    """Commutant system columns from the general band commutator, one
    monomial ``n^d T^j`` at a time."""
    columns = []
    for j in range(-ansatz.band_m, ansatz.band_m + 1):
        for d in range(ansatz.degree + 1):
            mono = (Fraction(0),) * d + (Fraction(1),)
            comm = commutator_polynomial_bands(l_bands, {j: mono})
            columns.append({
                (k, e): c for k, p in comm.items() for e, c in enumerate(p) if c != 0
            })
    return columns


def random_bands(rng, lo, hi, max_degree, max_num, max_den):
    bands = {}
    for j in range(lo, hi + 1):
        if rng.random() < 0.8:
            degree = rng.randint(0, max_degree)
            bands[j] = tuple(random_fraction(rng, max_num, max_den) for _ in range(degree + 1))
    return bands


def test_commutant_columns_match_band_commutator(rng):
    cases = [
        (sharp_operator(r).bands, CommutantAnsatz(3, 9))
        for r in ((0, 0, 0, 1), (3, -2, 5, 4), (912673, -403518, 785021, -640297))
    ]
    cases.append(({1: (Fraction(1),), -1: (Fraction(0), Fraction(1))}, CommutantAnsatz(2, 3)))
    cases.append(({0: (Fraction(7),)}, CommutantAnsatz(0, 0)))
    for max_num, max_den in ((50, 8), (10**9, 10**6)):
        for _ in range(4):
            lo = rng.randint(-3, 1)
            bands = random_bands(rng, lo, lo + rng.randint(0, 4), 4, max_num, max_den)
            cases.append((bands, CommutantAnsatz(rng.randint(0, 3), rng.randint(0, 5))))
    for l_bands, ansatz in cases:
        columns = commutant_columns(l_bands, ansatz)
        assert len(columns) == ansatz.unknowns
        assert columns == reference_columns(l_bands, ansatz)


def test_commutant_shift_pair_dimension_three():
    """Brute-force oracle: for L = T + T^-1 every constant-coefficient band
    commutes ([L, T] = [L, T^-1] = [L, I] = 0), so at band 1 / degree 0 the
    solution space is exactly span{I, T, T^-1} -- dimension 3, containing
    both the identity and L itself."""
    tt = {1: (Fraction(1),), -1: (Fraction(1),)}
    res = commutant_solve_exact(PolynomialBandOperator(tt), CommutantAnsatz(1, 0))
    assert res.dimension == 3
    assert res.spans({0: (Fraction(1),)})  # identity
    assert res.spans(tt)  # L itself
    for sol in res.basis:
        assert all(
            c == 0 for p in commutator_polynomial_bands(tt, sol.bands).values() for c in p
        )


def test_commutant_contains_identity_and_l(rng):
    op = sharp_operator((0, 0, 0, 1))
    res = commutant_solve_exact(op, CommutantAnsatz(2, 6))
    assert res.dimension == 2  # exactly span{I, L} at band 2
    assert res.spans({0: (Fraction(1),)})
    assert res.spans(op.bands)


def test_commutant_spans_rejects_non_members():
    op = sharp_operator((0, 0, 0, 1))
    res = commutant_solve_exact(op, CommutantAnsatz(2, 6))
    # bands the ansatz allows but span{I, L} lacks
    assert not res.spans({1: (Fraction(1),)})
    assert not res.spans({2: (Fraction(1),)})
    assert not res.spans({0: (Fraction(0), Fraction(1))})
    assert not res.spans({**op.bands, 1: (Fraction(1),)})
    assert res.spans({j: tuple(3 * c for c in p) for j, p in op.bands.items()})
    assert res.spans({})
    # outside the ansatz altogether
    assert not res.spans({3: (Fraction(1),)})

    tt = {1: (Fraction(1),), -1: (Fraction(1),)}
    res = commutant_solve_exact(PolynomialBandOperator(tt), CommutantAnsatz(1, 1))
    assert res.spans({1: (Fraction(2),), 0: (Fraction(-1),)})
    assert not res.spans({0: (Fraction(0), Fraction(1))})  # [L, n] != 0


def test_commutant_sharp_band3_partner():
    op = sharp_operator((0, 0, 0, 1))
    res = commutant_solve_exact(op, CommutantAnsatz(3, 9))
    # strictly larger than span{I, L} truncated to the band
    assert res.dimension == 3
    for sol in res.basis:
        assert exact_commutator_is_zero(op, sol)
    # a genuine band-3 element exists
    assert any(3 in sol.bands or -3 in sol.bands for sol in res.basis)


def test_commutant_sharp_minimal_degree_schedule():
    op = sharp_operator((0, 0, 0, 1))
    dims = {
        d: commutant_solve_exact(op, CommutantAnsatz(3, d)).dimension
        for d in (5, 6, 8, 9)
    }
    assert dims[5] == 1  # identity only
    assert dims[6] == 2  # identity and L
    assert dims[8] == 2
    assert dims[9] == 3  # the band-3 partner appears


def test_commutant_verification_on_disjoint_window():
    op = sharp_operator((0, 0, 0, 1))
    res = commutant_solve_exact(op, CommutantAnsatz(3, 9))
    for sol in res.basis:
        comm = commutator_polynomial_bands(op.bands, sol.bands)
        for k, p in comm.items():
            for n in range(50, 61):
                assert poly_eval(p, Fraction(n)) == 0


def test_commutant_errors():
    tt = {1: (Fraction(1),), -1: (Fraction(1),)}
    with pytest.raises(AnsatzError):
        CommutantAnsatz(-1, 0)
    with pytest.raises(AnsatzError):
        commutant_solve_exact(DifferenceOperator.from_bands({0: lambda n: 1}), CommutantAnsatz(1, 1))
    with pytest.raises(AnsatzError):
        commutant_solve_exact(tt, CommutantAnsatz(1, 1))  # bands, not an operator


def band_vector(bands, ansatz):
    """The ansatz coordinates ``(band, degree)`` of a band table."""
    return [
        Fraction(bands[j][d]) if j in bands and d < len(bands[j]) else Fraction(0)
        for j in range(-ansatz.band_m, ansatz.band_m + 1)
        for d in range(ansatz.degree + 1)
    ]


def reference_commutant(l_bands, ansatz):
    """Commutant basis vectors from the Fraction columns of the unscaled
    bands, reduced by the dense reference elimination."""
    columns = commutant_columns(l_bands, ansatz)
    keys = sorted({key for entries in columns for key in entries})
    matrix = [[entries.get(key, Fraction(0)) for entries in columns] for key in keys]
    rows, pivots = dense_rref(matrix)
    basis = []
    for fc in (c for c in range(ansatz.unknowns) if c not in pivots):
        v = [Fraction(0)] * ansatz.unknowns
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


RATIONAL_OPERATORS = {
    "sharp": (
        sharp_operator((Fraction(-7, 3), Fraction(5, 11), Fraction(1, 10), Fraction(-13, 17))),
        CommutantAnsatz(3, 9),
    ),
    "sharp-genus2": (
        sharp_operator((Fraction(1, 2), 3, Fraction(-4, 5), 2), genus=2),
        CommutantAnsatz(3, 9),
    ),
    "custom": (
        PolynomialBandOperator({
            1: (Fraction(1, 3),),
            0: (Fraction(2, 9), Fraction(1), Fraction(-5, 4)),
            -1: (Fraction(0), Fraction(5, 7)),
        }),
        CommutantAnsatz(2, 4),
    ),
}


@pytest.mark.parametrize("name", list(RATIONAL_OPERATORS))
def test_exact_commutant_of_rational_operators(name):
    """Band tables with denominators: the solve (on integer bands) gives the
    basis that the Fraction system of the unscaled bands gives, the exact
    check passes every basis element, and it fails once a coefficient is
    bumped by 1/7 (negative control)."""
    op, ansatz = RATIONAL_OPERATORS[name]
    res = commutant_solve_exact(op, ansatz)
    assert res.dimension >= 2  # at least the identity and L itself
    assert [band_vector(sol.bands, ansatz) for sol in res.basis] == (
        reference_commutant(op.bands, ansatz)
    )
    for sol in res.basis:
        assert exact_commutator_is_zero(op, sol)
        # [L, n] = sum_i i L_i T^i is nonzero, so bumping the n T^0
        # coefficient by 1/7 breaks every basis element
        p = list(sol.bands.get(0, ())) + [Fraction(0)] * 2
        p[1] += Fraction(1, 7)
        bumped = PolynomialBandOperator({**sol.bands, 0: tuple(p)})
        assert not exact_commutator_is_zero(op, bumped)


def test_exact_commutant_fraction_cost_guard(monkeypatch):
    """The sharp band-3/degree-9 solve and its three exact checks run on
    ints: at most 1,000 Fraction arithmetic calls in all (a Fraction
    elimination makes over 15,000)."""
    op = sharp_operator((3, -2, 5, 4))
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        real = Fraction.__dict__[name]
        monkeypatch.setattr(
            Fraction, name, lambda a, b, real=real: calls.append(1) or real(a, b)
        )
    res = commutant_solve_exact(op, CommutantAnsatz(3, 9))
    assert [exact_commutator_is_zero(op, sol) for sol in res.basis] == [True] * 3
    monkeypatch.undo()
    assert len(calls) <= 1000


def test_polynomial_band_compose_matches_operator_compose(rng):
    a = {1: (Fraction(1),), -1: (Fraction(0), Fraction(1))}  # T + n T^-1
    b = {0: (Fraction(2), Fraction(0), Fraction(1))}  # (2 + n^2) I
    ab = compose_polynomial_bands(a, b)
    op_a = PolynomialBandOperator(a).operator
    op_b = PolynomialBandOperator(b).operator
    from laxchain.operators import compose

    op_ab = compose(op_a, op_b)
    for j, p in ab.items():
        for n in range(-4, 5):
            assert poly_eval(p, Fraction(n)) == op_ab.band_coeff(j, n)


# ---------------------------------------------------------------------------
# Windowed numeric commutant
# ---------------------------------------------------------------------------

def reference_windowed_system(l_op, band_m, n0, n1):
    """The windowed commutant matrix and its ``(band, site)`` column index,
    assembled site by site as a reference: for each band k and site n, the
    row is kept when every site it needs lies in the window and some term
    of [L, X]_k(n) hits it."""
    sites = list(range(n0, n1 + 1))
    col_index = {}
    for j in range(-band_m, band_m + 1):
        for n in sites:
            col_index[(j, n)] = len(col_index)
    rows = []
    for k in range(l_op.lo - band_m, l_op.hi + band_m + 1):
        for n in sites:
            needed = [n]
            lx_terms = []
            for j in range(l_op.lo, l_op.hi + 1):
                i = k - j
                if -band_m <= i <= band_m:
                    needed.append(n + j)
                    lx_terms.append((j, i))
            if any(m < n0 or m > n1 for m in needed):
                continue
            row = np.zeros(len(col_index))
            hit = False
            for j, i in lx_terms:
                row[col_index[(i, n + j)]] += float(l_op.coeff(j, n))
                hit = True
            for j2 in range(-band_m, band_m + 1):
                i = k - j2
                if l_op.lo <= i <= l_op.hi:
                    row[col_index[(j2, n)]] -= float(l_op.coeff(i, n + j2))
                    hit = True
            if hit:
                rows.append(row)
    return np.array(rows), col_index


def _random_band_operator(seed):
    rng = np.random.default_rng(seed)
    vals = {j: rng.uniform(0.5, 2.0, size=200) for j in (-1, 0, 1)}
    return DifferenceOperator.from_bands(
        {j: (lambda n, jj=j: vals[jj][n % 200]) for j in (-1, 0, 1)}
    )


WINDOWED_CASES = {
    "flat": (lambda: flat_operator((0, 1)), 3, 0, 40),
    "random": (lambda: _random_band_operator(3), 1, 0, 39),
    "shift-pair": (
        lambda: DifferenceOperator.from_bands({1: lambda n: 1.0, -1: lambda n: 1.0}),
        1,
        0,
        39,
    ),
    "zero": (lambda: DifferenceOperator.from_bands({0: lambda n: 0.0}), 1, 0, 9),
}


@pytest.mark.parametrize("case", sorted(WINDOWED_CASES))
def test_windowed_system_equals_the_reference_assembly(monkeypatch, case):
    """The matrix handed to the SVD equals the site-by-site reference in
    shape, row order and every entry."""
    make, band_m, n0, n1 = WINDOWED_CASES[case]
    op = make()
    seen = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        seen.append(np.array(a, copy=True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    commutant_solve_windowed(op, band_m, n0, n1)
    expected, _ = reference_windowed_system(op, band_m, n0, n1)
    assert len(seen) == 1
    assert seen[0].shape == expected.shape
    assert np.array_equal(seen[0], expected)


def test_windowed_shift_pair():
    tt = DifferenceOperator.from_bands({1: lambda n: 1.0, -1: lambda n: 1.0})
    res = commutant_solve_windowed(tt, 1, 0, 39)
    assert res.nullity >= 2  # contains I and L (in fact 3: T and T^-1 separately)
    assert res.nullity == 3
    assert res.gap > 1e10
    assert res.residual < 1e-10


def test_windowed_flat_family_detects_partner():
    op = flat_operator((0, 1))
    res = commutant_solve_windowed(op, 3, 0, 39)
    # trivial polynomial-in-L count at band 3 is 2 ({I, L}); both families have
    # even bands only, so the parity twist doubles everything; the partner
    # plus its twist lifts the count to 6
    assert res.nullity > 2
    assert res.nullity == 6
    assert res.gap >= 1e6


def test_windowed_random_operator_trivial_commutant():
    rng = np.random.default_rng(3)
    vals = {j: rng.uniform(0.5, 2.0, size=200) for j in (-1, 0, 1)}
    op = DifferenceOperator.from_bands(
        {j: (lambda n, jj=j: vals[jj][n % 200]) for j in (-1, 0, 1)}
    )
    res = commutant_solve_windowed(op, 1, 0, 39)
    assert res.nullity == 2  # exactly span{I, L}


def test_windowed_ill_posed_window():
    tt = DifferenceOperator.from_bands({1: lambda n: 1.0, -1: lambda n: 1.0})
    with pytest.raises(AnsatzError):
        commutant_solve_windowed(tt, 3, 0, 3)
    with pytest.raises(AnsatzError, match="band_m = -1"):
        commutant_solve_windowed(tt, -1, 0, 40)
    with pytest.raises(AnsatzError, match="window 40,0"):
        commutant_solve_windowed(tt, 1, 40, 0)


def test_windowed_zero_operator_has_no_gap():
    """Every singular value of the zero operator's system is 0, so none is
    kept: every X commutes with 0, the nullity is the full unknown count
    (3 bands x 10 sites), and with no kept value the gap reads inf."""
    zero = DifferenceOperator.from_bands({0: lambda n: 0.0})
    res = commutant_solve_windowed(zero, 1, 0, 9)
    assert res.singular_max == 0.0
    assert res.nullity == 30
    assert res.gap == float("inf")
    assert res.residual == 0.0


def test_flat_window_reports_in_floats():
    """The flat family's window holds floats in its T^-2, T^-1 and T^0 bands,
    beside the int T^1 and T^2 bands of ``build_l4``: its magnitude and JSON
    take the float branches of ``scalar_abs`` and ``format_scalar``."""
    win = flat_operator((0, 3)).window(0, 1)
    assert [type(c) for c in win.rows[0]] == [float, float, float, int, int]
    assert win.max_abs() == (3 * cos(0)) * (3 * cos(-1))  # V_0 V_{-1}, T^-2 at site 0
    assert isinstance(win.max_abs(), float)
    coeffs = win.to_json_dict()["coeffs"]
    assert coeffs == [repr(c) for c in win.rows[0][:3]] + ["0/1", "1/1"] + [
        repr(c) for c in win.rows[1][:3]
    ] + ["0/1", "1/1"]


def test_windowed_report_serializes():
    tt = DifferenceOperator.from_bands({1: lambda n: 1.0, -1: lambda n: 1.0})
    res = commutant_solve_windowed(tt, 1, 0, 29)
    payload = res.to_json_dict()
    assert payload["window"] == [0, 29]
    assert payload["nullity"] == res.nullity
    assert "1" in payload["representative"]


def test_windowed_system_agrees_with_exact_partner():
    """Independent cross-validation of the windowed matrix assembly: the
    exactly-solved band-3 partner of the cubic family, restricted to a
    window, must be (near-)null for the windowed system built from the same
    operator in floats; a perturbed copy must not."""
    op = sharp_operator((0, 0, 0, 1))
    found = commutant_solve_exact(op, CommutantAnsatz(3, 9))
    partner = next(s for s in found.basis if 3 in s.bands or -3 in s.bands)

    n0, n1 = 2, 21
    a, col_index = reference_windowed_system(op.operator, 3, n0, n1)
    vec = np.zeros(len(col_index))
    for (j, n), idx in col_index.items():
        vec[idx] = float(partner.coeff(j, n))
    scale = np.max(np.abs(vec))
    assert np.max(np.abs(a @ vec)) / scale < 1e-9

    bad = vec.copy()
    bad[col_index[(0, n0 + 5)]] += scale
    assert np.max(np.abs(a @ bad)) / scale > 1.0
