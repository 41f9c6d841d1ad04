import random
import re
from collections import Counter
from dataclasses import astuple, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxchain import darboux, verify
from laxchain.curves import SpectralCurve
from laxchain.darboux import (
    ChainSolution,
    DarbouxData,
    SolutionConstants,
    chain_problem,
    chain_residuals,
    commutator_x_check,
    commutator_y_check,
    commutator_y_residual,
    crosscheck_window,
    darboux_data,
    eigenfunction_step,
    factorization_check,
    lax_operator,
    point_problem,
    rank2_solution,
    solve_tail_constants,
    transformed_operator,
)
from laxchain.elliptic import exact_wp_jet
from laxchain.errors import DegenerateConfigurationError, PoleError
from laxchain.flows import (
    GammaChain,
    dkn_rhs,
    prolong_gamma_jets,
    vn_from_gamma,
    wn_from_gamma,
)
from laxchain.operators import DifferenceOperator, build_l4, compose, lax_residual
from laxchain.scalars import Jet, QuadExt, Series, format_scalar
from laxchain.verify import draw_sample

from conftest import random_chain, random_point_off_chain

CURVE = SpectralCurve.elliptic(Fraction(1, 3), Fraction(-2), Fraction(5, 7))
CHAIN = GammaChain((Fraction(1), Fraction(2), Fraction(3), Fraction(5)), CURVE)


def _val(s):
    return s.coeffs[0].coeffs[0]


def _dx(s):
    return s.coeffs[1].coeffs[0]


def _dy(s):
    return s.coeffs[0].coeffs[1]


def exact_data(chain=CHAIN, z0=Fraction(9, 2), sign=1, order=3):
    jets = prolong_gamma_jets(chain, order)
    wp = exact_wp_jet(chain.curve, z0, order=3, sign=sign)
    return darboux_data(jets, wp)


def sample_data(rng, sign=1):
    chain = random_chain(rng)
    z0 = random_point_off_chain(rng, chain)
    jets = prolong_gamma_jets(chain, 3)
    wp = exact_wp_jet(chain.curve, z0, order=3, sign=sign)
    return chain, darboux_data(jets, wp)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_data_orders_and_truncation():
    data = exact_data()
    assert (data.x_order, data.y_order) == (2, 2)
    cut = data.truncated(1, 0)
    assert (cut.x_order, cut.y_order) == (1, 0)
    # an order-0 variable has no jet layer: gamma is an x-jet over the base
    assert cut.gamma_at(0).coeffs == tuple(c.coeffs[0] for c in data.gamma_at(0).coeffs[:2])


def test_truncation_refuses_higher_orders():
    cut = exact_data().truncated(1, 1)
    for x_order, y_order in ((3, 1), (2, 1), (1, 2)):
        with pytest.raises(ValueError, match="cannot extend"):
            cut.truncated(x_order, y_order)


@pytest.mark.parametrize("orders", [(-1, 0), (0, -1), (-1, -1), (1, -2)])
def test_truncation_refuses_negative_orders_before_storing_a_copy(orders):
    """A negative order raises ``ValueError`` naming the orders at the
    call, on a configuration and on a solution, and no copy is kept."""
    data = exact_data().truncated(1, 1)
    sol = rank2_solution(data)
    kept = dict(data._copies)  # the copies shared with the parent: (1, 1) itself
    pattern = re.escape(f"cannot cut orders (1, 1) to {orders}")
    with pytest.raises(ValueError, match=pattern):
        data.truncated(*orders)
    with pytest.raises(ValueError, match=pattern):
        sol.truncated(*orders)
    assert data._copies == kept and sol._copies == {}
    assert sol.truncated(0, 1).data is data.truncated(0, 1)


def test_configurations_on_one_chain_share_its_couplings(count_calls):
    """The x-order-0 couplings are evaluated once for every configuration
    built on one chain object: a second point, a lower copy and a
    ``replace`` with another point read the first evaluation."""
    evaluated = count_calls(darboux, "vn_from_gamma", "wn_from_gamma")
    jets = prolong_gamma_jets(CHAIN, 3)
    first = darboux_data(jets, exact_wp_jet(CURVE, Fraction(9, 2), order=3))
    second = darboux_data(jets, exact_wp_jet(CURVE, Fraction(-7, 2), order=2))
    moved = replace(first, point=exact_wp_jet(CURVE, Fraction(13, 3), order=3))
    assert first.jets is jets and second.jets is jets and moved.jets is jets
    views = [first.truncated(0, 0), first.truncated(0, 2),
             second.truncated(0, 1), moved.truncated(0, 0)]
    for view in views:
        view.v_at(0), view.w_site(0)
    assert evaluated == {"vn_from_gamma": 1, "wn_from_gamma": 1}
    fresh = exact_data(CHAIN, Fraction(-7, 2), order=3).truncated(0, 1)
    assert views[2]._v == fresh._v and repr(views[2]._v) == repr(fresh._v)
    assert len({id(view._site_cache) for view in views}) == len(views)


def test_a_configuration_given_another_chain_reads_its_own_couplings():
    """``replace(data, chain=...)`` leaves the first chain's memo behind:
    its couplings are those of the chain it holds."""
    data = exact_data().truncated(0, 1)
    data.v_at(0)
    other = prolong_gamma_jets(GammaChain((2, 3, 5, 11), CURVE), 3)
    moved = replace(data, chain=other.values)
    assert moved.jets is not data.jets and moved.jets.values == other.values
    fresh = darboux_data(other, data.point).truncated(0, 1)
    assert moved._v == fresh._v and moved._v != data._v
    recurved = replace(data, curve=SpectralCurve.elliptic(0, -1, 0))
    assert recurved.jets is not data.jets and recurved.jets.curve == recurved.curve


def _leaves(x):
    if isinstance(x, Jet):
        for c in x.coeffs:
            yield from _leaves(c)
    elif isinstance(x, QuadExt):
        yield from _leaves(x.a)
        yield from _leaves(x.b)
    else:
        yield x


def _old_embed(base):
    """How chain values entered the point's field before they were lifted
    as ``zero + c``: the reference for the lift's values and types."""
    if isinstance(base, QuadExt):
        zero = base.a * 0
        return lambda c: QuadExt(c, zero, base.disc)
    return lambda c: c


def _same_leaf(a, b):
    return type(a) is type(b) and a == b


def _assert_lift_matches_old_embed(chain, wp):
    """gamma, gamma', z0, w and the x-padding hold the leaves the old
    per-type embedding gave, equal in value and type."""
    jets = prolong_gamma_jets(chain, 3)
    data = darboux_data(jets, wp)
    base = wp.coeffs[0]
    embed = _old_embed(base)
    field = base.a if isinstance(base, QuadExt) else base
    pad = (Jet.constant(embed(field * 0), 2),) * 2

    def site_jets(coeffs, offset):
        return Jet(tuple(Jet.constant(embed(coeffs[i + offset]), 2) for i in range(3)))

    expected = (
        tuple(site_jets(j.coeffs, 0) for j in jets.values)
        + tuple(site_jets(j.coeffs, 1) for j in jets.values)
        + (Jet((Jet(wp.coeffs[:3]),) + pad), Jet((Jet(wp.coeffs[1:4]),) + pad))
    )
    got = data.gamma + data.dgamma + (data.z0, data.w)
    for g, e in zip(got, expected, strict=True):
        assert all(_same_leaf(a, b) for a, b in zip(_leaves(g), _leaves(e), strict=True))


def test_rational_curve_point_stays_exact():
    """A curve-point jet over Q (w**2 = z**3 + 1 at (2, 3)) gives an exact
    configuration: the x-padding of z0 and w holds Fraction zeros, not 0.0,
    so the three identities read exactly zero.  Over Q and over Q(w) the
    chain values and the padding enter the point's field as the old
    per-type embedding put them."""
    curve = SpectralCurve.elliptic(0, 0, 1)
    chain = GammaChain((0, 1, 3, 5), curve)
    wp = Jet(tuple(Fraction(c) for c in (2, 3, 6, 18)))
    data = darboux_data(prolong_gamma_jets(chain, 3), wp)
    scalars = data.gamma + data.dgamma + (data.z0, data.w)
    assert all(type(leaf) is Fraction for s in scalars for leaf in _leaves(s))
    assert commutator_x_check(data).is_zero()
    assert factorization_check(data.truncated(0, 0)).is_zero()
    assert commutator_y_check(data, solve_tail_constants(chain)).is_zero()
    _assert_lift_matches_old_embed(chain, wp)
    _assert_lift_matches_old_embed(CHAIN, exact_wp_jet(CURVE, Fraction(9, 2), order=3))


def test_branch_point_chain_names_the_site():
    curve = SpectralCurve.elliptic(0, -1, 0)  # roots 0, 1, -1
    chain = GammaChain((Fraction(5, 2), Fraction(3), Fraction(-1), Fraction(9, 2)), curve)
    wp = exact_wp_jet(curve, Fraction(5), order=3)
    with pytest.raises(PoleError, match="gamma at site 2 is a branch point"):
        darboux_data(prolong_gamma_jets(chain, 2), wp)


def test_jet_orders_below_each_check_are_refused():
    wp = exact_wp_jet(CURVE, Fraction(9, 2), order=3)
    order0 = GammaChain(tuple(Jet((g,)) for g in CHAIN.values), CURVE)
    with pytest.raises(ValueError, match="gamma jets must carry at least one derivative"):
        darboux_data(order0, wp)
    with pytest.raises(ValueError, match="curve-point jet must carry at least one derivative"):
        darboux_data(prolong_gamma_jets(CHAIN, 2), Jet(wp.coeffs[:1]))
    data = exact_data()
    for orders in ((1, 0), (0, 1), (0, 0)):
        with pytest.raises(ValueError, match=r"chain residuals need jet orders >= \(1, 1\)"):
            chain_residuals(rank2_solution(data.truncated(*orders)), 0)
    with pytest.raises(ValueError, match="x-commutator check needs x-jet order >= 1"):
        commutator_x_check(data.truncated(0, 2))
    with pytest.raises(ValueError, match="y-commutator check needs y-jet order >= 1"):
        commutator_y_residual(data.truncated(2, 0))


@pytest.mark.parametrize("site", [1, 3])
def test_equal_second_neighbours_make_b_vanish(site):
    """gamma_{n-1} = gamma_{n+1} stops gamma_n (gamma_n' = 0), and b_n with it."""
    data = exact_data(GammaChain((1, 2, 1, 3), CURVE))
    with pytest.raises(PoleError, match=f"^b vanishes at site {site}$"):
        chain_residuals(rank2_solution(data), site)


FLOAT_CURVE = SpectralCurve.elliptic(0.0, -1.0, 0.0)


def test_float_curve_point_is_refused():
    """F(3) = 24.0 on a float curve: w**2 = 24.0 is not Q(w), and with it the
    factorization of the chain 1/2, 5/4, 2, 7/2 read a false nonzero."""
    with pytest.raises(TypeError):
        exact_wp_jet(FLOAT_CURVE, 3)


def test_float_chain_with_an_exact_curve_point_is_refused():
    """A float chain is not prolonged (its first float site is refused);
    float jets built by hand cannot enter Q(w)."""
    gamma = (0.5, 1.25, 2.0, 3.5)
    with pytest.raises(TypeError, match="gamma at site 0 is a float"):
        prolong_gamma_jets(GammaChain(gamma, FLOAT_CURVE), 3)
    jets = GammaChain(tuple(Jet((g, 0.0, 0.0, 0.0)) for g in gamma), FLOAT_CURVE)
    wp = exact_wp_jet(SpectralCurve.elliptic(0, -1, 0), 3, order=3)
    with pytest.raises(TypeError, match="unsupported operand"):
        darboux_data(jets, wp)


def test_float_chain_jet_is_refused_by_name_on_an_exact_curve():
    """On an exact curve the float values pass the collision and branch
    checks; the configuration refuses the first inexact jet by its site."""
    curve = SpectralCurve.elliptic(0, -1, 0)
    exact = prolong_gamma_jets(GammaChain((2, 3, 5, 7), curve), 2).values
    jets = GammaChain(exact[:2] + (Jet((Fraction(5), 1.5, 0.0)),) + exact[3:], curve)
    with pytest.raises(TypeError, match="^gamma jet at site 2 is not exact"):
        darboux_data(jets, exact_wp_jet(curve, Fraction(11), order=3))


# the memoised per-site formulas of DarbouxData
PER_SITE = ("gap", "gap_squared", "chi1", "chi2", "a1", "a0", "am1", "d", "b", "f_core")


def test_per_site_memo_reduces_sites_modulo_the_period():
    data = exact_data()
    for name in PER_SITE:
        at = getattr(data, name)
        for n in range(-2, data.period + 2):
            assert at(n) is at(n + data.period)
    assert len(data._site_cache) == len(PER_SITE) * data.period


def test_per_site_memo_keeps_quantities_apart():
    """Each formula read from a warm memo equals the same formula read
    first on a cold one, so no two quantities share an entry."""
    warm = exact_data()
    for name in PER_SITE:
        for n in range(warm.period):
            getattr(warm, name)(n)
    for name in PER_SITE:
        for n in range(warm.period):
            cold = exact_data()
            assert getattr(cold, name)(n) == getattr(warm, name)(n)
    assert warm.chi1(0) != warm.chi2(0) and warm.a0(0) != warm.gap(0)


def test_truncated_copy_starts_with_an_empty_memo():
    data = exact_data()
    data.chi1(0)
    data.d(1)
    cut = data.truncated(1, 1)
    assert cut._site_cache == {}
    assert cut.chi1(0) is not data.chi1(0)
    assert cut.chi1(0) == data.truncated(1, 1).chi1(0)


def test_truncated_shares_one_copy_per_lower_pair_of_orders():
    """At its own orders a configuration is its own truncation.  Each lower
    pair of orders has one copy, whose memo starts empty, and the copies'
    truncations are the same copies.  A replace starts with none."""
    data = exact_data()
    assert data.truncated(2, 2) is data
    for orders in ((1, 1), (1, 0), (0, 1), (0, 0), (2, 0), (0, 2)):
        copy = data.truncated(*orders)
        assert (copy.x_order, copy.y_order) == orders
        assert copy._site_cache == {}
        copy.gap(0)
        assert data.truncated(*orders) is copy
        assert copy.truncated(*orders) is copy
    assert data.truncated(1, 1).truncated(0, 1) is data.truncated(0, 1)
    fresh = replace(data, point=data.point)
    assert fresh._copies == {} and fresh._site_cache == {}
    assert fresh.truncated(0, 1) is not data.truncated(0, 1)


@pytest.mark.parametrize("value, error", [(True, TypeError), (0.5, TypeError), ("1/2 x", ValueError)])
def test_solution_constants_refuse_inexact_fields_by_name(value, error):
    """A bool read as 1 and a float met deep in the jets: both are refused
    when the constants are built, naming the field."""
    with pytest.raises(error, match="^tail constant k1: "):
        SolutionConstants(k1=value)


def test_solution_constants_are_fractions():
    """Ints and strings are read as Fractions, so constants built from them
    equal and behave as those built from Fractions."""
    read = SolutionConstants(1, "1/2", Fraction(3, 4), -2, " 5 ", 0)
    want = (Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(-2), Fraction(5), Fraction(0))
    assert [(type(c), c) for c in astuple(read)] == [(Fraction, c) for c in want]
    assert read == SolutionConstants(*want)
    assert SolutionConstants(0, "0", Fraction(0)).is_zero()
    for name in ("s0", "k0", "p0", "s1", "k1", "p1"):
        assert not SolutionConstants(**{name: "-1/3"}).is_zero()


@pytest.fixture
def memo_stores(monkeypatch):
    """Counts of the stores into every ``DarbouxData`` memo built while the
    test runs, by ``(formula, site)``: a formula evaluated twice at one site,
    on one configuration or on two, stores twice."""
    counts = Counter()
    real = DarbouxData.__post_init__

    class CountingMemo(dict):
        def __setitem__(self, key, value):
            counts[key] += 1
            super().__setitem__(key, value)

    def post_init(data):
        real(data)
        object.__setattr__(data, "_site_cache", CountingMemo())

    monkeypatch.setattr(DarbouxData, "__post_init__", post_init)
    return counts


def test_lax_x_sample_evaluates_each_site_formula_once(memo_stores):
    """The x-bracket's partner reads b and d from the memo of the
    configuration Ltilde is built from, so one lax-x sample evaluates every
    formula it needs once per site; d is Ltilde's own T^-2 band."""
    assert verify._eval_lax_x_sample(draw_sample(7, 0))[0]
    names = {"gap", "gap_squared", "a1", "a0", "am1", "d", "b"}
    assert {name for name, _ in memo_stores} == names
    assert sorted(memo_stores.values()) == [1] * (len(names) * verify.PERIOD)


def test_factorization_sample_evaluates_the_left_factor_band_once(memo_stores):
    """The left factor's T^-1 band is the memoised ``left_lower``: the
    factorization and the swapped product read it from one evaluation per
    site, as they read chi1 and chi2."""
    assert verify._eval_factorization_sample(draw_sample(7, 0))[0]
    assert [memo_stores["left_lower", n] for n in range(verify.PERIOD)] == [1] * 4
    assert set(memo_stores.values()) == {1}


def test_lax_y_check_evaluates_each_site_formula_once_per_order(memo_stores):
    """The y-bracket reads Ltilde's bands from the view at y-order 2 and f
    from the view at y-order 1: each formula is evaluated once per site on
    each, so the gaps, which both read, twice, and the squared gaps, which
    Ltilde's bands alone read, once."""
    config = draw_sample(7, 0)
    chain = GammaChain(config.gamma, config.curve)
    solved = solve_tail_constants(chain)
    memo_stores.clear()
    wp = exact_wp_jet(config.curve, config.z0, order=3)
    assert commutator_y_check(darboux_data(prolong_gamma_jets(chain, 1), wp), solved).is_zero()
    names = {"gap": 2, "gap_squared": 1, "a1": 1, "a0": 1, "am1": 1, "d": 1, "f_core": 1}
    assert {name for name, _ in memo_stores} == set(names)
    for (name, _), count in memo_stores.items():
        assert count == names[name], name
    assert len(memo_stores) == len(names) * verify.PERIOD


def test_chain_sample_evaluates_each_site_formula_once_per_copy(monkeypatch, memo_stores):
    """The chain residuals read b, d and the values of f from the shared
    copy at orders (0, 1) and f_x from the one at (1, 0).  Across the bare
    and the solved residuals at every site, each formula is evaluated once
    per site on each copy that reads it, and none on the configuration at
    (1, 1): so the gaps and f twice, b, d and the squared gaps once."""
    config = draw_sample(7, 0)
    solved = solve_tail_constants(GammaChain(config.gamma, config.curve))
    monkeypatch.setattr(verify, "solve_tail_constants", lambda chain: solved)
    memo_stores.clear()
    assert verify._eval_chain_sample(config)[0]
    names = {"gap": 2, "f_core": 2, "gap_squared": 1, "b": 1, "d": 1}
    assert {name for name, _ in memo_stores} == set(names)
    for (name, _), count in memo_stores.items():
        assert count == names[name], name
    assert len(memo_stores) == len(names) * verify.PERIOD


def test_chain_sample_forms_f_once_per_solution_copy_and_site(monkeypatch, count_calls):
    """A solution keeps one copy per lower pair of orders, shared like the
    configuration's, so its f memo outlives each ``chain_residuals`` call:
    f = f_core + g is formed once per solution (bare and solved), pair of
    orders and site.  The tail's literal site index makes the sites -2..3
    at (0, 1) and 0..3 at (1, 0): 2 * (6 + 4) = 20."""
    config = draw_sample(7, 0)
    solved = solve_tail_constants(GammaChain(config.gamma, config.curve))
    monkeypatch.setattr(verify, "solve_tail_constants", lambda chain: solved)
    formed = count_calls(ChainSolution, "g")  # f calls g once, when it forms f
    assert verify._eval_chain_sample(config)[0]
    assert formed["g"] == 20
    sol = rank2_solution(exact_data().truncated(1, 1), solved)
    copy = sol.truncated(0, 1)
    assert sol.truncated(1, 1) is sol and sol.truncated(0, 1) is copy
    assert copy.data is sol.data.truncated(0, 1) and copy.truncated(0, 1) is copy
    assert sol.truncated(1, 0).truncated(0, 0) is copy.truncated(0, 0)


def test_lax_x_sample_squares_each_gap_once_per_site(count_calls):
    """a0 reads the squares of gap(m) and gap(m + 1), am1 and b that of
    gap(m): all read the memoised ``gap_squared``, so a lax-x sample
    squares one gap per site."""
    squares = count_calls(Series, "__pow__")
    for index in range(4):
        squares.clear()
        assert verify._eval_lax_x_sample(draw_sample(7, index))[0]
        assert squares == {"__pow__": verify.PERIOD}, index


def _strip(c):
    """``c`` without its order-0 jet layers."""
    if not isinstance(c, Jet):
        return c
    if c.order == 0:
        return _strip(c.coeffs[0])
    return Jet(tuple(_strip(inner) for inner in c.coeffs))


def _cut_to(c, x_order, y_order):
    """A nested value Jet_x(Jet_y(Q(w))) cut to orders (x_order, y_order),
    without the layer of an order-0 variable; a constant as it is."""
    if not isinstance(c, Jet):
        return c
    return _strip(Jet(tuple(inner.truncate(y_order) for inner in c.truncate(x_order).coeffs)))


def _single_layer(c):
    """True for a Q(w) value or a series over Q(w): no jet at all."""
    return not isinstance(c, Jet)


def _raw(c):
    """The raw derivatives of a jet or a series; a value or constant as it is."""
    return c.coeffs if isinstance(c, (Jet, Series)) else c


def _y_cut(c):
    """``c`` cut by one order of its inner (y) jets; a constant as it is."""
    if isinstance(c, Jet):
        return Jet(tuple(inner.truncate(inner.order - 1) for inner in c.coeffs))
    return c


def _y_derivative(c):
    """The y-derivative of a nested scalar; a constant's is 0."""
    return Jet(tuple(inner.derivative() for inner in c.coeffs)) if isinstance(c, Jet) else 0


def _nested_windows(data, solved):
    """The four checks' windows evaluated on the nested tower
    Jet_x(Jet_y(Q(w))), one order up in each variable the check does not
    read, then cut to the check's orders: the factorization pair from
    (1, 1) to (0, 0), the x-bracket from (2, 1) to (1, 0), and the
    y-bracket, differentiating and cutting the inner jets, from (1, 2) to
    (0, 1)."""
    period = data.period
    nested = data.truncated(1, 1)
    l4 = build_l4(nested.v_at, nested.w_site)
    z_term = DifferenceOperator.from_bands({0: lambda n: nested.z0})
    left, right = darboux._left_factor(nested), darboux._right_factor(nested)
    factorization = compose(left, right) - (l4 - z_term)
    crosscheck = transformed_operator(nested) - (compose(right, left) + z_term)

    x_hi = data.truncated(2, 1)
    a_op = DifferenceOperator.from_bands({-1: x_hi.b, -2: x_hi.d})
    a_op = a_op.map_coeffs(lambda c: c.truncate(c.order - 1))
    l_x = transformed_operator(x_hi)
    x_bracket = lax_residual(
        l_x.map_coeffs(_cut), l_x.map_coeffs(_derivative), a_op
    )

    y_hi = data.truncated(1, 2)
    b_op = DifferenceOperator.from_bands(
        {1: lambda n: 1, 0: rank2_solution(data.truncated(1, 1), solved).f}
    )
    l_y = transformed_operator(y_hi)
    y_bracket = lax_residual(
        l_y.map_coeffs(_y_cut), l_y.map_coeffs(_y_derivative), b_op
    )
    ops = (factorization, crosscheck, x_bracket, y_bracket)
    orders = ((0, 0), (0, 0), (1, 0), (0, 1))
    return [
        op.map_coeffs(lambda c, o=o: _cut_to(c, *o)).window(0, period - 1)
        for op, o in zip(ops, orders)
    ]


@pytest.mark.parametrize("max_num, max_den", [(1000, 8), (10**9, 10**6)])
@pytest.mark.parametrize("index", range(4))
def test_checks_run_in_the_single_layer_tower(index, max_num, max_den):
    """Each check's window holds Q(w) values (factorization, crosscheck)
    or series over Q(w) (the x- and y-brackets), whose raw derivatives equal
    in value and ``repr`` the nested evaluation's cut to the check's orders."""
    config = draw_sample(7, index, max_num, max_den)
    chain = GammaChain(config.gamma, config.curve)
    solved = solve_tail_constants(chain)
    wp = exact_wp_jet(config.curve, config.z0, order=3)
    data = darboux_data(prolong_gamma_jets(chain, 3), wp)
    flat = data.truncated(0, 0)
    got = [
        factorization_check(flat),
        crosscheck_window(flat),
        commutator_x_check(data),
        commutator_y_check(data, solved),
    ]
    # the brackets are read at one order below their jets' order 2
    jet_orders = (set(), set(), {1}, {1})
    for win, want, orders in zip(got, _nested_windows(data, solved), jet_orders):
        coeffs = [c for row in win.rows for c in row]
        assert all(map(_single_layer, coeffs))
        assert {c.order for c in coeffs if isinstance(c, Series)} == orders
        got_raw = [_raw(c) for c in coeffs]
        cut = [_raw(c) for row in want.rows for c in row]
        assert got_raw == cut
        assert list(map(repr, got_raw)) == list(map(repr, cut))
        assert win.is_zero()


@pytest.mark.parametrize("x_order, y_order", [(0, 0), (2, 0), (0, 2)])
def test_order_0_variables_have_no_jet_layer(x_order, y_order):
    """At orders with a 0, gamma, gamma', z0, w, V and W are the nested
    values at orders (2, 2) cut down, with no layer for the order-0
    variable: base values at (0, 0), a series along the live variable
    otherwise, whose raw derivatives equal the cut jet's in value and
    ``repr``; at orders (1, 1) they stay nested."""
    full = exact_data()
    data = full.truncated(x_order, y_order)
    for name in ("gamma", "dgamma", "_v", "_w", "z0", "w"):
        got, whole = getattr(data, name), getattr(full, name)
        if name in ("z0", "w"):
            got, whole = (got,), (whole,)
        got = [_raw(c) for c in got]
        want = [_raw(_cut_to(c, x_order, y_order)) for c in whole]
        assert got == want, name
        assert repr(got) == repr(want), name
    assert all(map(_single_layer, data.gamma + (data.z0, data.w)))
    both = full.truncated(1, 1)
    assert all(isinstance(c, Jet) for c in both.z0.coeffs + both.gamma_at(0).coeffs)


def test_couplings_are_the_tower_evaluation():
    """V_n and W_n, evaluated over Q on the x-jets and lifted, equal the
    same formulas evaluated on the nested tower's gamma."""
    data = exact_data()
    assert data._v == tuple(vn_from_gamma(list(data.gamma), data.curve))
    assert data._w == tuple(wn_from_gamma(list(data.gamma), data.curve))


@pytest.mark.parametrize("y_order", [0, 2])
def test_couplings_at_x_order_0_read_the_chain_values(monkeypatch, y_order):
    """At x-order 0, which has no jet layer, V_n and W_n are evaluated on
    the chain values themselves, not on order-0 jets of them."""
    seen = []
    for name in ("vn_from_gamma", "wn_from_gamma"):
        real = getattr(darboux, name)
        monkeypatch.setattr(
            darboux, name, lambda sites, curve, real=real: seen.append(sites) or real(sites, curve)
        )
    data = exact_data().truncated(0, y_order)
    data.v_at(0), data.w_site(0)
    assert len(seen) == 2
    assert all(type(c) is Fraction for sites in seen for c in sites)


def test_tail_is_evaluated_once_per_parity():
    """With s1 = k1 = p1 = 0, g_n is (-1)^n times one quotient: each parity
    is evaluated once.  With s1 != 0 each site is its own."""
    data = exact_data().truncated(1, 1)
    z0, w = data.z0, data.w

    def direct(c, n):
        quad = (n * c.s1 + c.s0) * z0**2 + (n * c.k1 + c.k0) * z0 + (n * c.p1 + c.p0)
        return (-1 if n % 2 else 1) * quad / w

    even = SolutionConstants(s0=Fraction(3), k0=Fraction(-1, 2), p0=Fraction(7))
    sol = rank2_solution(data, even)
    for n in range(-3, 7):
        assert sol.g(n) is sol.g(n % 2)
        assert sol.g(n) == direct(even, n)
    assert sol.g(0) == -sol.g(1)

    linear = SolutionConstants(s0=Fraction(3), p0=Fraction(7), s1=Fraction(2))
    sol = rank2_solution(data, linear)
    values = [sol.g(n) for n in range(-3, 7)]
    assert values == [direct(linear, n) for n in range(-3, 7)]
    assert len(set(map(repr, values))) == len(values)
    assert sol.g(2) is sol.g(2) and sol.g(2) != sol.g(0)


def test_left_factor_pole_names_the_site_modulo_the_period():
    """chi1 vanishes where V does (gamma_3 = 5 is a root of z^3 - 125): the
    left factor's T^-1 band at site 0 divides by chi1(-1), which the error
    names as site 3."""
    on_root = replace(exact_data(order=1), curve=SpectralCurve.elliptic(0, 0, -125))
    with pytest.raises(PoleError, match="^chi1 vanishes at site 3$"):
        factorization_check(on_root)


def test_data_rejects_z0_on_chain():
    jets = prolong_gamma_jets(CHAIN, 2)
    wp = exact_wp_jet(CURVE, Fraction(2), order=3)  # collides with gamma_1
    with pytest.raises(PoleError):
        darboux_data(jets, wp)


def test_data_rejects_z0_at_a_root_of_f():
    """At a root of F, w^2 = F(z0) = 0, and the chain and Lax formulas
    divide by w: the data refuses the point by name, not with a bare
    division error."""
    curve = SpectralCurve.elliptic(0, -1, 0)  # F = z^3 - z, roots 0, 1, -1
    chain = GammaChain((Fraction(2), Fraction(3), Fraction(5), Fraction(7)), curve)
    wp = exact_wp_jet(curve, Fraction(1), order=3)
    message = r"^z0 is a branch point of the curve \(F\(z0\) = 0\)$"
    with pytest.raises(PoleError, match=message):
        darboux_data(prolong_gamma_jets(chain, 2), wp)


def test_data_rejects_adjacent_collision():
    chain = GammaChain((1, 1, 2, 3), CURVE)
    with pytest.raises(DegenerateConfigurationError):
        prolong_gamma_jets(chain, 2)


def test_data_names_the_wrap_pair_collision():
    """A hand-built jet chain whose last and first sites collide names the
    pair (3, 0) in the flow module's words."""
    jets = GammaChain(
        tuple(Jet((Fraction(v), Fraction(1))) for v in (2, 3, 4, 2)), CURVE
    )
    with pytest.raises(
        DegenerateConfigurationError, match="gamma collision between sites 3 and 0"
    ) as err:
        darboux_data(jets, exact_wp_jet(CURVE, Fraction(9, 2), order=1))
    assert err.value.sites == (3, 0)


def test_a0_matches_its_formula_in_value_and_type():
    """The T^0 band, which reads F(z0) once per configuration, equals its
    formula with F(z0) evaluated at every site, leaf by leaf."""
    data = exact_data()
    fresh = exact_data()
    for m in range(data.period):
        num = (
            fresh.v_at(m) * fresh.gap(m + 1) ** 2
            + fresh.v_at(m + 1) * fresh.gap(m) ** 2
            - fresh.curve.eval(fresh.z0)
        )
        direct = num / (fresh.gap(m) * fresh.gap(m + 1)) + fresh.z0
        leaves = zip(_leaves(data.a0(m)), _leaves(direct), strict=True)
        assert all(_same_leaf(a, b) for a, b in leaves)


def test_data_rejects_branch_point_chain():
    curve = SpectralCurve.elliptic(0, -1, 0)  # roots 0, 1, -1
    chain = GammaChain((Fraction(1), Fraction(3), Fraction(4), Fraction(7)), curve)
    jets = prolong_gamma_jets(chain, 2)
    wp = exact_wp_jet(curve, Fraction(5), order=3)
    with pytest.raises(PoleError):
        darboux_data(jets, wp)


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sign", [1, -1])
def test_factorization_exact_zero(rng, sign):
    for _ in range(5):
        _, data = sample_data(rng, sign)
        assert factorization_check(data.truncated(0, 0)).is_zero()


def test_factorization_detects_perturbed_chi(rng):
    _, data = sample_data(rng)
    data = data.truncated(0, 0)
    left = DifferenceOperator.from_bands(
        {
            1: lambda n: 1,
            0: lambda n: data.chi2(n + 1) + 1,  # perturbation
            -1: lambda n: -(data.v_at(n - 1) * data.v_at(n) / data.chi1(n - 1)),
        }
    )
    right = DifferenceOperator.from_bands(
        {1: lambda n: 1, 0: lambda n: -data.chi2(n), -1: lambda n: -data.chi1(n)}
    )
    l4 = build_l4(data.v_at, data.w_site)
    z_term = DifferenceOperator.from_bands({0: lambda n: data.z0})
    residual = compose(left, right) - (l4 - z_term)
    assert not residual.window(0, 3).is_zero()


# ---------------------------------------------------------------------------
# Transformed operator
# ---------------------------------------------------------------------------

def test_transform_band_formula_hand_value():
    # A_1 = (gamma_{n+2} - gamma_n) z0' / ((z0 - gamma_n)(z0 - gamma_{n+2}))
    # with gamma_0 = 2, gamma_2 = 3, z0 = 5, z0' = 1  ->  1/6
    chain = GammaChain((Fraction(2), Fraction(7), Fraction(3), Fraction(11)), CURVE)
    jets = prolong_gamma_jets(chain, 1)
    wp = Jet((Fraction(5), Fraction(1)))  # plain rational base: z0 = 5, z0' = 1
    data = darboux_data(jets, wp)
    t_op = transformed_operator(data)
    a1 = t_op.coeff(1, 0)
    assert a1 == Fraction(1, 6)  # orders (0, 0): a value of the base Q


def test_transform_alternating_chain_kills_a1():
    chain = GammaChain((Fraction(2), Fraction(7), Fraction(2), Fraction(7)), CURVE)
    jets = prolong_gamma_jets(chain, 1)
    wp = Jet((Fraction(5), Fraction(1)))
    data = darboux_data(jets, wp)
    t_op = transformed_operator(data)
    for n in range(4):
        assert t_op.coeff(1, n) == 0


@pytest.mark.parametrize("sign", [1, -1])
def test_transform_crosscheck_swapped_product(rng, sign):
    for _ in range(5):
        _, data = sample_data(rng, sign)
        assert crosscheck_window(data.truncated(0, 0)).is_zero()


# ---------------------------------------------------------------------------
# The rank-two solution family
# ---------------------------------------------------------------------------

def test_solution_hand_value_b():
    # F = z^3, wp = 5, wp' = w with w^2 = 125, gamma_0 = 2:
    # b_0 = -w gamma_0' / (5 - 2)^2 = -w gamma_0' / 9
    cubic = SpectralCurve.elliptic(0, 0, 0)
    chain = GammaChain((Fraction(2), Fraction(3), Fraction(7), Fraction(11)), cubic)
    data = exact_data(chain, Fraction(5))
    sol = rank2_solution(data)
    b0 = _val(sol.b(0))
    w = QuadExt(Fraction(0), Fraction(1), Fraction(125))
    expected = -w * dkn_rhs(list(chain.values), cubic)[0] / 9
    assert b0 == expected


def test_solution_zero_constants_tail_vanishes():
    data = exact_data()
    sol = rank2_solution(data)
    for n in range(-2, 6):
        assert sol.g(n) == 0


def test_solution_equal_adjacent_gamma_kills_f_core():
    # algebraic structure of the f formula: the (gamma_n - gamma_{n+1}) factor
    # kills the rational part (constructed directly; such data fails the
    # chain-validity checks so it cannot come from darboux_data)
    base = exact_data()
    c0, _, c2, c3 = base.chain
    data = replace(base, chain=(c0, c0, c2, c3))
    sol = rank2_solution(data)
    assert _val(sol.f(0)) == 0


def test_chain_residuals_structure_zero_tail(rng):
    """Documented deterministic outcome with the tail absent: the first two
    residuals vanish identically; the third is an alternating gap
    2 (-1)^n P(z0) / w with P quadratic and site-independent."""
    for _ in range(4):
        chain, data = sample_data(rng)
        sol = rank2_solution(data.truncated(1, 1))
        gaps = []
        for n in range(4):
            r1, r2, r3 = chain_residuals(sol, n)
            assert r1 == 0
            assert r2 == 0
            sgn = -1 if n % 2 else 1
            assert r3.a == 0  # odd in w only
            gaps.append(sgn * r3.b)
        assert len(set(gaps)) == 1  # same quadratic value at every site


def test_chain_residuals_solved_constants(rng):
    for _ in range(4):
        chain, data = sample_data(rng)
        solved = solve_tail_constants(chain)
        for sign in (1, -1):
            d = exact_data(chain, _z0_of(data), sign).truncated(1, 1)
            sol = rank2_solution(d, solved)
            for n in range(4):
                assert chain_residuals(sol, n) == (0, 0, 0)


def _z0_of(data):
    return data.z0.coeffs[0].coeffs[0].a


def test_chain_residuals_nonzero_constants_shifts(rng):
    """User constants shift the residuals by exactly the tail differences:
    R2 by g_{n-2} - g_n (nonzero only for the n-linear constants), R3 by
    g_{n-1} - g_n.  Nothing else moves."""
    chain, data = sample_data(rng)
    data = data.truncated(1, 1)
    base = rank2_solution(data)
    constants = SolutionConstants(
        s0=Fraction(1, 2), k0=Fraction(-3), p0=Fraction(2, 7),
        s1=Fraction(1), k1=Fraction(0), p1=Fraction(-1, 3),
    )
    shifted = rank2_solution(data, constants)
    for n in range(4):
        b1, b2, b3 = chain_residuals(base, n)
        s1_, s2, s3 = chain_residuals(shifted, n)
        assert s1_ == b1
        assert s2 - b2 == _val(shifted.g(n - 2)) - _val(shifted.g(n))
        assert s3 - b3 == _val(shifted.g(n - 1)) - _val(shifted.g(n))
        # the n-linear tail breaks the second equation
        assert s2 != b2


class Bumped:
    """``base`` with the value of one site function (f, b or d) raised by 1
    at the literal site 0."""

    def __init__(self, base, name):
        self.data, self.constants = base.data, base.constants
        self._base, self._name = base, name

    def _get(self, name, n):
        bump = 1 if name == self._name and n == 0 else 0
        return getattr(self._base, name)(n) + bump

    def f(self, n):
        return self._get("f", n)

    def b(self, n):
        return self._get("b", n)

    def d(self, n):
        return self._get("d", n)

    def g(self, n):
        return self._base.g(n)

    def truncated(self, x_order, y_order):
        return Bumped(self._base.truncated(x_order, y_order), self._name)


def test_chain_residuals_f_perturbation_moves_known_slots():
    """A unit bump of f, b or d at site 0 lands in the slots the chain
    equations put it in, so a wrong neighbour shift in A or B shows."""
    data = exact_data().truncated(1, 1)
    solved = solve_tail_constants(CHAIN)
    base = rank2_solution(data, solved)
    sites = range(-1, 4)
    assert all(chain_residuals(base, n) == (0, 0, 0) for n in sites)

    r = {n: chain_residuals(Bumped(base, "f"), n) for n in sites}
    assert r[0][0] == 0  # R1 never sees a constant shift
    assert r[0][1] == -1  # R2(0): -f(0)
    assert r[2][1] == 1  # R2(2): +f(0)
    assert r[0][2] == -1  # R3(0): -f(0)
    assert r[1][2] == 1  # R3(1): +f(0)
    assert r[1][1] == 0 and r[3][1] == 0
    assert r[2][2] == 0 and r[3][2] == 0

    f = lambda n: _val(base.f(n))
    b0, d0 = _val(base.b(0)), _val(base.d(0))
    r = {n: chain_residuals(Bumped(base, "b"), n) for n in sites}
    assert r[0][0] == -1 and r[-1][0] == 1  # R1(n): -b(n) + b(n+1)
    # R3(0) = f(-1) - f(0) + (b_y + d(0) - d(1)) / (b(0) + 1), and the
    # unbumped equation says b_y + d(0) - d(1) = -b(0) (f(-1) - f(0))
    assert r[0][2] == (f(-1) - f(0)) / (b0 + 1)
    bumped = {(-1, 0), (0, 0), (0, 2)}
    assert all(r[n][k] == 0 for n in sites for k in range(3) if (n, k) not in bumped)

    r = {n: chain_residuals(Bumped(base, "d"), n) for n in sites}
    assert r[0][1] == (f(-2) - f(0)) / (d0 + 1)  # R2(0) = f(-2) - f(0) + d_y / d(0)
    assert r[0][2] == 1 / b0  # R3(0): +d(0) / b(0)
    assert r[-1][2] == -1 / _val(base.b(-1))  # R3(-1): -d(0) / b(-1)
    bumped = {(0, 1), (0, 2), (-1, 2)}
    assert all(r[n][k] == 0 for n in sites for k in range(3) if (n, k) not in bumped)


def reference_chain_residuals(sol, n):
    """The three chain equations as hand-written formulas:

        R1 = f_{n,x} - b_n + b_{n+1},
        R2 = f_{n-2} - f_n + d_{n,y} / d_n,
        R3 = f_{n-1} - f_n + b_{n,y} / b_n + (d_n - d_{n+1}) / b_n.
    """
    f_n = sol.f(n)
    r1 = _dx(f_n) - _val(sol.b(n)) + _val(sol.b(n + 1))
    d_n = sol.d(n)
    d_val = _val(d_n)
    r2 = _val(sol.f(n - 2)) - _val(f_n) + _dy(d_n) / d_val
    b_n = sol.b(n)
    b_val = _val(b_n)
    r3 = (
        _val(sol.f(n - 1))
        - _val(f_n)
        + _dy(b_n) / b_val
        + (_val(d_n) - _val(sol.d(n + 1))) / b_val
    )
    return r1, r2, r3


N_LINEAR = SolutionConstants(
    s0=Fraction(1, 2), k0=Fraction(-3), p0=Fraction(2, 7),
    s1=Fraction(1), k1=Fraction(0), p1=Fraction(-1, 3),
)

DRAWS = {"default": (1000, 8), "wide": (10**9, 10**6)}


def _tail_solutions(draw, period, sign):
    """Order-(1, 1) solutions with the zero, the solved and an n-linear tail
    on one seeded chain of the given period and draw bounds."""
    rng = random.Random(f"{draw}/{period}")
    max_num, max_den = DRAWS[draw]
    chain = random_chain(rng, period, max_num, max_den)
    z0 = random_point_off_chain(rng, chain, max_num, max_den)
    data = exact_data(chain, z0, sign, order=2).truncated(1, 1)
    tails = (None, solve_tail_constants(chain), N_LINEAR)
    return [rank2_solution(data, tail) for tail in tails]


def _shape(x):
    return [type(x)] + [type(leaf) for leaf in _leaves(x)]


@pytest.mark.parametrize("period", [3, 4, 5])
@pytest.mark.parametrize("draw", sorted(DRAWS))
@pytest.mark.parametrize("sign", [1, -1])
def test_chain_residuals_equal_hand_written_formulas(draw, period, sign):
    """The bracket gives R1-R3 with the value, the type and the printed form
    of the hand-written formulas, whatever the tail."""
    for sol in _tail_solutions(draw, period, sign):
        for n in range(-1, period + 1):
            got = chain_residuals(sol, n)
            want = reference_chain_residuals(sol, n)
            assert got == want
            assert [_shape(r) for r in got] == [_shape(r) for r in want]
            assert [format_scalar(r) for r in got] == [format_scalar(r) for r in want]


def _part(read):
    """A coefficient's component ``read`` (a jet part), constants as such."""
    return lambda c: read(c) if isinstance(c, Jet) else (c if read is _val else 0)


@pytest.mark.parametrize("period", [3, 4, 5])
@pytest.mark.parametrize("sign", [1, -1])
def test_chain_equations_are_zero_curvature(period, sign):
    """With A = b T^-1 + d T^-2 and B = T + f, the zero curvature
    [d/dx - A, d/dy - B] = A_y - B_x + [A, B] has the bands T^0 = -R1,
    T^-1 = b R3, T^-2 = d R2 and no others, both with the bracket taken on
    the jets and as ``lax_residual(A, A_y - B_x, B)`` on base values."""
    for sol in _tail_solutions("default", period, sign):
        a_op = DifferenceOperator.from_bands({-1: sol.b, -2: sol.d})
        b_op = DifferenceOperator.from_bands({1: lambda n: 1, 0: sol.f})
        l_t = a_op.map_coeffs(_part(_dy)) - b_op.map_coeffs(_part(_dx))
        on_jets = compose(a_op, b_op) - compose(b_op, a_op)
        on_values = lax_residual(
            a_op.map_coeffs(_part(_val)), l_t, b_op.map_coeffs(_part(_val))
        )
        for n in range(-1, period + 1):
            r1, r2, r3 = reference_chain_residuals(sol, n)
            bands = {0: -r1, -1: _val(sol.b(n)) * r3, -2: _val(sol.d(n)) * r2}
            for j in range(-4, 3):
                want = bands.get(j, 0)
                assert l_t.band_coeff(j, n) + _part(_val)(on_jets.band_coeff(j, n)) == want
                assert on_values.band_coeff(j, n) == want, (n, j)


# ---------------------------------------------------------------------------
# Lax brackets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sign", [1, -1])
def test_commutator_x_exact_zero(rng, sign):
    for _ in range(4):
        _, data = sample_data(rng, sign)
        assert commutator_x_check(data).is_zero()


def test_commutator_x_needs_lower_bands(rng):
    _, data = sample_data(rng)
    d_hi = data.truncated(data.x_order, 0)
    sol = rank2_solution(d_hi.truncated(data.x_order - 1, 0))
    # drop the T^-2 coefficient: the bracket must notice
    c_op = DifferenceOperator.from_bands({-1: sol.b})
    l_hi = transformed_operator(d_hi)
    assert not lax_operator(l_hi, c_op).window(0, data.period - 1).is_zero()


def _rebuilt_x_check(data):
    """The x-bracket with its partner built from a second configuration one
    x-order lower: the reference for reading it from Ltilde's and cutting.
    Both are x-jets over the base, as the check evaluates them."""
    d_hi = data.truncated(data.x_order, 0)
    d_lo = d_hi.truncated(data.x_order - 1, 0)
    a_op = DifferenceOperator.from_bands({-1: d_lo.b, -2: d_lo.d})
    return lax_operator(transformed_operator(d_hi), a_op).window(0, data.period - 1)


def _bump_slope(chain, site):
    """``chain``'s jets with gamma' at ``site`` bumped by 1: off the flow."""
    jets = list(chain.values)
    c = jets[site].coeffs
    jets[site] = Jet((c[0], c[1] + 1) + c[2:])
    return GammaChain(tuple(jets), chain.curve)


@pytest.mark.parametrize("x_order", [1, 2])
@pytest.mark.parametrize("max_num, max_den", [(1000, 8), (10**9, 10**6)])
@pytest.mark.parametrize("sign", [1, -1])
def test_commutator_x_partner_cut_equals_the_lower_order_build(
    x_order, max_num, max_den, sign
):
    """Every coefficient of the x-bracket, on the flow (zero) and off it (a
    bumped gamma'), equals the reference's in value and in ``repr``."""
    for index in range(2):
        config = draw_sample(11, index, max_num, max_den)
        chain = prolong_gamma_jets(GammaChain(config.gamma, config.curve), x_order + 1)
        wp = exact_wp_jet(config.curve, config.z0, order=1, sign=sign)
        for jets, zero in ((chain, True), (_bump_slope(chain, index), False)):
            data = darboux_data(jets, wp)
            got, want = commutator_x_check(data), _rebuilt_x_check(data)
            assert got.is_zero() is zero
            assert got == want
            assert [list(map(repr, row)) for row in got.rows] == [
                list(map(repr, row)) for row in want.rows
            ]


def _cut(c):
    return c.truncate(c.order - 1) if isinstance(c, (Jet, Series)) else c


def _derivative(c):
    return c.derivative() if isinstance(c, (Jet, Series)) else 0


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("sign", [1, -1])
def test_lax_window_truncation_equals_rebuild(rng, axis, sign):
    """The transformed operator cut by one jet order equals the operator
    rebuilt from the lower-order configuration (the reference), and so does
    every bracket ``lax_operator`` assembles from it.  Both are series over
    the base along ``axis``, with no layer for the other, order-0 variable."""
    for max_num, max_den in ((50, 8), (10**9, 10**6), (50, 8)):
        chain = random_chain(rng, max_num=max_num, max_den=max_den)
        z0 = random_point_off_chain(rng, chain, max_num, max_den)
        wp = exact_wp_jet(chain.curve, z0, order=3, sign=sign)
        data = darboux_data(prolong_gamma_jets(chain, 3), wp)
        if axis == "x":
            d_hi = data.truncated(data.x_order, 0)
            d_lo = d_hi.truncated(data.x_order - 1, 0)
            # deficient A (no T^-2 band), so the residual is nonzero
            a_op = DifferenceOperator.from_bands({-1: rank2_solution(d_lo).b})
        else:
            d_hi = data.truncated(0, data.y_order)
            d_lo = d_hi.truncated(0, data.y_order - 1)
            a_op = DifferenceOperator.from_bands({0: rank2_solution(d_lo).f})
        l_hi = transformed_operator(d_hi)
        rebuilt = transformed_operator(d_lo)
        assert l_hi.map_coeffs(_cut).window(0, 3) == rebuilt.window(0, 3)

        reference = lax_residual(rebuilt, l_hi.map_coeffs(_derivative), a_op).window(0, 3)
        assert not reference.is_zero()
        assert lax_operator(l_hi, a_op).window(0, chain.period - 1) == reference


@pytest.mark.parametrize("sign", [1, -1])
def test_commutator_y_exact_zero_solved_tail(rng, sign):
    for _ in range(3):
        chain, data = sample_data(rng, sign)
        solved = solve_tail_constants(chain)
        assert commutator_y_check(data, solved).is_zero()


def test_commutator_y_negative_control(rng):
    """A curve-point jet whose second derivative violates the Weierstrass
    ODE must leave a nonzero residual."""
    chain = CHAIN
    solved = solve_tail_constants(chain)
    jets = prolong_gamma_jets(chain, 3)
    wp = exact_wp_jet(CURVE, Fraction(9, 2), order=3)
    good = darboux_data(jets, wp)
    assert commutator_y_check(good, solved).is_zero()
    bad_jet = Jet((wp.coeffs[0], wp.coeffs[1], wp.coeffs[2] + 1, wp.coeffs[3]))
    bad = darboux_data(jets, bad_jet)
    assert not commutator_y_check(bad, solved).is_zero()


def test_commutator_y_perturbed_f(rng):
    chain, data = sample_data(rng)
    solved = solve_tail_constants(chain)
    # shifting one tail constant breaks the bracket
    off = SolutionConstants(
        s0=solved.s0 + 1, k0=solved.k0, p0=solved.p0
    )
    assert not commutator_y_check(data, off).is_zero()


# ---------------------------------------------------------------------------
# Eigenfunctions
# ---------------------------------------------------------------------------

def test_eigenfunction_zero_and_linearity(rng):
    chain, data = sample_data(rng)
    data = data.truncated(0, 0)
    assert eigenfunction_step(data, 0, 0, 1) == 0
    a, b = Fraction(2), Fraction(-3, 7)
    s1 = eigenfunction_step(data, 1, 0, 1)
    s2 = eigenfunction_step(data, 0, 1, 1)
    combo = eigenfunction_step(data, a, b, 1)
    assert combo == a * s1 + b * s2


def test_eigenfunction_recursion_gives_eigenfunctions(rng):
    """Recursion-generated sequences satisfy L4 psi = z0 psi exactly."""
    for _ in range(4):
        chain = random_chain(rng)
        z0 = random_point_off_chain(rng, chain)
        data = darboux_data(
            prolong_gamma_jets(chain, 1), exact_wp_jet(chain.curve, z0, order=1)
        )
        psi = {0: 1, 1: 1}
        for n in range(1, 7):
            psi[n + 1] = eigenfunction_step(data, psi[n - 1], psi[n], n)
        l4 = build_l4(data.v_at, data.w_site)
        for n in range(2, 6):
            assert l4.apply(lambda m: psi[m], n) == data.z0 * psi[n]


# ---------------------------------------------------------------------------
# Tail-constant solving
# ---------------------------------------------------------------------------

def test_solve_tail_constants_frozen_case():
    solved = solve_tail_constants(CHAIN)
    assert solved.s0 == Fraction(1123, 336)
    assert solved.k0 == Fraction(-4471, 336)
    assert solved.p0 == Fraction(583, 56)
    assert solved.s1 == 0 and solved.k1 == 0 and solved.p1 == 0


def test_tail_solve_refuses_a_chain_over_q_w_up_front(count_calls):
    """A chain over Q(w) prolongs, but its tail solve needs a rational
    chain: raw or prolonged, it raises ``TypeError`` naming the first site
    that is not a Fraction before anything is prolonged or evaluated."""
    disc = Fraction(5)
    chain = GammaChain(
        (QuadExt(1, 0, disc), QuadExt(2, 1, disc), QuadExt(3, 0, disc), QuadExt(5, 0, disc)),
        CURVE,
    )
    jets = prolong_gamma_jets(chain, 2)
    calls = count_calls(darboux, "prolong_gamma_jets", "darboux_data")
    for given in (chain, jets):
        with pytest.raises(TypeError, match=r"^gamma at site 0 is a QuadExt, not a Fraction: "
                                            r"the tail solve needs a rational chain"):
            solve_tail_constants(given)
    assert not calls


def test_tail_solve_reads_prolonged_jets_as_they_are(count_calls):
    """Given the x-jets of its chain, the tail solve prolongs nothing and
    solves the constants its own prolongation gives; jets of order 1
    cannot carry the gap's x-slope."""
    solved = solve_tail_constants(CHAIN)
    prolonged = count_calls(darboux, "prolong_gamma_jets")
    for order in (2, 3):
        got = solve_tail_constants(prolong_gamma_jets(CHAIN, order))
        assert got == solved and repr(got) == repr(solved)
    assert not prolonged
    with pytest.raises(ValueError, match="x-jets of order >= 2, got order 1"):
        solve_tail_constants(prolong_gamma_jets(CHAIN, 1))


def test_float_chain_is_refused_by_the_tail_solve():
    """The tail solve takes its chain as given: a float chain raises where
    it is prolonged.  Its exact values solve, though F(z) = z^3 - 10^9 is
    negative at every probe, and with the constants every chain residual is
    exactly zero at an admissible exact z0."""
    curve = SpectralCurve.elliptic(0, 0, -(10**9))
    with pytest.raises(TypeError, match="gamma at site 0 is a float"):
        solve_tail_constants(GammaChain((0.5, 1.25, 2.0, 3.5), curve))
    exact = GammaChain((Fraction(1, 2), Fraction(5, 4), Fraction(2), Fraction(7, 2)), curve)
    solved = solve_tail_constants(exact)
    assert all(type(c) is Fraction for c in astuple(solved))
    z0 = Fraction(9, 2)
    assert point_problem(curve, exact.values, z0) is None
    data = darboux_data(prolong_gamma_jets(exact, 2), exact_wp_jet(curve, z0, order=2))
    sol = rank2_solution(data, solved)
    assert all(chain_residuals(sol, n) == (0, 0, 0) for n in range(exact.period))


SMALL = st.integers(-3, 3)


@settings(max_examples=300)
@given(st.tuples(SMALL, SMALL, SMALL), st.tuples(SMALL, SMALL, SMALL, SMALL))
def test_chain_problem_at_period_four_is_the_samplers_old_rule(coeffs, values):
    """At period 4 neighbours and second neighbours are all six pairs, so
    the rule admits exactly the pairwise-distinct chains off the roots of F:
    the chains the sampler admitted before it read this rule."""
    curve = SpectralCurve.elliptic(*coeffs)
    gamma = tuple(Fraction(v) for v in values)
    admitted = len(set(gamma)) == 4 and all(curve.eval(g) != 0 for g in gamma)
    assert (chain_problem(curve, gamma) is None) == admitted


def test_point_problem_names_the_value():
    gamma = CHAIN.values
    assert point_problem(CURVE, gamma, Fraction(9, 2)) is None
    assert point_problem(CURVE, gamma, Fraction(3)) == "3 lies on the chain (site 2)"
    cubic = SpectralCurve.elliptic(0, -1, 0)
    assert point_problem(cubic, gamma, Fraction(-1)) == (
        "-1 is a branch point of the curve (F(z0) = 0)"
    )


def _gap_identity_constants(chain):
    """(s0, k0, p0) from the gap identity, in plain Q.  With no tail,
    w R3 at site 0 is 2 (s0 z^2 + k0 z + p0), and it equals

        F'(z)/2 - F(z) (1/(z - g_{-1}) + 1/(z - g_1))
            - (z - g_0)^2 (d_0(z) - d_1(z)) / g_0',

    d_n(z) = V_{n-1} V_n (z - g_{n-2})(z - g_{n+1}) / ((z - g_{n-1})(z - g_n)),
    g_0' from the dKN flow.  Three points off the chain fix the quadratic."""
    curve, g = chain.curve, chain.gamma
    sites = list(chain.values)
    v = vn_from_gamma(sites, curve)
    dg0 = dkn_rhs(sites, curve)[0]

    def d(n, z):
        vv = v[(n - 1) % chain.period] * v[n % chain.period]
        return vv * (z - g(n - 2)) * (z - g(n + 1)) / ((z - g(n - 1)) * (z - g(n)))

    def half_gap(z):
        w_r3 = (
            curve.eval_derivative(z, 1) / 2
            - curve.eval(z) * (1 / (z - g(-1)) + 1 / (z - g(1)))
            - (z - g(0)) ** 2 * (d(0, z) - d(1, z)) / dg0
        )
        return w_r3 / 2

    start = int(max(abs(x) for x in chain.values)) + 1
    z1, z2, z3 = (Fraction(start + i) for i in range(3))
    h1, h2, h3 = (half_gap(z) for z in (z1, z2, z3))
    d12 = (h2 - h1) / (z2 - z1)
    s0 = ((h3 - h2) / (z3 - z2) - d12) / (z3 - z1)
    k0 = d12 - s0 * (z1 + z2)
    return s0, k0, h1 - (k0 + s0 * z1) * z1


def _assert_gap_identity(chain):
    solved = solve_tail_constants(chain)
    expected = _gap_identity_constants(chain)
    got = (solved.s0, solved.k0, solved.p0)
    assert got == expected
    assert [type(x) for x in got] == [Fraction] * 3 == [type(x) for x in expected]
    assert (solved.s1, solved.k1, solved.p1) == (0, 0, 0)


@pytest.mark.parametrize("max_num, max_den", [(1000, 8), (10**9, 10**6)])
def test_tail_constants_match_the_gap_identity_on_draws(max_num, max_den):
    for index in range(6):
        cfg = draw_sample(11, index, max_num, max_den)
        _assert_gap_identity(GammaChain(cfg.gamma, cfg.curve))


PINNED_CHAINS = [(1, 2, 3), (1, 2, 3, 5), (1, 2, 3, 5, Fraction(7, 2)),
                 (1, 2, 3, 5, Fraction(7, 2), -4)]


@pytest.mark.parametrize(
    "gamma", PINNED_CHAINS, ids=["period-3", "period-4", "period-5", "period-6"]
)
def test_tail_constants_match_the_gap_identity_on_pinned_chains(gamma):
    _assert_gap_identity(GammaChain(gamma, CURVE))


def _closed_form_tail_constants(chain):
    """(s0, k0, p0) in closed form from the sites -2..2, with Delta =
    2 (g_1 - g_{-1}) and V_n from ``vn_from_gamma``:

        s0 = (V_1 - V_{-1}) / Delta - 1/4,
        k0 = -(c2 + g_1 + g_{-1}) / 2
             - (V_1 (g_0 - g_1 + g_2 + g_{-1}) - V_{-1} (g_0 + g_1 - g_{-1} + g_{-2})) / Delta,
        p0 = -(A_1 V_1 + A_{-1} V_{-1}) / Delta
             - (3 c1 + 2 c2 (g_1 + g_{-1}) + 2 g_1^2 + 2 g_{-1}^2) / 4,

    with A_1 = g0 g1 - g0 g2 - g0 gm1 - g1^2 + g1 g2 + g1 gm1 - g2 gm1 and
    A_{-1} = g0 g1 - g0 gm1 + g0 gm2 - g1 gm1 + g1 gm2 + gm1^2 - gm1 gm2
    (gm1, gm2 for g_{-1}, g_{-2}).  No z0, no probe points, and V_0 cancels."""
    _, c1, c2 = chain.curve.coeffs
    vs = vn_from_gamma(list(chain.values), chain.curve)
    v1, vm1 = vs[1 % chain.period], vs[-1 % chain.period]
    gm2, gm1, g0, g1, g2 = (chain.gamma(n) for n in range(-2, 3))
    delta = 2 * (g1 - gm1)
    a1 = g0 * g1 - g0 * g2 - g0 * gm1 - g1**2 + g1 * g2 + g1 * gm1 - g2 * gm1
    am1 = g0 * g1 - g0 * gm1 + g0 * gm2 - g1 * gm1 + g1 * gm2 + gm1**2 - gm1 * gm2
    s0 = (v1 - vm1) / delta - Fraction(1, 4)
    k0 = -(c2 + g1 + gm1) / 2 - (
        v1 * (g0 - g1 + g2 + gm1) - vm1 * (g0 + g1 - gm1 + gm2)
    ) / delta
    p0 = -(a1 * v1 + am1 * vm1) / delta - (
        3 * c1 + 2 * c2 * (g1 + gm1) + 2 * g1**2 + 2 * gm1**2
    ) / 4
    return s0, k0, p0


def test_closed_form_tail_constants_equal_the_probe_solve():
    """The closed form equals the probe solve in value and type on 20
    draws at each bound and on the pinned chains of periods 3-6."""
    chains = [
        GammaChain(cfg.gamma, cfg.curve)
        for bounds in DRAWS.values()
        for cfg in (draw_sample(7, index, *bounds) for index in range(20))
    ] + [GammaChain(gamma, CURVE) for gamma in PINNED_CHAINS]
    assert len(chains) == 44
    for chain in chains:
        solved = solve_tail_constants(chain)
        got = _closed_form_tail_constants(chain)
        assert got == (solved.s0, solved.k0, solved.p0)
        assert [type(x) for x in got] == [Fraction] * 3
