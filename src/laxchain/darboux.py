"""Darboux transformation of the fourth-order operator and exact residual suites.

Everything here evaluates identities pointwise in (x, y) at jet-equipped
sample configurations: gamma carries x-jets along the lattice flow, the curve
point z0 carries y-jets along the Weierstrass-type ODE, and site quantities
live in the smallest tower over a base field that the configuration's
orders need: the quadratic extension Q(w), or Q itself for a rational curve
point.  An order-0 variable has no layer: base values at orders (0, 0), one
fraction-free ``scalars.Series`` over the base along the live variable when
the other order is 0 (Griewank & Walther, *Evaluating Derivatives*, 2nd
ed., ch. 13), and the nested Jet_x(Jet_y(base)) only when both orders are
at least 1.  A y-series is stored in s = w*y: its coefficient k is divided
by w**k, so each one is a rational series or w times one and its products
meet no term with both parts.  Each check reads its own orders through
``DarbouxData.truncated`` from any configuration at or above them, so the
x- and y-brackets and the chain equations' reads run on series and none
evaluates a formula in the nested tower.  Chain values, and V_n and W_n,
enter a series from their ints (``Series.over``) and a base value or the
nested tower by arithmetic, as ``zero + c`` with ``zero`` the point's own
zero.  V_n and W_n are computed over Q once per chain and x-order, in the
chain's own memo (``GammaChain.shared``): every configuration built on one
prolonged chain reads that one result -- its ``truncated`` copies, the
probes of :func:`solve_tail_constants`, and a copy with another point made
by ``dataclasses.replace`` (lax-y's control).  What depends on the point,
the lifted sources and the per-site memo, stays with each configuration.
A rational identity that evaluates to exactly zero at random rational
configurations is certified with overwhelming confidence (Schwartz-Zippel
style), without any symbolic engine.

The factorization being transformed is

    L4 - z0 = (T + chi2(n+1) - (V_{n-1} V_n / chi1(n-1)) T^{-1})
              (T - chi2(n) - chi1(n) T^{-1}),

with chi1(n) = -V_n (z0 - gamma_{n+1})/(z0 - gamma_n) and
chi2(n) = w/(z0 - gamma_n), w^2 = F(z0).  Swapping the factors and adding
z0 yields the transformed operator; :func:`crosscheck_window` checks its
four explicit band formulas against the swapped product.  chi1, chi2, the
left factor's T^{-1} band, the transformed bands, b_n and f_n without its
tail are ``DarbouxData`` methods behind one per-site memo, sharing the
memoised gaps z0 - gamma_n and their squares, so each is evaluated once per
site.

The chain equations are zero curvature: :func:`chain_residuals` reads them
from the bracket [d/dx - A, d/dy - B] of A = b T^{-1} + d T^{-2} and
B = T + f.  The Lax residuals (the x and y brackets here, the fourth-order
one in ``verify``) are built by :func:`lax_operator`, which takes dL and,
cut by one order, L from one operator's series (or jets), each cut
evaluated once per coefficient; the checks read it on one period with
``window``.  Both :func:`chain_residuals` and :func:`lax_operator`
assemble their bracket with ``operators.lax_residual``.

Both signs of w are certified from one evaluation.  w enters only through
the curve-point jet, and every formula here is a rational expression over Q
in the jet coefficients of the chain and of that point.  The map
sigma: a + b w -> a - b w is a field automorphism of Q(w) that fixes Q, so
it commutes with every such expression: the results at the sign -1 jet are
sigma of the results at the sign +1 jet, coefficient by coefficient
(``Jet.conjugate``, ``Series.conjugate``).  Every zero test is
sigma-invariant, since sigma is injective (x = 0 exactly when
sigma(x) = 0), so no branch taken here depends on the sign.  Code that
broke this -- a branch on the sign of a component, a float taken before a
zero test -- would make the two signs disagree; a differential test in the test suite runs both signs in full
against ``verify``'s evaluators to catch it.
"""

from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import cached_property, wraps

from .curves import SpectralCurve
from .elliptic import exact_wp_jet
from .errors import DegenerateConfigurationError, PoleError
from .flows import GammaChain, prolong_gamma_jets, vn_from_gamma, wn_from_gamma
from .operators import DifferenceOperator, build_l4, compose, lax_residual
from .scalars import Jet, QuadExt, Series, rational, scalar_value

__all__ = [
    "ChainSolution",
    "DarbouxData",
    "SolutionConstants",
    "chain_problem",
    "chain_residuals",
    "commutator_x_check",
    "commutator_y_check",
    "commutator_y_residual",
    "crosscheck_window",
    "darboux_data",
    "eigenfunction_step",
    "factorization_check",
    "lax_operator",
    "point_problem",
    "rank2_solution",
    "solve_tail_constants",
    "transformed_operator",
]


# ---------------------------------------------------------------------------
# Sample configurations
# ---------------------------------------------------------------------------

# the y-coefficients of a value constant in y
_NIL = Fraction(0)


def _per_site(formula):
    """Memoise ``formula(data, m)`` under its name and the site modulo the period."""
    name = formula.__name__

    @wraps(formula)
    def at_site(data, n):
        key = (name, n % data.period)
        hit = data._site_cache.get(key)
        if hit is None:
            hit = formula(data, key[1])
            data._site_cache[key] = hit
        return hit

    return at_site


@dataclass(frozen=True, eq=False)
class DarbouxData:
    """Jet-equipped sample configuration shared by all residual suites.

    ``chain`` holds the exact x-jets of gamma_n and ``point`` the exact
    y-jet of the curve point, one order above the working orders.  They
    enter the tower as ``gamma``/``dgamma`` and ``z0``/``w``: base values
    at orders (0, 0) (chain values as ``zero + c``), a ``Series`` along the
    live variable when the other order is 0 (chain values from their ints;
    the y-series in s = w*y), and the nested Jet_x(Jet_y(base)) when both
    orders are at least 1.  Site lookups reduce modulo the period, every
    per-site formula is a method memoised in ``_site_cache``, and
    ``_copies`` holds the shared copies of :meth:`truncated`.

    ``jets`` is the ``GammaChain`` the chain came from, whose memo keeps
    V_n and W_n per x-order for every configuration on it.  A
    configuration given no ``jets``, or another chain or curve than its
    ``jets`` holds (``replace(data, chain=...)``), starts a chain memo of
    its own, so it never reads another chain's couplings."""

    curve: SpectralCurve
    chain: tuple
    point: Jet
    x_order: int
    y_order: int
    jets: GammaChain = field(default=None, repr=False)

    def __post_init__(self):
        # the chain's own memo is shared with every configuration on the
        # same chain; one given another chain or curve starts its own
        jets = self.jets
        if jets is None or jets.values != self.chain or jets.curve != self.curve:
            object.__setattr__(self, "jets", GammaChain(self.chain, self.curve))
        # per-site memo table and lower-order copies; nothing stored changes
        object.__setattr__(self, "_site_cache", {})
        object.__setattr__(self, "_copies", {})

    @property
    def period(self):
        return len(self.chain)

    def gamma_at(self, n):
        return self.gamma[n % self.period]

    def dgamma_at(self, n):
        return self.dgamma[n % self.period]

    def truncated(self, x_order, y_order):
        """The configuration at orders (x_order, y_order): itself at its own
        orders, else one copy per lower pair, shared with its copies, whose
        memo starts empty; a higher or a negative x or y order raises
        ``ValueError`` before any copy is made."""
        orders = (x_order, y_order)
        if orders == (self.x_order, self.y_order):
            return self
        if x_order > self.x_order or y_order > self.y_order:
            raise ValueError(f"cannot extend orders {(self.x_order, self.y_order)} to {orders}")
        if x_order < 0 or y_order < 0:
            raise ValueError(f"cannot cut orders {(self.x_order, self.y_order)} to {orders}: "
                             "orders start at 0")
        copy = self._copies.get(orders)
        if copy is None:
            copy = self._copies[orders] = replace(self, x_order=x_order, y_order=y_order)
            object.__setattr__(copy, "_copies", self._copies)
        return copy

    def _tower(self, rows):
        """The tower element whose x-coefficient k has the y-coefficients
        ``rows[k]``: the nested Jet_x(Jet_y(base)) when both orders are at
        least 1, one :class:`Series` along the live variable (the y-series
        in s = w*y) when the other order is 0, and a base value at (0, 0)."""
        if self.x_order and self.y_order:
            return Jet(tuple(Jet(tuple(r)) for r in rows))
        if self.x_order:
            return Series([r[0] for r in rows])
        if self.y_order:
            return Series(rows[0], scaled=True)
        return rows[0][0]

    _zero = cached_property(lambda self: self.point.coeffs[0] * 0)
    # the point's field: its discriminant, or None over Q
    _disc = cached_property(lambda self: getattr(self.point.coeffs[0], "disc", None))

    def _lift_x(self, coeffs):
        """Exact x-coefficients as a tower element constant in y.  A series
        is built from the coefficients' ints (:meth:`Series.over`); a base
        value at (0, 0) and the nested tower take ``zero + c``."""
        x, y = self.x_order, self.y_order
        if not (x or y):
            return self._zero + coeffs[0]
        if x and y:
            pad = (self._zero,) * y
            return self._tower([(self._zero + c,) + pad for c in coeffs[: x + 1]])
        if x:
            return Series.over(self._disc, coeffs[: x + 1])
        return Series.over(self._disc, (coeffs[0],) + (_NIL,) * y, scaled=True)

    def _lift_y(self, coeffs):
        """y-coefficients of the point's field as a tower element constant in x."""
        pad = [(self._zero,) * (self.y_order + 1)] * self.x_order
        return self._tower([coeffs[: self.y_order + 1]] + pad)

    # the sources in the tower, lifted on first use
    gamma = cached_property(lambda self: tuple(self._lift_x(j.coeffs) for j in self.chain))
    dgamma = cached_property(lambda self: tuple(self._lift_x(j.coeffs[1:]) for j in self.chain))
    z0 = cached_property(lambda self: self._lift_y(self.point.coeffs))
    w = cached_property(lambda self: self._lift_y(self.point.coeffs[1:]))

    def _couplings(self, name, of_gamma):
        """``of_gamma`` (V_n or W_n) evaluated over Q on the exact x-jets at
        the working x-order (values at x-order 0), then lifted into the
        tower.  The evaluation is kept under ``(name, x-order)`` in the
        chain's memo (``GammaChain.shared``), so it runs once for every
        configuration on one chain: its copies, the tail solve's probes and
        lax-y's control."""
        x = self.x_order

        def evaluate():
            sites = [j.truncate(x) if x else j.coeffs[0] for j in self.chain]
            return tuple(of_gamma(sites, self.curve))

        induced = self.jets.shared((name, x), evaluate)
        return tuple(self._lift_x(c.coeffs if x else (c,)) for c in induced)

    _v = cached_property(lambda self: self._couplings("V", vn_from_gamma))
    _w = cached_property(lambda self: self._couplings("W", wn_from_gamma))

    @cached_property
    def _f_z0(self):
        return self.curve.eval(self.z0)

    def v_at(self, n):
        return self._v[n % self.period]

    def w_site(self, n):
        return self._w[n % self.period]

    @_per_site
    def gap(self, m):
        """``z0 - gamma_m``, the factor every formula below divides by."""
        return self.z0 - self.gamma_at(m)

    @_per_site
    def gap_squared(self, m):
        """``gap(m)**2``, which ``a0``, ``am1`` and ``b`` read."""
        return self.gap(m) ** 2

    @_per_site
    def chi1(self, m):
        return -self.v_at(m) * self.gap(m + 1) / self.gap(m)

    @_per_site
    def chi2(self, m):
        return self.w / self.gap(m)

    @_per_site
    def left_lower(self, m):
        """``-V_{m-1} V_m / chi1(m-1)``, the ``T^{-1}`` band of the left factor."""
        chi = self.chi1(m - 1)
        if scalar_value(chi) == 0:
            raise PoleError(f"chi1 vanishes at site {(m - 1) % self.period}")
        return -(self.v_at(m - 1) * self.v_at(m) / chi)

    @_per_site
    def a1(self, m):
        g = self.gamma_at
        return (g(m + 2) - g(m)) * self.w / (self.gap(m) * self.gap(m + 2))

    @_per_site
    def a0(self, m):
        num = (
            self.v_at(m) * self.gap_squared(m + 1)
            + self.v_at(m + 1) * self.gap_squared(m)
            - self._f_z0
        )
        return num / (self.gap(m) * self.gap(m + 1)) + self.z0

    @_per_site
    def am1(self, m):
        g = self.gamma_at
        return (g(m - 1) - g(m + 1)) * self.v_at(m) * self.w / self.gap_squared(m)

    @_per_site
    def d(self, m):
        """The ``T^{-2}`` band of the transformed operator and the ``d_n`` of
        the solution family."""
        return (
            self.v_at(m - 1)
            * self.v_at(m)
            * self.gap(m - 2)
            * self.gap(m + 1)
            / (self.gap(m - 1) * self.gap(m))
        )

    @_per_site
    def b(self, m):
        return -self.w * self.dgamma_at(m) / self.gap_squared(m)

    @_per_site
    def f_core(self, m):
        """``f_m`` without its tail ``g_m``."""
        g = self.gamma_at
        return -self.w * (g(m) - g(m + 1)) / (self.gap(m) * self.gap(m + 1))


def darboux_data(jet_chain, wp_jet):
    """Assemble the jet-equipped configuration from source jets.

    ``jet_chain`` carries exact x-jets of gamma (order K >= 1); ``wp_jet``
    carries the exact y-jet of the curve point (order >= 1), over Q(w) or
    Q.  Working orders come out one lower than the sources, so gamma and
    gamma' (and z0 and z0') share a uniform shape.  Chain values enter the
    point's field (see :class:`DarbouxData`); a chain jet with a coefficient
    that is not a Fraction or a QuadExt (a float) raises ``TypeError``
    naming its site.  The configuration keeps ``jet_chain`` as its
    ``jets``: every configuration built on one chain object shares that
    chain's memo of V_n and W_n.

    Validates by exact ``==`` that the suites' denominators cannot vanish:
    z0 off the curve's branch points (w, with w^2 = F(z0), is a divisor),
    adjacent gammas distinct, z0 off the chain, and the chain off the
    curve's branch points (V_n must be invertible for the factors).
    """
    x_ord = jet_chain.values[0].order - 1
    if x_ord < 0:
        raise ValueError("gamma jets must carry at least one derivative")
    if wp_jet.order < 1:
        raise ValueError("the curve-point jet must carry at least one derivative")
    base = wp_jet.coeffs[0]
    period = jet_chain.period

    if jet_chain.curve.eval(base) == 0:
        raise PoleError("z0 is a branch point of the curve (F(z0) = 0)")
    raw = [j.coeffs for j in jet_chain.values]
    for n in range(period):
        after = (n + 1) % period
        if not all(isinstance(c, (Fraction, QuadExt)) for c in raw[n]):
            raise TypeError(f"gamma jet at site {n} is not exact: {jet_chain.values[n]!r}")
        if raw[n][0] == raw[after][0]:
            raise DegenerateConfigurationError(
                (n, after), f"gamma collision between sites {n} and {after}"
            )
        if raw[n][0] == base:
            raise PoleError(f"z0 collides with gamma at site {n}")
        if jet_chain.curve.eval(raw[n][0]) == 0:
            raise PoleError(
                f"gamma at site {n} is a branch point of the curve (V_n = 0)"
            )
    return DarbouxData(
        jet_chain.curve, jet_chain.values, wp_jet, x_ord, wp_jet.order - 1, jet_chain
    )


def chain_problem(curve, gamma):
    """Why the exact chain ``gamma`` cannot be transformed, or None.  The
    formulas divide by V_n (zero at a root of F, neighbour differences below)
    and by b_n ~ gamma_{n-1} - gamma_{n+1}: so the period is at least 3, no
    value is a root of F, and neighbours and second neighbours differ."""
    period = len(gamma)
    if period < 3:
        return "the lattice stencil needs period >= 3"
    for site, g in enumerate(gamma):
        if curve.eval(g) == 0:
            return f"{g} at site {site} is a branch point of the curve"
        after, across = (site + 1) % period, (site + 2) % period
        if g == gamma[after]:
            return f"sites {site} and {after} hold the same value {g}"
        if g == gamma[across]:
            return (
                f"sites {site} and {across} hold the same value {g}, "
                f"so gamma_{after}' = 0 and b vanishes at site {after}"
            )


def point_problem(curve, gamma, z0, disc=None):
    """Why ``z0`` cannot be used with ``gamma``, or None: w^2 = F(z0) and
    every gap z0 - gamma_n are divisors.  ``disc`` is F(z0) when the caller
    has evaluated it already."""
    if (curve.eval(z0) if disc is None else disc) == 0:
        return f"{z0} is a branch point of the curve (F(z0) = 0)"
    if z0 in gamma:
        return f"{z0} lies on the chain (site {gamma.index(z0)})"


# ---------------------------------------------------------------------------
# Factorization and the transformed operator
# ---------------------------------------------------------------------------

def _left_factor(data):
    """``T + chi2(n+1) - (V_{n-1} V_n / chi1(n-1)) T^{-1}``."""
    return DifferenceOperator.from_bands(
        {1: lambda n: 1, 0: lambda n: data.chi2(n + 1), -1: data.left_lower}
    )


def _right_factor(data):
    """``T - chi2(n) - chi1(n) T^{-1}``."""
    return DifferenceOperator.from_bands(
        {1: lambda n: 1, 0: lambda n: -data.chi2(n), -1: lambda n: -data.chi1(n)}
    )


def factorization_check(data):
    """One-period window of ``(left factor)(right factor) - (L4 - z0)``;
    exactly zero whenever the conserved-curve relation holds (any
    distinct-neighbor chain).  Read at orders (0, 0).
    """
    data = data.truncated(0, 0)
    l4 = build_l4(data.v_at, data.w_site)
    z_term = DifferenceOperator.from_bands({0: lambda n: data.z0})
    residual = compose(_left_factor(data), _right_factor(data)) - (l4 - z_term)
    return residual.window(0, data.period - 1)


def transformed_operator(data):
    """The Darboux-transformed operator, in explicit band form:
    ``T^2 + A1 T + A0 + A_{-1} T^{-1} + A_{-2} T^{-2}`` with

        A1   = (gamma_{n+2} - gamma_n) z0' / ((z0 - gamma_n)(z0 - gamma_{n+2})),
        A0   = (V_n (z0 - gamma_{n+1})^2 + V_{n+1} (z0 - gamma_n)^2 - F(z0))
               / ((z0 - gamma_n)(z0 - gamma_{n+1})) + z0,
        A_{-1} = (gamma_{n-1} - gamma_{n+1}) V_n z0' / (z0 - gamma_n)^2,
        A_{-2} = V_{n-1} V_n (z0 - gamma_{n-2})(z0 - gamma_{n+1})
               / ((z0 - gamma_{n-1})(z0 - gamma_n)),

    where z0' is the y-derivative jet of the curve point (w at the point);
    the bands are the memoised ``DarbouxData`` methods ``a1``,
    ``a0``, ``am1`` and ``d``.
    """
    return DifferenceOperator.from_bands(
        {2: lambda n: 1, 1: data.a1, 0: data.a0, -1: data.am1, -2: data.d}
    )


def crosscheck_window(data):
    """One-period window of :func:`transformed_operator` minus the swapped
    factor product plus z0, at orders (0, 0); exactly zero when the band
    formulas hold."""
    data = data.truncated(0, 0)
    swapped = compose(_right_factor(data), _left_factor(data))
    z_term = DifferenceOperator.from_bands({0: lambda n: data.z0})
    return (transformed_operator(data) - (swapped + z_term)).window(0, data.period - 1)


# ---------------------------------------------------------------------------
# The rank-two solution family and its residual suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionConstants:
    """Free constants of the oscillating tail g_n; order matches the CLI.
    Each is read by :func:`scalars.rational`: a bool or a float raises
    ``TypeError``, a malformed string ``ValueError``, naming the field."""

    s0: Fraction = Fraction(0)
    k0: Fraction = Fraction(0)
    p0: Fraction = Fraction(0)
    s1: Fraction = Fraction(0)
    k1: Fraction = Fraction(0)
    p1: Fraction = Fraction(0)

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            try:
                object.__setattr__(self, name, rational(getattr(self, name)))
            except (TypeError, ValueError) as err:
                raise type(err)(f"tail constant {name}: {err}") from None

    def is_zero(self):
        return not (self.s0 or self.k0 or self.p0 or self.s1 or self.k1 or self.p1)


@dataclass(frozen=True, eq=False)
class ChainSolution:
    """Site functions (b_n, d_n, f_n, g_n) of the rank-two solution family.

    With z0 = wp(y) on the curve and gamma on the lattice flow:

        b_n = -z0' gamma_n' / (z0 - gamma_n)^2,
        d_n = F(gamma_{n-1}) F(gamma_n) (z0 - gamma_{n-2})(z0 - gamma_{n+1})
              / ( (gamma_{n-2} - gamma_{n-1}) (gamma_{n-1} - gamma_n)^2
                  (gamma_n - gamma_{n+1}) (z0 - gamma_{n-1})(z0 - gamma_n) ),
        f_n = -z0' (gamma_n - gamma_{n+1})
              / ((z0 - gamma_n)(z0 - gamma_{n+1})) + g_n,
        g_n = (-1)^n ((n s1 + s0) z0^2 + (n k1 + k0) z0 + (n p1 + p0)) / z0'.

    With V_n = F(gamma_n) / ((gamma_n - gamma_{n-1})(gamma_n - gamma_{n+1})),
    d_n is the T^{-2} band A_{-2} of the transformed operator; both read it
    from one formula.

    The g tail uses the literal site index (it is only 4-periodic when the
    n-linear constants vanish), so providers take true integers.
    """

    data: DarbouxData
    constants: SolutionConstants

    def __post_init__(self):
        # f and g memos, and the copies of truncated(); nothing stored changes
        object.__setattr__(self, "_f_cache", {})
        object.__setattr__(self, "_g_cache", {})
        object.__setattr__(self, "_copies", {})

    def g(self, n):
        c = self.constants
        if c.is_zero():
            return self.data.z0 * 0
        if not (c.s1 or c.k1 or c.p1):
            n %= 2  # then g_n is (-1)^n times one quotient: one value per parity
        hit = self._g_cache.get(n)
        if hit is None:
            z0 = self.data.z0
            quad = (n * c.s1 + c.s0) * z0**2 + (n * c.k1 + c.k0) * z0 + (n * c.p1 + c.p0)
            hit = self._g_cache[n] = (-1 if n % 2 else 1) * quad / self.data.w
        return hit

    def f(self, n):
        hit = self._f_cache.get(n)
        if hit is None:
            hit = self.data.f_core(n) + self.g(n)
            self._f_cache[n] = hit
        return hit

    def b(self, n):
        return self.data.b(n)

    def d(self, n):
        return self.data.d(n)

    def truncated(self, x_order, y_order):
        """The same solution on ``data.truncated(x_order, y_order)``: itself
        at its data's orders, else one copy per lower pair, shared with its
        copies as ``DarbouxData.truncated`` shares its own."""
        data = self.data.truncated(x_order, y_order)
        if data is self.data:
            return self
        copy = self._copies.get(data)
        if copy is None:
            copy = self._copies[data] = ChainSolution(data, self.constants)
            object.__setattr__(copy, "_copies", self._copies)
        return copy


def rank2_solution(data, constants=None):
    return ChainSolution(data=data, constants=constants or SolutionConstants())


def chain_residuals(sol, n):
    """Residuals of the three chain equations at site ``n``:

        R1 = f_{n,x} - b_n + b_{n+1},
        R2 = f_{n-2} - f_n + d_{n,y} / d_n,
        R3 = f_{n-1} - f_n + b_{n,y} / b_n + (d_n - d_{n+1}) / b_n.

    The chain equations are the zero curvature of A = b T^{-1} + d T^{-2}
    and B = T + f: the bracket [d/dx - A, d/dy - B], which is
    ``lax_residual(A, A_y - B_x, B)``, has the bands T^0 = -R1,
    T^{-1} = b_n R3 and T^{-2} = d_n R2 at site n, and no others.

    Returned as base-field elements (exact extension scalars).  No mixed
    derivative enters: values and y-derivatives are read at orders (0, 1),
    f_{n,x} at (1, 0).  Requires working jet orders >= (1, 1).
    """
    data = sol.data
    if data.x_order < 1 or data.y_order < 1:
        raise ValueError("chain residuals need jet orders >= (1, 1)")
    on_x, on_y = sol.truncated(1, 0), sol.truncated(0, 1)
    part = lambda site, k: lambda m: site(m).coeffs[k]  # value k = 0, slope k = 1
    d_val, b_val = on_y.d(n).coeffs[0], on_y.b(n).coeffs[0]
    for name, val in (("d", d_val), ("b", b_val)):
        if val == 0:
            raise PoleError(f"{name} vanishes at site {n}")
    band = DifferenceOperator.from_bands
    a_op = band({-1: part(on_y.b, 0), -2: part(on_y.d, 0)})
    b_op = band({1: lambda m: 1, 0: part(on_y.f, 0)})
    a_y_minus_b_x = band(
        {0: lambda m: -on_x.f(m).coeffs[1], -1: part(on_y.b, 1), -2: part(on_y.d, 1)}
    )
    bands = lax_residual(a_op, a_y_minus_b_x, b_op).coeff
    return -bands(0, n), bands(-2, n) / d_val, bands(-1, n) / b_val


def lax_operator(l_op, a_op):
    """The Lax residual ``dL + [L, A]`` as an operator.

    ``l_op`` carries one more order of its series (or jets) than the
    residual: dL is its coefficient-wise derivative, and the L of the
    bracket is the same coefficients truncated by one order (truncation
    commutes with the field operations, so this equals L rebuilt at the
    lower order).
    ``a_op`` is given at the residual's order.  The checks differentiate
    along the one live variable of a configuration whose other order is 0,
    so that is a series; the fourth-order bracket in ``verify`` passes x-jets
    over Q.  Coefficients that are neither are constants.  Coefficients are
    evaluated only when read.  The bracket's two products read each
    coefficient of L several times, so the cut is kept per ``(j, n)``
    (:meth:`DifferenceOperator.cached`): each cut, like each derivative,
    is evaluated once.  A partner whose coefficients are cuts too (the
    x-bracket's) is passed the same way by its caller.
    """

    def derive(c):
        return c.derivative() if isinstance(c, (Jet, Series)) else 0

    def cut(c):
        return c.truncate(c.order - 1) if isinstance(c, (Jet, Series)) else c

    return lax_residual(l_op.map_coeffs(cut).cached(), l_op.map_coeffs(derive), a_op)


def commutator_x_check(data):
    """One-period window of the x-Lax residual
    ``d/dx(Ltilde) + [Ltilde, b T^{-1} + d T^{-2}]``.

    The partner's bands are read from the same configuration as Ltilde (d
    is Ltilde's own ``T^{-2}`` band, behind the same memo) and cut by one
    x-order, as :func:`lax_operator` cuts Ltilde: once per coefficient.
    Exactly zero when gamma follows the lattice flow; the constants play no
    role (b and d do not contain them).  Runs on x-series over the base.
    Requires x-order >= 1.
    """
    if data.x_order < 1:
        raise ValueError("the x-commutator check needs x-jet order >= 1")
    d_hi = data.truncated(data.x_order, 0)
    a_op = DifferenceOperator.from_bands({-1: d_hi.b, -2: d_hi.d})
    a_op = a_op.map_coeffs(lambda c: c.truncate(c.order - 1)).cached()
    return lax_operator(transformed_operator(d_hi), a_op).window(0, data.period - 1)


def commutator_y_residual(data, constants=None):
    """The y-Lax residual ``d/dy(Ltilde) + [Ltilde, T + f]`` as an operator.

    Exactly zero when the curve-point jet satisfies the Weierstrass ODE
    (that is what ties z0'' to F'(z0)/2); a jet violating it is the standard
    negative control.  Runs on y-series over the base, stored in s = w*y.
    Requires y-order >= 1.
    """
    if data.y_order < 1:
        raise ValueError("the y-commutator check needs y-jet order >= 1")
    d_hi = data.truncated(0, data.y_order)
    sol = rank2_solution(d_hi.truncated(0, data.y_order - 1), constants)
    b_op = DifferenceOperator.from_bands({1: lambda n: 1, 0: sol.f})
    return lax_operator(transformed_operator(d_hi), b_op)


def commutator_y_check(data, constants=None):
    """One-period window of :func:`commutator_y_residual`.

    The check reads every coefficient.  A negative control (the
    ``lax-y`` suite's bumped z0'') needs only one nonzero coefficient, so it
    reads the same residual with ``first_nonzero``, which stops there.  That
    hides no pole: the bump changes z0'' alone, so the control's
    denominators are the check's, and the check has evaluated all of them.
    """
    return commutator_y_residual(data, constants).window(0, data.period - 1)


def eigenfunction_step(data, psi_prev, psi_cur, n):
    """Two-term recursion ``psi_{n+1} = chi1(n) psi_{n-1} + chi2(n) psi_n``.

    Sequences generated this way are joint eigenfunctions: applying the
    fourth-order operator reproduces ``z0 * psi`` exactly at curve points.
    """
    return data.chi1(n) * psi_prev + data.chi2(n) * psi_cur


# ---------------------------------------------------------------------------
# Flow-determined tail constants
# ---------------------------------------------------------------------------

def solve_tail_constants(chain):
    """Solve for the tail constants (s0, k0, p0) that close the chain equations.

    With the tail absent, the first two chain residuals vanish identically but
    the third is an alternating gap of the exact form

        R3 = 2 (-1)^n (s0 z0^2 + k0 z0 + p0) / z0',

    with coefficients depending only on the chain (they are invariants of the
    lattice flow: the full jet of R3 vanishes once they are subtracted).  The
    oscillating tail g_n exists precisely to cancel this gap, which pins its
    constants: evaluating the gap at three curve points and solving the
    Vandermonde system recovers them exactly.  The n-linear constants
    (s1, k1, p1) must stay zero for a 4-periodic chain: they shift the second
    residual by 2 (-1)^n (s1 z0^2 + k1 z0 + p1) / z0', which nothing cancels.

    The three curve points are the first three of the six integers
    int(max|gamma_n|) + 2, ..., + 7 that :func:`point_problem` admits: each
    lies past every gamma_n, and F vanishes at no more than three of them.
    The gap is read from a configuration at orders (1, 1) per point.

    ``chain`` holds rational values, which are prolonged here to x-order 2,
    or their x-jets of order at least 2, as :func:`prolong_gamma_jets`
    returns them, which are read as they are.  A suite passes the jets its
    own check is built on: the probes then share that one prolongation and
    the chain's memo of V_n (``GammaChain.shared``) with the check.  A value
    that is not a Fraction (a float, or a QuadExt of a chain over Q(w))
    raises ``TypeError`` naming its site before anything is evaluated.
    """
    values = [scalar_value(v) for v in chain.values]
    for n, v in enumerate(values):
        if type(v) is not Fraction:
            raise TypeError(
                f"gamma at site {n} is a {type(v).__name__}, not a Fraction: "
                f"the tail solve needs a rational chain, got {v!r}"
            )
    curve = chain.curve
    jets = chain if isinstance(chain.values[0], Jet) else prolong_gamma_jets(chain, 2)
    if jets.values[0].order < 2:
        raise ValueError(
            f"the tail solve reads x-jets of order >= 2, got order {jets.values[0].order}"
        )

    start = int(max(abs(v) for v in values)) + 2
    candidates = (Fraction(start + i) for i in range(6))
    probes = [p for p in candidates if not point_problem(curve, values, p)][:3]

    gaps = []
    for p in probes:
        data = darboux_data(jets, exact_wp_jet(curve, p, order=2))
        r3 = chain_residuals(rank2_solution(data), 0)[2]
        if r3.a != 0:
            raise ValueError("unexpected gap structure (even component present)")
        gaps.append(r3.b * curve.eval(p) / 2)

    # Newton divided differences of the quadratic s0 p^2 + k0 p + p0
    (p1, g1), (p2, g2), (p3, g3) = zip(probes, gaps)
    d12 = (g2 - g1) / (p2 - p1)
    s0 = ((g3 - g2) / (p3 - p2) - d12) / (p3 - p1)
    k0 = d12 - s0 * (p1 + p2)
    return SolutionConstants(s0=s0, k0=k0, p0=g1 - (k0 + s0 * p1) * p1)
