"""Exact scalar kernels: rationals, quadratic extensions, truncated series.

Everything downstream (operators, flows, Darboux residuals) is generic in the
scalar, so one code path serves exact identity verification and floating-point
simulation; this module holds the exact kinds only.  Floats take Python's and
numpy's own arithmetic, and their collision rule lives in :mod:`laxchain.flows`,
its only user.  Four exact kinds are used:

* exact rationals -- :class:`fractions.Fraction` (always in lowest terms,
  positive denominator, never rounded);
* :class:`QuadExt` -- elements ``a + b*w`` of Q(w), with a formal square
  root ``w`` of a fixed rational discriminant ``D``;
* :class:`Jet` -- truncated Taylor data ``(value, f', ..., f^(K))`` propagated
  through arithmetic by the Leibniz rule.  Jets nest: a jet whose coefficients
  are jets in a second variable carries mixed partial derivatives;
* :class:`Series` -- one truncated series over Q(w) or Q held fraction-free:
  Taylor coefficient k is ``(a_k + b_k w) / d`` with int ``a_k``, ``b_k`` and
  one int ``d > 0``, reduced by one gcd per result (the move fraction-free
  elimination makes; Bareiss, *Math. Comp.* 22, 1968), so a product is a
  Cauchy product of ints with no Fraction per coefficient (Griewank &
  Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).  ``coeffs`` gives the
  raw derivatives a Jet over the same field holds.  A series along the
  curve point is stored in ``s = w*y`` (see :class:`Series`), and
  :meth:`Series.over` builds one of rational coefficients from their ints.

Most QuadExt components are exact zeros (an embedded rational has
``b == 0``), so QuadExt products skip them: a skipped Fraction product yields
``Fraction(0)`` and a skipped sum passes the other Fraction through -- the
value and the type the full formula would give.  Jets run the plain Leibniz
sum and quotient recurrence.  Two jets, of any order, combine only when their
coefficients share one exact *kind* (``Fraction``, a QuadExt discriminant, or
a jet order over a kind), computed once when a jet is built; jets of floats,
of ints or of mixed kinds raise ``TypeError``.

Every component of a QuadExt sum, product or quotient, and every
coefficient sum, Leibniz term and quotient between two jets, goes through
four helpers (``_add``, ``_sub``, ``_mul``, ``_div``).  For two
Fractions, or a Fraction and an int (for ``_div``: a Fraction divisor),
they combine the operands' integers directly: they read the ``_numerator``
and ``_denominator`` slots, run the stdlib's own gcd formulas (Henrici's;
Knuth, *TAOCP* Vol. 2, 4.5.1) and build the lowest-terms result through
``object.__new__`` and the two slot setters.  The result is the Fraction
the operator would give, equal in value, type and hash; what is skipped is
the operator's dispatch (``Fraction``'s fallback wrappers, its isinstance
tests, the ``numerator`` properties and ``Fraction.__new__``).  Any other
pair -- a float, a bool, a Fraction subclass, a QuadExt or a jet -- takes
the plain operator.

All values are immutable after construction and safe to share between
threads; a series' cached ``coeffs`` is a function of what it holds, so
concurrent fills agree.
"""

from fractions import Fraction
from math import comb, factorial, gcd, isqrt, lcm, sqrt

__all__ = [
    "Fraction",
    "Jet",
    "QuadExt",
    "Series",
    "format_scalar",
    "is_rational_square",
    "rational",
    "scalar_abs",
    "scalar_value",
]


def rational(value):
    """Coerce ``value`` to an exact :class:`Fraction`.

    Accepts Fractions, ints, and strings ("3/7", "-2", "1.25").  Floats are
    rejected: their exact binary expansion is rarely what the caller meant.
    So are bools, which are ints only by inheritance.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot coerce {type(value).__name__} to an exact rational")


def is_rational_square(q):
    """True when the rational ``q`` is the square of a rational; ``q`` is
    read by :func:`rational`, so a float raises ``TypeError``."""
    q = rational(q)
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


# Exact zero that a skipped Fraction product or quotient returns: equal to,
# and of the same type as, the product it stands for.  The zero tests below
# read the Fraction's own ``_numerator`` slot, which skips the ``numerator``
# property and ``Fraction.__bool__``.
_ZERO = Fraction(0)
# Base-field operands of QuadExt arithmetic: ints and Fractions.
_EXACT = (int, Fraction)
_new = object.__new__
_set_numerator = Fraction._numerator.__set__
_set_denominator = Fraction._denominator.__set__


def _frac(n, d):
    """Fraction ``n/d`` from coprime ints with ``d > 0``, unchecked: the
    stdlib's lowest-terms form, built without ``Fraction.__new__``."""
    q = _new(Fraction)
    _set_numerator(q, n)
    _set_denominator(q, d)
    return q


def _sum(na, da, nb, db):
    """``na/da + nb/db`` in lowest terms (Henrici's gcd formula, as the stdlib)."""
    g = gcd(da, db)
    if g == 1:
        return _frac(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _frac(t, s * db)
    return _frac(t // g2, s * (db // g2))


def _prod(na, da, nb, db):
    """``(na/da) * (nb/db)`` in lowest terms for ``da, db > 0``: the
    cross gcds cancel before the multiplication, as in the stdlib."""
    if not (na and nb):
        return _ZERO
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _frac(na * nb, da * db)


def _add(x, y):
    """``x + y``.  Two Fractions, or a Fraction and an int, combine on
    their integers (see the module docstring); a Fraction zero passes the
    other Fraction through.  Anything else takes the plain operator."""
    if type(x) is Fraction:
        if type(y) is Fraction:
            if not x._numerator:
                return y
            if not y._numerator:
                return x
            return _sum(x._numerator, x._denominator, y._numerator, y._denominator)
        if type(y) is int:
            return _frac(x._numerator + y * x._denominator, x._denominator)
    elif type(x) is int and type(y) is Fraction:
        return _frac(x * y._denominator + y._numerator, y._denominator)
    return x + y


def _sub(x, y):
    """``x - y``, combined as in :func:`_add`; a Fraction zero on either
    side skips the subtraction."""
    if type(x) is Fraction:
        if type(y) is Fraction:
            if not y._numerator:
                return x
            if not x._numerator:
                return _frac(-y._numerator, y._denominator)
            return _sum(x._numerator, x._denominator, -y._numerator, y._denominator)
        if type(y) is int:
            return _frac(x._numerator - y * x._denominator, x._denominator)
    elif type(x) is int and type(y) is Fraction:
        return _frac(x * y._denominator - y._numerator, y._denominator)
    return x - y


def _mul(x, y):
    """``x * y``, combined as in :func:`_add`; a Fraction zero on either
    side gives the Fraction zero."""
    if type(x) is Fraction:
        if type(y) is Fraction:
            return _prod(x._numerator, x._denominator, y._numerator, y._denominator)
        if type(y) is int:
            return _prod(x._numerator, x._denominator, y, 1)
    elif type(x) is int and type(y) is Fraction:
        return _prod(x, 1, y._numerator, y._denominator)
    return x * y


def _div(x, y):
    """``x / y``.  A Fraction divisor under a Fraction or an int combines
    on their integers (see the module docstring): a zero divisor raises
    ``ZeroDivisionError``, and only then does a zero dividend give the
    Fraction zero.  Anything else takes the plain operator, an int divisor
    included: the tower divides by one only where a curve jet halves a
    coefficient, and those few divisions are the stdlib ones left for the
    benchmark's per-suite Fraction division counts to see."""
    if type(y) is Fraction:
        if type(x) is Fraction:
            na, da = x._numerator, x._denominator
        elif type(x) is int:
            na, da = x, 1
        else:
            return x / y
        nb = y._numerator
        if not nb:
            raise ZeroDivisionError("Fraction division by zero")
        if nb < 0:
            return _prod(-na, da, y._denominator, -nb)
        return _prod(na, da, y._denominator, nb)
    return x / y


def _neg(x):
    """``-x``; a Fraction zero is its own negative."""
    if type(x) is Fraction:
        return _frac(-x._numerator, x._denominator) if x._numerator else x
    return -x


class QuadExt:
    """``a + b*w`` in Q(w), ``w**2 = disc``: ``a``, ``b`` and ``disc`` are
    Fractions, always.  The constructor coerces them with :func:`rational`
    (floats and bools raise ``TypeError``); operations take ints and
    Fractions only (a float operand raises ``TypeError``), so they build
    their results unchecked.

    The discriminant is fixed per element; mixing elements with different
    discriminants raises.  Zero testing (``x == 0``) checks both components,
    which is a sound nonzero certificate whenever ``disc`` is not a rational
    square; callers that need that guarantee should sample discriminants
    accordingly (see :func:`is_rational_square`).  No simplification is
    attempted when ``disc`` happens to be a square.

    An int or Fraction operand acts on the components directly.  Terms with
    a zero factor are skipped (see the module docstring); an element with
    ``b == 0`` equals, and hashes as, ``a``.
    """

    __slots__ = ("a", "b", "disc")

    def __init__(self, a, b, disc):
        _set_a(self, rational(a))
        _set_b(self, rational(b))
        _set_disc(self, rational(disc))

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def _check_disc(self, other):
        if other.disc is not self.disc and other.disc != self.disc:
            raise ValueError(
                f"mixing quadratic extensions with different discriminants "
                f"({self.disc} vs {other.disc})"
            )

    def __add__(self, other):
        if isinstance(other, QuadExt):
            self._check_disc(other)
            return _quad(_add(self.a, other.a), _add(self.b, other.b), self.disc)
        if isinstance(other, _EXACT):
            return _quad(_add(self.a, other), self.b, self.disc)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QuadExt):
            self._check_disc(other)
            return _quad(_sub(self.a, other.a), _sub(self.b, other.b), self.disc)
        if isinstance(other, _EXACT):
            return _quad(_sub(self.a, other), self.b, self.disc)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _EXACT):
            return _quad(_sub(other, self.a), _neg(self.b), self.disc)
        return NotImplemented

    def __mul__(self, other):
        a, b = self.a, self.b
        if isinstance(other, QuadExt):
            self._check_disc(other)
            c, d = other.a, other.b
            # zero components are the common case (embedded base-field values)
            if not b._numerator:
                return _quad(_mul(a, c), _mul(a, d), self.disc)
            if not d._numerator:
                return _quad(_mul(a, c), _mul(b, c), self.disc)
            return _quad(
                _add(_mul(a, c), _mul(_mul(self.disc, b), d)),
                _add(_mul(a, d), _mul(b, c)),
                self.disc,
            )
        if isinstance(other, _EXACT):
            if not b._numerator:
                return _quad(_mul(a, other), _ZERO, self.disc)
            return _quad(_mul(a, other), _mul(b, other), self.disc)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QuadExt):
            self._check_disc(other)
            c, d = other.a, other.b
        elif isinstance(other, _EXACT):
            c, d = other, 0
        else:
            return NotImplemented
        a, b, disc = self.a, self.b, self.disc
        # (a + b w)/c = a/c + (b/c) w;  (a + b w)/(d w) = b/d + (a/(disc d)) w
        if not d:
            if not c:
                raise ZeroDivisionError(_ZERO_DIVISOR)
            return _quad(_div(a, c), _div(b, c), disc)
        if not c:
            if not disc:
                raise ZeroDivisionError(_ZERO_DIVISOR)
            return _quad(_div(b, d), _div(a, _mul(disc, d)), disc)
        nrm = _sub(_mul(c, c), _mul(_mul(disc, d), d))
        if not nrm._numerator:
            raise ZeroDivisionError(_ZERO_DIVISOR)
        return _quad(
            _div(_sub(_mul(a, c), _mul(_mul(disc, b), d)), nrm),
            _div(_sub(_mul(b, c), _mul(a, d)), nrm),
            disc,
        )

    def __rtruediv__(self, other):
        if isinstance(other, _EXACT):
            return QuadExt(other, 0, self.disc) / self
        return NotImplemented

    def __neg__(self):
        return _quad(_neg(self.a), _neg(self.b), self.disc)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        if exponent == 0:
            return _quad(self.a * 0 + 1, self.b * 0, self.disc)
        return _power(self, exponent)

    def conjugate(self):
        """``a - b*w``: the automorphism ``w -> -w``, which fixes the base field."""
        return _quad(self.a, _neg(self.b), self.disc)

    def norm(self):
        """Field norm ``a**2 - disc*b**2`` (a base-field element)."""
        return self.a * self.a - self.disc * self.b * self.b

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.disc == other.disc and self.a == other.a and self.b == other.b
        if isinstance(other, _EXACT):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        # an embedded base-field value equals its base value, so hashes as it
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.disc))

    def __bool__(self):
        return not (self.a == 0 and self.b == 0)

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, disc={self.disc!r})"

    def __str__(self):
        return format_scalar(self)


_set_a = QuadExt.a.__set__
_set_b = QuadExt.b.__set__
_set_disc = QuadExt.disc.__set__
_ZERO_DIVISOR = "division by a zero divisor in the quadratic extension"


def _quad(a, b, disc):
    """QuadExt from Fraction components, unchecked (see :class:`QuadExt`)."""
    q = _new(QuadExt)
    _set_a(q, a)
    _set_b(q, b)
    _set_disc(q, disc)
    return q


def _kind(x):
    """The exact kind of a Fraction, QuadExt or jet, else None: ``Fraction``,
    a QuadExt's discriminant, or a jet's :attr:`Jet.kind`."""
    t = type(x)
    if t is Jet:
        return x.kind
    if t is QuadExt:
        return x.disc
    if t is Fraction:
        return Fraction
    return None


class Jet:
    """Truncated Taylor jet: ``coeffs = (f, f', ..., f^(K))``.

    Coefficients are raw derivatives (not divided by factorials); products use
    the Leibniz/binomial rule, quotients require a nonzero value coefficient.
    Arithmetic between jets demands equal orders -- mixing orders is almost
    always a bug, so it raises instead of silently truncating.  Non-jet
    operands are constants, which must fit the jet's kind (:meth:`_fit`).

    ``kind`` is ``(order, kind)`` when every coefficient has one exact kind
    (see the module docstring), else None; a jet built by :class:`Jet`
    computes it, and results of jet arithmetic take their operands'.  Two
    jets of any order must share one exact kind, else ``TypeError``.
    """

    __slots__ = ("coeffs", "kind")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a jet needs at least a value coefficient")
        kind = _kind(coeffs[0])
        same = kind is not None and all(k is kind or k == kind for k in map(_kind, coeffs[1:]))
        _set_coeffs(self, coeffs)
        _set_kind(self, (len(coeffs) - 1, kind) if same else None)

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    def _peer(self, other):
        """The kind this jet shares with the jet ``other``: ``ValueError``
        when their orders differ, ``TypeError`` when they share no exact kind."""
        if len(other.coeffs) != len(self.coeffs):
            raise ValueError(f"jet order mismatch: {self.order} vs {other.order}")
        kind = self.kind
        if kind is None or (other.kind is not kind and other.kind != kind):
            raise TypeError(
                f"jets share no exact kind: {_kind_name(self)} and {_kind_name(other)}"
            )
        return kind

    def _fit(self, c):
        """``TypeError`` unless the constant ``c`` fits the jet's kind: an int,
        a Fraction, or a QuadExt of the coefficients' kind or of the kind of
        a jet nested in them."""
        if isinstance(c, _EXACT):
            return
        kc, x = _kind(c), self
        while kc is not None and type(x) is Jet and x.kind:
            if x.kind[1] is kc or x.kind[1] == kc:
                return
            x = x.coeffs[0]
        raise TypeError(f"a {_kind_name(c)} constant does not fit {_kind_name(self)}")

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, order):
        zero = value * 0
        return cls((value,) + (zero,) * order)

    @classmethod
    def variable(cls, value, order):
        """Jet of the identity function seeded at ``value`` (slope 1)."""
        if order == 0:
            return cls((value,))
        one = value * 0 + 1
        zero = value * 0
        return cls((value, one) + (zero,) * (order - 1))

    def derivative(self):
        """Jet of ``f'`` (one order lower)."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.coeffs[1:])

    def truncate(self, order):
        if order > self.order:
            raise ValueError(f"cannot extend a jet of order {self.order} to {order}")
        return Jet(self.coeffs[: order + 1])

    def __add__(self, other):
        if not isinstance(other, Jet):
            # constants only touch the value coefficient
            self._fit(other)
            return Jet((self.coeffs[0] + other,) + self.coeffs[1:])
        kind = self._peer(other)
        return _jet(tuple(map(_add, self.coeffs, other.coeffs)), kind)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Jet):
            self._fit(other)
            return Jet((self.coeffs[0] - other,) + self.coeffs[1:])
        kind = self._peer(other)
        return _jet(tuple(map(_sub, self.coeffs, other.coeffs)), kind)

    def __rsub__(self, other):
        # only a non-Jet reaches here: Jet - Jet dispatches to __sub__
        self._fit(other)
        return Jet((other - self.coeffs[0],) + tuple(-c for c in self.coeffs[1:]))

    def __mul__(self, other):
        if not isinstance(other, Jet):
            # constants have no derivatives: Leibniz collapses to a scale
            self._fit(other)
            return Jet(tuple(c * other for c in self.coeffs))
        kind = self._peer(other)
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(len(a)):
            term = _mul(a[0], b[k])
            for j in range(1, k + 1):
                term = _add(term, _term(k, j, a[j], b[k - j]))
            out.append(term)
        return _jet(tuple(out), kind)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            self._fit(other)
            return Jet(tuple(c / other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        # a zero divisor raises before two jets of no shared kind do
        if len(a) == len(b) and b[0] == 0:
            raise ZeroDivisionError("division by a jet with zero value coefficient")
        kind = self._peer(other)
        h = [_div(a[0], b[0])]
        for k in range(1, len(a)):
            acc = a[k]
            for j in range(k):
                acc = _sub(acc, _term(k, j, h[j], b[k - j]))
            h.append(_div(acc, b[0]))
        return _jet(tuple(h), kind)

    def __rtruediv__(self, other):
        self._fit(other)
        return Jet.constant(self.coeffs[0] * 0 + other, self.order) / self

    def __neg__(self):
        return _jet(tuple(-c for c in self.coeffs), self.kind)

    def conjugate(self):
        """The jet with ``w -> -w`` applied to every coefficient.

        QuadExt and jet coefficients are conjugated; Fraction and int
        coefficients are base-field values, which their own ``conjugate()``
        returns unchanged.  The map keeps every coefficient's kind.
        """
        return _jet(tuple(c.conjugate() for c in self.coeffs), self.kind)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        if exponent == 0:
            return Jet.constant(self.coeffs[0] * 0 + 1, self.order)
        return _power(self, exponent)

    def __eq__(self, other):
        if isinstance(other, Jet):
            return self.coeffs == other.coeffs
        if self.coeffs[0] != other:
            return False
        return all(c == 0 for c in self.coeffs[1:])

    def __hash__(self):
        # a constant jet equals its value, so hashes as it
        if all(c == 0 for c in self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __bool__(self):
        return any(bool(c) if isinstance(c, (Jet, QuadExt)) else c != 0
                   for c in self.coeffs)

    def __repr__(self):
        return f"Jet({list(self.coeffs)!r})"


_set_coeffs = Jet.coeffs.__set__
_set_kind = Jet.kind.__set__


def _jet(coeffs, kind):
    """Jet from a nonempty tuple and its kind, unchecked."""
    jet = _new(Jet)
    _set_coeffs(jet, coeffs)
    _set_kind(jet, kind)
    return jet


def _term(k, j, x, y):
    """Leibniz term ``comb(k, j) * (x * y)``.  A binomial of 1 is skipped:
    ``1 * p`` is ``p`` in value and type for every exact scalar."""
    p = _mul(x, y)
    c = comb(k, j)
    return p if c == 1 else _mul(c, p)


def _power(x, exponent):
    """``x ** exponent`` for an int ``exponent >= 1``, by binary powering
    from ``x``: ``x**2`` is one product."""
    result = None
    while True:
        if exponent & 1:
            result = x if result is None else x * result
        exponent >>= 1
        if not exponent:
            return result
        x = x * x


def _kind_name(x):
    """``x``'s type for an error message; a jet's names its order and kinds."""
    if type(x) is Jet:
        kinds = " | ".join(dict.fromkeys(map(_kind_name, x.coeffs)))
        return f"Jet(order {x.order} over {kinds})"
    if type(x) is Series:
        field = "Q" if x.disc is None else f"Q(w), w^2 = {x.disc}"
        return f"Series(order {x.order} over {field}{', in s = w*y' if x.scaled else ''})"
    return f"QuadExt(w^2 = {x.disc})" if type(x) is QuadExt else type(x).__name__


class Series:
    """Truncated series over Q(w) or Q held fraction-free: Taylor
    coefficient k is ``(a[k] + b[k]*w) / d`` with int tuples ``a``, ``b``
    (``b`` all zero over Q, where ``disc`` is None) and one int ``d > 0``,
    reduced by one gcd per result, so equal series hold equal ints.

    Built from raw derivatives, as a :class:`Jet` is: all Fractions (over
    Q) or all QuadExts of one discriminant.  ``coeffs`` gives them back,
    equal in value, type and ``repr`` to what a Jet over the same field
    holds, built on first read and cached.  Products are Cauchy products of
    the Taylor coefficients (no binomials, no Fraction per coefficient);
    a quotient first makes its divisor rational (times w for a multiple of
    w, times its conjugate when both parts are nonzero), then runs an int
    recurrence over a power of the divisor's value coefficient.

    A *scaled* series (``scaled=True``; over Q(w) only, a rational point
    needs none) stores coefficient k divided by ``w**k``, which makes it a
    series in ``s = w*y``: ``derivative`` multiplies by w, and
    ``conjugate`` negates ``b`` and multiplies coefficient k by ``(-1)**k``.
    Jet coefficients along the curve point alternate between rationals and
    rational multiples of w; scaled, each series is one of the two, so a
    product seldom meets a term with both parts nonzero.

    Constants are ints, Fractions and QuadExts of the series' field.  A
    float or another type raises ``TypeError``; another discriminant, order
    or storage raises ``ValueError``; a zero divisor ``ZeroDivisionError``.
    """

    __slots__ = ("a", "b", "d", "disc", "scaled", "_coeffs")

    def __new__(cls, coeffs, scaled=False):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least a value coefficient")
        disc = coeffs[0].disc if type(coeffs[0]) is QuadExt else None
        scaled = bool(scaled) and disc is not None
        n, m = (disc._numerator, disc._denominator) if scaled else (1, 1)
        if not n:
            raise ZeroDivisionError("cannot scale a series by w = 0")
        size = len(coeffs)
        nums, dens = [0] * (2 * size), [1] * (2 * size)
        for k, c in enumerate(coeffs):
            if type(c) is QuadExt and (c.disc is disc or c.disc == disc):
                x, y = c.a, c.b
            elif type(c) is Fraction and disc is None:
                x, y = c, _ZERO
            elif type(c) in (Fraction, QuadExt):
                raise ValueError(f"series coefficients over two fields: {list(coeffs)!r}")
            else:
                raise TypeError(f"a series coefficient must be exact, got {_kind_name(c)}")
            xn, yn = x._numerator, y._numerator
            if not (xn or yn):
                continue
            f = factorial(k)
            xd, yd = x._denominator * f, y._denominator * f
            if scaled and k:  # divided by w**k, with w**2 = n/m
                if k & 1:  # (x + y w)/w = y + (x m/n) w
                    xn, xd, yn, yd = yn, yd, xn * m, xd * n
                p, q = m ** (k >> 1), n ** (k >> 1)
                xn, xd, yn, yd = xn * p, xd * q, yn * p, yd * q
            nums[2 * k: 2 * k + 2] = xn, yn
            dens[2 * k: 2 * k + 2] = xd, yd
        d = lcm(*dens)
        ints = [x * (d // e) for x, e in zip(nums, dens)]
        return _reduced(ints[0::2], ints[1::2], d, disc, scaled)

    @classmethod
    def over(cls, disc, coeffs, scaled=False):
        """The series of the raw derivatives ``coeffs`` over Q(w) with
        ``w**2 = disc`` (over Q when ``disc`` is None): equal, in its ints,
        to ``Series([zero + c for c in coeffs], scaled)`` with ``zero`` that
        field's zero.  Fractions enter from their ints, with no QuadExt
        made, when they are a constant (as it is: a Fraction is in lowest
        terms) or an unscaled series (over the least common denominator of
        their Taylor coefficients); anything else takes ``zero + c``."""
        zeros = (0,) * len(coeffs)
        if coeffs and all(type(c) is Fraction for c in coeffs):
            scaled = bool(scaled) and disc is not None
            c = coeffs[0]
            if not any(x._numerator for x in coeffs[1:]):
                return _series((c._numerator,) + zeros[1:], zeros, c._denominator, disc, scaled)
            if not scaled:
                dens = [x._denominator * factorial(k) for k, x in enumerate(coeffs)]
                d = lcm(*dens)
                ints = [x._numerator * (d // e) for x, e in zip(coeffs, dens)]
                return _reduced(ints, zeros, d, disc, False)
        zero = _ZERO if disc is None else _quad(_ZERO, _ZERO, disc)
        return cls([zero + c for c in coeffs], scaled)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def order(self):
        return len(self.a) - 1

    @property
    def coeffs(self):
        """The raw derivatives ``(f, f', ..., f^(K))``, cached."""
        out = self._coeffs
        if out is None:
            out = tuple(map(self._raw, range(len(self.a))))
            _set_cached(self, out)
        return out

    def _raw(self, k):
        f, d, disc = factorial(k), self.d, self.disc
        x, y = self.a[k] * f, self.b[k] * f
        if disc is None:
            return _ratio(x, d)
        e = d
        if self.scaled:  # times w**k, with w**2 = n/m
            n, m = disc._numerator, disc._denominator
            if k & 1:  # (x + y w) w = y n/m + x w
                x, y, d = y * n, x, d * m
            p, q = n ** (k >> 1), m ** (k >> 1)
            x, y, d, e = x * p, y * p, d * q, e * q
        return _quad(_ratio(x, d), _ratio(y, e), disc)

    def _peer(self, other):
        """``ValueError`` unless the series ``other`` has this one's order,
        field and storage."""
        if len(other.a) != len(self.a):
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")
        if other.disc is not self.disc and other.disc != self.disc:
            raise ValueError(
                f"mixing series over different fields: {_kind_name(self)} and {_kind_name(other)}"
            )
        if other.scaled is not self.scaled:
            raise ValueError(
                f"mixing series of two storages: {_kind_name(self)} and {_kind_name(other)}"
            )

    def _constant(self, c):
        """The exact constant ``c`` as ints ``(a, b, d)`` of this series'
        field; see the class docstring for what is refused."""
        t = type(c)
        if t is int:
            return c, 0, 1
        if t is Fraction:
            return c._numerator, 0, c._denominator
        if t is QuadExt and self.disc is not None:
            if c.disc is not self.disc and c.disc != self.disc:
                raise ValueError(f"a {_kind_name(c)} constant does not fit {_kind_name(self)}")
            x, y = c.a, c.b
            d = lcm(x._denominator, y._denominator)
            return x._numerator * (d // x._denominator), y._numerator * (d // y._denominator), d
        error = ValueError if t is QuadExt else TypeError
        raise error(f"a {_kind_name(c)} constant does not fit {_kind_name(self)}")

    def _pad(self, x):
        """The value ``x`` as a constant int sequence of this series' length."""
        return (x,) + (0,) * (len(self.a) - 1)

    def _plus(self, a2, b2, e):
        """``self + (a2 + b2*w) / e`` for int sequences of its length."""
        d = self.d
        g = gcd(d, e)
        s, t = e // g, d // g
        a = [x * s + y * t for x, y in zip(self.a, a2)]
        b = [x * s + y * t for x, y in zip(self.b, b2)]
        return _reduced(a, b, d * s, self.disc, self.scaled)

    def __add__(self, other):
        if type(other) is Series:
            self._peer(other)
            return self._plus(other.a, other.b, other.d)
        ca, cb, cd = self._constant(other)
        if not (ca or cb):
            return self
        return self._plus(self._pad(ca), self._pad(cb), cd)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Series:
            self._peer(other)
            return self._plus(_negated(other.a), _negated(other.b), other.d)
        ca, cb, cd = self._constant(other)
        return self._plus(self._pad(-ca), self._pad(-cb), cd)

    def __rsub__(self, other):
        # only a constant reaches here: Series - Series dispatches to __sub__
        return -self + other

    def _times(self, a2, b2, e):
        """``self * (a2 + b2*w) / e`` for int sequences of its length; a
        factor whose parts are all zero is skipped."""
        a1, b1 = self.a, self.b
        ha1, hb1, ha2, hb2 = any(a1), any(b1), any(a2), any(b2)
        zero = (0,) * len(a1)
        a = _conv(a1, a2) if ha1 and ha2 else zero
        b = _conv(a1, b2) if ha1 and hb2 else zero
        if hb1 and ha2:
            b = _conv(b1, a2) if b is zero else [x + y for x, y in zip(b, _conv(b1, a2))]
        d = self.d * e
        if hb1 and hb2:
            # w*w = D = n/m
            n, m = self.disc._numerator, self.disc._denominator
            a = [m * x + n * y for x, y in zip(a, _conv(b1, b2))]
            b = [m * y for y in b]
            d *= m
        return _reduced(a, b, d, self.disc, self.scaled)

    def __mul__(self, other):
        if type(other) is Series:
            self._peer(other)
            return self._times(other.a, other.b, other.d)
        ca, cb, cd = self._constant(other)
        if not cb:
            if ca == cd:
                return self
            return _reduced(
                [x * ca for x in self.a], [y * ca for y in self.b], self.d * cd,
                self.disc, self.scaled,
            )
        return self._times(self._pad(ca), self._pad(cb), cd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Series:
            ca, cb, cd = self._constant(other)
            if not cb and ca:
                return _reduced(
                    [x * cd for x in self.a], [y * cd for y in self.b], self.d * ca,
                    self.disc, self.scaled,
                )
            other = _series(self._pad(ca), self._pad(cb), cd, self.disc, self.scaled)
        self._peer(other)
        # (a + b w)/d over the divisor (p + q w)/e, brought to a rational p
        a, b, d = self.a, self.b, self.d
        p, q, e = other.a, other.b, other.d
        if any(q):
            if any(p):
                # times the divisor's conjugate, which leaves a rational divisor
                conj = _negated(q)
                num, den = self._times(p, conj, 1), other._times(p, conj, 1)
                a, b, d, p, e = num.a, num.b, num.d, den.a, den.d
            else:
                # (a + b w) / (q w) = (n b + m a w) / (n q) with D = n/m
                n, m = self.disc._numerator, self.disc._denominator
                a, b, d, p = [n * y for y in b], [m * x for x in a], d * n, q
        if not p[0]:
            raise ZeroDivisionError("division by a series with zero value coefficient")
        a, b, scale = _divided(a, b, p)
        return _reduced([x * e for x in a], [y * e for y in b], d * scale, self.disc, self.scaled)

    def __rtruediv__(self, other):
        # only a constant reaches here
        ca, cb, cd = self._constant(other)
        return _series(self._pad(ca), self._pad(cb), cd, self.disc, self.scaled) / self

    def __neg__(self):
        return _series(_negated(self.a), _negated(self.b), self.d, self.disc, self.scaled)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        if exponent == 0:
            zero = self._pad(0)
            return _series(self._pad(1), zero, 1, self.disc, self.scaled)
        return _power(self, exponent)

    def derivative(self):
        """Series of ``f'`` (one order lower); along ``s = w*y`` that is
        w times the derivative in s."""
        if len(self.a) == 1:
            raise ValueError("cannot differentiate an order-0 series")
        a = [k * x for k, x in enumerate(self.a)][1:]
        b = [k * y for k, y in enumerate(self.b)][1:]
        if not self.scaled:
            return _reduced(a, b, self.d, self.disc, False)
        # (a + b w) w = n b / m + a w with D = n/m
        n, m = self.disc._numerator, self.disc._denominator
        return _reduced([n * y for y in b], [m * x for x in a], self.d * m, self.disc, True)

    def truncate(self, order):
        if order > self.order:
            raise ValueError(f"cannot extend a series of order {self.order} to {order}")
        if order < 0:
            raise ValueError("a series needs at least a value coefficient")
        k = order + 1
        return _reduced(self.a[:k], self.b[:k], self.d, self.disc, self.scaled)

    def conjugate(self):
        """The series with ``w -> -w`` applied to every coefficient."""
        a, b = self.a, _negated(self.b)
        if self.scaled:  # coefficient k is divided by w**k
            a = tuple(-x if k & 1 else x for k, x in enumerate(a))
            b = tuple(-y if k & 1 else y for k, y in enumerate(b))
        return _series(a, b, self.d, self.disc, self.scaled)

    def __eq__(self, other):
        if type(other) is Series:
            if other.scaled is self.scaled and other.disc == self.disc:
                return self.a == other.a and self.b == other.b and self.d == other.d
            return self.coeffs == other.coeffs
        if not isinstance(other, (int, Fraction, QuadExt)):
            return NotImplemented
        if not other:
            return not (any(self.a) or any(self.b))
        return not (any(self.a[1:]) or any(self.b[1:])) and self.coeffs[0] == other

    def __bool__(self):
        return any(self.a) or any(self.b)

    def __repr__(self):
        return f"Series({list(self.coeffs)!r}{', scaled=True' if self.scaled else ''})"


_set_a_ints = Series.a.__set__
_set_b_ints = Series.b.__set__
_set_d = Series.d.__set__
_set_field = Series.disc.__set__
_set_scaled = Series.scaled.__set__
_set_cached = Series._coeffs.__set__


def _series(a, b, d, disc, scaled):
    """Series from int tuples already reduced, unchecked."""
    s = _new(Series)
    _set_a_ints(s, a)
    _set_b_ints(s, b)
    _set_d(s, d)
    _set_field(s, disc)
    _set_scaled(s, scaled)
    _set_cached(s, None)
    return s


def _reduced(a, b, d, disc, scaled):
    """Series from int sequences over a nonzero ``d``: one gcd divides
    them out, and the sign makes ``d`` positive."""
    g = gcd(d, *a, *b)
    if d < 0:
        g = -g
    if g == 1:
        return _series(tuple(a), tuple(b), d, disc, scaled)
    return _series(tuple([x // g for x in a]), tuple([y // g for y in b]), d // g, disc, scaled)


def _ratio(n, d):
    """Fraction ``n/d`` for ``d > 0``, in lowest terms."""
    if not n:
        return _ZERO
    g = gcd(n, d)
    return _frac(n // g, d // g)


def _negated(x):
    return tuple(-v for v in x)


def _conv(x, y):
    """The truncated Cauchy product of two int sequences of one length,
    written out up to length 3 (order 2)."""
    n = len(x)
    if n == 3:
        x0, x1, x2 = x
        y0, y1, y2 = y
        return [x0 * y0, x0 * y1 + x1 * y0, x0 * y2 + x1 * y1 + x2 * y0]
    if n == 2:
        x0, x1 = x
        y0, y1 = y
        return [x0 * y0, x0 * y1 + x1 * y0]
    return [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(n)]


def _divided(xa, xb, p):
    """``(ra, rb, scale)`` with the series quotients ``xa / p`` and
    ``xb / p`` of int sequences equal to ``ra / scale`` and ``rb / scale``.
    A constant divisor divides once; else ``scale`` is ``p0**len(p)``."""
    p0 = p[0]
    if not any(p[1:]):
        return xa, xb, p0
    return _recurrence(xa, p), _recurrence(xb, p), p0 ** len(p)


def _recurrence(x, p):
    """Numerators of ``x / p`` over ``p0**n``: coefficient k is
    ``R_k / p0**(k+1)`` with ``R_k = x_k p0**k - sum_j R_j p_(k-j) p0**(k-1-j)``,
    brought over the common ``p0**n``; written out up to length 3."""
    if not any(x):
        return x
    n, p0 = len(x), p[0]
    if n == 3:
        x0, x1, x2 = x
        _, p1, p2 = p
        r1 = x1 * p0 - x0 * p1
        return [x0 * p0 * p0, r1 * p0, (x2 * p0 - x0 * p2) * p0 - r1 * p1]
    if n == 2:
        return [x[0] * p0, x[1] * p0 - x[0] * p[1]]
    powers = [p0 ** k for k in range(n + 1)]
    r = []
    for k in range(n):
        r.append(x[k] * powers[k] - sum(r[j] * p[k - j] * powers[k - 1 - j] for j in range(k)))
    return [v * powers[n - 1 - k] for k, v in enumerate(r)]


def scalar_value(x):
    """Strip jet layers and return the underlying value component; a
    series gives its value coefficient."""
    while isinstance(x, Jet):
        x = x.coeffs[0]
    return x._raw(0) if isinstance(x, Series) else x


def scalar_abs(x):
    """Magnitude used for residual reporting.

    Exact rationals keep exact absolute values.  Quadratic-extension elements
    report 0 when exactly zero, otherwise a numeric embedding (|a + b*sqrt(D)|
    for D >= 0, complex modulus for D < 0).  Jets report the max over their
    coefficients, so a "zero residual" means every derivative vanished too;
    so do series.
    """
    if isinstance(x, (Jet, Series)):
        return max(scalar_abs(c) for c in x.coeffs)
    if isinstance(x, QuadExt):
        if x.a == 0 and x.b == 0:
            return 0
        a, b, d = float(x.a), float(x.b), float(x.disc)
        if d >= 0:
            return abs(a + b * sqrt(d))
        return sqrt(a * a - d * b * b)
    if isinstance(x, (int, Fraction)):
        return abs(Fraction(x))
    return abs(x)


def format_scalar(x):
    """Serialize a scalar for JSON/CSV reports.

    Exact rationals render as ``"p/q"`` (denominator always written);
    extension elements as ``"a + b*w | w^2 = D"``; jets and series
    component-wise, by their raw derivatives.
    """
    if isinstance(x, (Jet, Series)):
        return "jet(" + "; ".join(format_scalar(c) for c in x.coeffs) + ")"
    if isinstance(x, QuadExt):
        return (
            f"{format_scalar(x.a)} + {format_scalar(x.b)}*w"
            f" | w^2 = {format_scalar(x.disc)}"
        )
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        return f"{q.numerator}/{q.denominator}"
    return repr(float(x))
