"""Exact scalar kernels: rationals, quadratic extensions, truncated jets.

Everything downstream (operators, flows, Darboux residuals) is generic in the
scalar, so one code path serves exact identity verification and floating-point
simulation; this module holds the exact kinds only.  Floats take Python's and
numpy's own arithmetic, and their collision rule lives in :mod:`laxchain.flows`,
its only user.  Three exact kinds are used:

* exact rationals -- :class:`fractions.Fraction` (always in lowest terms,
  positive denominator, never rounded);
* :class:`QuadExt` -- elements ``a + b*w`` of Q(w), with a formal square
  root ``w`` of a fixed rational discriminant ``D``;
* :class:`Jet` -- truncated Taylor data ``(value, f', ..., f^(K))`` propagated
  through arithmetic by the Leibniz rule.  Jets nest: a jet whose coefficients
  are jets in a second variable carries mixed partial derivatives.

Most components in the nested jets are exact zeros (an embedded rational has
``b == 0``; padded derivatives vanish), so the kernels skip them: a skipped
Fraction product yields ``Fraction(0)`` and a skipped sum passes the other
Fraction through -- the value and the type the full formula would give.  Two
jets, of any order, combine only when their coefficients share one exact
*kind* (``Fraction``, a QuadExt discriminant, or a jet order over a kind),
so a skipped term cannot change a result's type and every formatted report
is unchanged; jets of floats, of ints or of mixed kinds raise ``TypeError``.

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
threads; a jet's cached zero pattern is a function of its coefficients, so
concurrent fills agree.
"""

from fractions import Fraction
from math import comb, gcd, isqrt, sqrt

__all__ = [
    "Fraction",
    "Jet",
    "QuadExt",
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
        result = _quad(self.a * 0 + 1, self.b * 0, self.disc)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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


def _kind_zero(x):
    """``(kind, is_zero)`` of a Fraction, QuadExt or jet of one kind, else
    None.  The kind is ``Fraction``, a QuadExt's discriminant, or
    ``(order, kind)`` of a jet whose coefficients share one kind."""
    t = type(x)
    if t is Jet:
        shape = x._shape
        if shape is None:
            shape = x._scan()
        return (shape[0], not shape[1]) if shape else None
    if t is QuadExt:
        return x.disc, not (x.a._numerator or x.b._numerator)
    if t is Fraction:
        return Fraction, not x._numerator
    return None


class Jet:
    """Truncated Taylor jet: ``coeffs = (f, f', ..., f^(K))``.

    Coefficients are raw derivatives (not divided by factorials); products use
    the Leibniz/binomial rule, quotients require a nonzero value coefficient.
    Arithmetic between jets demands equal orders -- mixing orders is almost
    always a bug, so it raises instead of silently truncating.  Non-jet
    operands are constants, which must fit the jet's kind (:meth:`_fit`).

    Two jets of any order must share one exact kind (see the module
    docstring), else ``TypeError``.  The Leibniz sums skip every term with an
    exact-zero factor, sums pass a coefficient through when the other one is
    zero, and every loop skips binomials of 1 (see :func:`_term`).  The zero
    pattern is scanned on first use and cached on the jet (``_shape``:
    ``((order, kind), nonzero indices)``, or False for a jet of no exact
    kind); results carry theirs.
    """

    __slots__ = ("coeffs", "_shape")

    def __init__(self, coeffs):
        _set_coeffs(self, tuple(coeffs))
        _set_shape(self, None)
        if not self.coeffs:
            raise ValueError("a jet needs at least a value coefficient")

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    def _scan(self):
        kind = None
        nonzero = []
        for i, c in enumerate(self.coeffs):
            kz = _kind_zero(c)
            if kz is None or (i and kz[0] is not kind and kz[0] != kind):
                shape = False
                break
            kind = kz[0]
            if not kz[1]:
                nonzero.append(i)
        else:
            shape = ((len(self.coeffs) - 1, kind), tuple(nonzero))
        _set_shape(self, shape)
        return shape

    def _shapes(self, other):
        """``(kind, nonzero_self, nonzero_other)``: the shared exact kind and
        the cached zero patterns; ``TypeError`` when there is no shared kind."""
        sa = self._shape
        if sa is None:
            sa = self._scan()
        sb = other._shape
        if sb is None:
            sb = other._scan()
        if sa and sb and (sa[0] is sb[0] or sa[0] == sb[0]):
            return sa[0], sa[1], sb[1]
        raise TypeError(
            f"jets share no exact kind: {_kind_name(self)} and {_kind_name(other)}"
        )

    def _fit(self, c):
        """``TypeError`` unless the constant ``c`` fits the jet's kind: an int,
        a Fraction, or a QuadExt of the coefficients' kind or of the kind of
        a jet nested in them."""
        if isinstance(c, _EXACT):
            return
        kc, x = _kind_zero(c), self
        while kc and type(x) is Jet and (x._shape or x._scan()):
            if x._shape[0][1] is kc[0] or x._shape[0][1] == kc[0]:
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

    def _check_order(self, other):
        if len(other.coeffs) != len(self.coeffs):
            raise ValueError(f"jet order mismatch: {self.order} vs {other.order}")

    def _zip(self, other, op, negate):
        """Coefficient-wise ``op``: a zero in ``other`` passes ``a_i`` through,
        a zero in ``self`` passes ``b_i`` (negated for a difference)."""
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        kind, nza, nzb = self._shapes(other)
        out = tuple(
            a[i] if i not in nzb
            else op(a[i], b[i]) if i in nza
            else _neg(b[i]) if negate else b[i]
            for i in range(len(a))
        )
        return _jet(out, (kind, _union(nza, nzb)))

    def __add__(self, other):
        if not isinstance(other, Jet):
            # constants only touch the value coefficient
            self._fit(other)
            return Jet((self.coeffs[0] + other,) + self.coeffs[1:])
        return self._zip(other, _add, False)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Jet):
            self._fit(other)
            return Jet((self.coeffs[0] - other,) + self.coeffs[1:])
        return self._zip(other, _sub, True)

    def __rsub__(self, other):
        # only a non-Jet reaches here: Jet - Jet dispatches to __sub__
        self._fit(other)
        return Jet((other - self.coeffs[0],) + tuple(-c for c in self.coeffs[1:]))

    def __mul__(self, other):
        if not isinstance(other, Jet):
            # constants have no derivatives: Leibniz collapses to a scale
            self._fit(other)
            return Jet(tuple(c * other for c in self.coeffs))
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        kind, nza, nzb = self._shapes(other)
        out = []
        nonzero = []
        for k in range(len(a)):
            term = None
            for j in nza:
                if j > k:
                    break
                if k - j in nzb:
                    p = _term(k, j, a[j], b[k - j])
                    term = p if term is None else _add(term, p)
            if term is None:
                # every term has a zero factor: the coefficient is that zero
                term = b[k] if 0 in nza else a[0]
            else:
                nonzero.append(k)
            out.append(term)
        return _jet(tuple(out), (kind, tuple(nonzero)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            self._fit(other)
            return Jet(tuple(c / other for c in self.coeffs))
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        if b[0] == 0:
            raise ZeroDivisionError("division by a jet with zero value coefficient")
        kind, nza, nzb = self._shapes(other)
        # h[0] is always formed, so a zero divisor raises as before
        h = [_div(a[0], b[0])]
        nonzero = [0] if 0 in nza else []
        for k in range(1, len(a)):
            acc = a[k] if k in nza else None
            for j in nonzero:
                if k - j in nzb:
                    p = _term(k, j, h[j], b[k - j])
                    acc = _neg(p) if acc is None else _sub(acc, p)
            if acc is None:
                h.append(a[k])  # a zero of the shared kind
            else:
                h.append(_div(acc, b[0]))
                nonzero.append(k)
        return _jet(tuple(h), (kind, tuple(nonzero)))

    def __rtruediv__(self, other):
        self._fit(other)
        return Jet.constant(self.coeffs[0] * 0 + other, self.order) / self

    def __neg__(self):
        return _jet(tuple(-c for c in self.coeffs), self._shape)

    def conjugate(self):
        """The jet with ``w -> -w`` applied to every coefficient.

        QuadExt and jet coefficients are conjugated; Fraction and int
        coefficients are base-field values, which their own ``conjugate()``
        returns unchanged.  The map keeps every zero pattern, so the cached
        shape carries over.
        """
        return _jet(tuple(c.conjugate() for c in self.coeffs), self._shape)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        if exponent == 0:
            return Jet.constant(self.coeffs[0] * 0 + 1, self.order)
        # binary powering from self: x**2 is one product
        result = None
        base = self
        while True:
            if exponent & 1:
                result = base if result is None else base * result
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

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
_set_shape = Jet._shape.__set__


def _jet(coeffs, shape):
    """Jet from a nonempty tuple and its shape (None: scanned on first use)."""
    jet = _new(Jet)
    _set_coeffs(jet, coeffs)
    _set_shape(jet, shape)
    return jet


def _term(k, j, x, y):
    """Leibniz term ``comb(k, j) * (x * y)``.  A binomial of 1 is skipped:
    ``1 * p`` is ``p`` in value and type for every exact scalar."""
    p = _mul(x, y)
    c = comb(k, j)
    return p if c == 1 else _mul(c, p)


def _kind_name(x):
    """``x``'s type for an error message; a jet's names its order and kinds."""
    if type(x) is Jet:
        kinds = " | ".join(dict.fromkeys(map(_kind_name, x.coeffs)))
        return f"Jet(order {x.order} over {kinds})"
    return f"QuadExt(w^2 = {x.disc})" if type(x) is QuadExt else type(x).__name__


def _union(nza, nzb):
    return nza if nza == nzb else tuple(sorted(set(nza) | set(nzb)))


def scalar_value(x):
    """Strip jet layers and return the underlying value component."""
    while isinstance(x, Jet):
        x = x.coeffs[0]
    return x


def scalar_abs(x):
    """Magnitude used for residual reporting.

    Exact rationals keep exact absolute values.  Quadratic-extension elements
    report 0 when exactly zero, otherwise a numeric embedding (|a + b*sqrt(D)|
    for D >= 0, complex modulus for D < 0).  Jets report the max over their
    coefficients, so a "zero residual" means every derivative vanished too.
    """
    if isinstance(x, Jet):
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
    extension elements as ``"a + b*w | w^2 = D"``; jets component-wise.
    """
    if isinstance(x, Jet):
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
