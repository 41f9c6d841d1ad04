"""Banded difference operators ``sum_j u_j(n) T^j`` over any scalar field.

``T`` is the shift ``(T psi)_n = psi_{n+1}``.  Coefficients are supplied by
pure provider functions ``(j, n) -> scalar``; operators never own chain
trajectories, so one operator definition serves exact jets, numeric samples,
and periodic chains alike.  Operator equality is only defined on explicit
site windows (:class:`OperatorWindow`) -- providers are opaque functions.
``window`` materializes every coefficient on a site range; ``first_nonzero``
reads the same range in the same order and stops at its first nonzero
coefficient, for verdicts that need only one witness.

Time derivatives are never taken internally: routines that need a
coefficient-wise derivative of an operator (Lax residuals) receive it from
the caller, who reads it off jet coefficients.
"""

from dataclasses import dataclass

from .scalars import format_scalar, scalar_abs

__all__ = [
    "DifferenceOperator",
    "OperatorWindow",
    "build_l4",
    "commutator",
    "compose",
    "lax_residual",
]


@dataclass(frozen=True, eq=False)
class DifferenceOperator:
    """Operator with support on shift powers ``lo..hi`` (inclusive).

    ``coeff(j, n)`` must be pure and defined for every ``j`` in the band and
    every integer ``n``; values outside the band are identically zero.
    """

    lo: int
    hi: int
    coeff: callable

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty band range [{self.lo}, {self.hi}]")

    @classmethod
    def from_bands(cls, bands):
        """Build from ``{shift power: provider n -> scalar}``."""
        if not bands:
            raise ValueError("at least one band is required")
        table = {j: f for j, f in bands.items()}
        lo, hi = min(table), max(table)

        def coeff(j, n):
            f = table.get(j)
            return 0 if f is None else f(n)

        return cls(lo, hi, coeff)

    def band_coeff(self, j, n):
        """Coefficient with out-of-band lookups returning 0."""
        if j < self.lo or j > self.hi:
            return 0
        return self.coeff(j, n)

    def __add__(self, other):
        if not isinstance(other, DifferenceOperator):
            return NotImplemented
        lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)
        return DifferenceOperator(
            lo, hi, lambda j, n: self.band_coeff(j, n) + other.band_coeff(j, n)
        )

    def __sub__(self, other):
        if not isinstance(other, DifferenceOperator):
            return NotImplemented
        lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)
        return DifferenceOperator(
            lo, hi, lambda j, n: self.band_coeff(j, n) - other.band_coeff(j, n)
        )

    def __neg__(self):
        return DifferenceOperator(self.lo, self.hi, lambda j, n: -self.coeff(j, n))

    def map_coeffs(self, fn):
        """New operator with ``fn`` applied to every coefficient."""
        return DifferenceOperator(self.lo, self.hi, lambda j, n: fn(self.coeff(j, n)))

    def apply(self, psi, n):
        """``sum_j u_j(n) psi(n + j)`` for a site-indexed callable ``psi``."""
        acc = 0
        for j in range(self.lo, self.hi + 1):
            acc = acc + self.coeff(j, n) * psi(n + j)
        return acc

    def window(self, n0, n1):
        """Materialize coefficients on sites ``n0..n1`` for comparison/reports."""
        return OperatorWindow.from_operator(self, n0, n1)

    def first_nonzero(self, n0, n1):
        """First ``(n, j, coefficient)`` on sites ``n0..n1`` that is not zero,
        in the row-major order of ``window(n0, n1)`` (sites ascending, then
        shift powers), or None when the whole range is zero.  No coefficient
        after the hit is evaluated."""
        if n0 > n1:
            raise ValueError(f"empty site range [{n0}, {n1}]")
        for n in range(n0, n1 + 1):
            for j in range(self.lo, self.hi + 1):
                c = self.coeff(j, n)
                if c != 0:
                    return n, j, c
        return None


def compose(a, b):
    """Operator product ``a b``: coefficient of ``T^k`` at ``n`` is
    ``sum_j a_j(n) * b_{k-j}(n + j)`` over the ``j`` where both bands are
    present, summed from the first term (an empty sum is 0).

    The product keeps no memo: every read evaluates the factors' providers
    anew, so a reader that reads a coefficient more than once takes a
    :meth:`DifferenceOperator.window` first and reads that.
    """

    def coeff(k, n):
        terms = (
            a.coeff(j, n) * b.coeff(k - j, n + j)
            for j in range(max(a.lo, k - b.hi), min(a.hi, k - b.lo) + 1)
        )
        acc = next(terms, 0)
        for term in terms:
            acc = acc + term
        return acc

    return DifferenceOperator(a.lo + b.lo, a.hi + b.hi, coeff)


def commutator(a, b):
    """``[a, b] = a b - b a``."""
    return compose(a, b) - compose(b, a)


def lax_residual(l_op, l_t, a_op):
    """Residual of the Lax equation: ``l_t + [l_op, a_op]``.

    This is the full commutator ``[d/dt - a_op, l_op]`` once ``l_t`` holds
    the coefficient-wise time derivatives of ``l_op``; it vanishes exactly
    when the Lax representation holds.  With ``l_t = A_y - B_x`` it is the
    zero curvature ``[d/dx - A, d/dy - B]`` of ``l_op = A`` and ``a_op = B``,
    the form of the chain equations.  All bracket assembly in the package
    goes through this single function so sign conventions cannot drift.
    """
    return l_t + commutator(l_op, a_op)


def build_l4(v_provider, w_provider):
    """Expand ``(T + V_n T^{-1})**2 + W_n`` into its bands via composition.

    The result has band range [-2, 2] with coefficients
    ``T^2 + (V_n + V_{n+1} + W_n) I + V_{n-1} V_n T^{-2}``; it is computed by
    composing the first-order factor with itself rather than hard-coding the
    band formulas, so the expansion itself is exercised.
    """
    factor = DifferenceOperator.from_bands({1: lambda n: 1, -1: v_provider})
    return compose(factor, factor) + DifferenceOperator.from_bands({0: w_provider})


@dataclass(frozen=True, eq=False)
class OperatorWindow:
    """Dense coefficient table of an operator on a finite site range.

    Rows run over sites ``n0..n1``, columns over shift powers ``lo..hi``
    (row-major in the JSON serialization).
    """

    lo: int
    hi: int
    n0: int
    n1: int
    rows: tuple

    @classmethod
    def from_operator(cls, op, n0, n1):
        if n0 > n1:
            raise ValueError(f"empty site range [{n0}, {n1}]")
        rows = tuple(
            tuple(op.coeff(j, n) for j in range(op.lo, op.hi + 1))
            for n in range(n0, n1 + 1)
        )
        return cls(op.lo, op.hi, n0, n1, rows)

    def coeff(self, j, n):
        """The coefficient of ``T^j`` at site ``n``; ``IndexError`` outside
        the window's bands or sites."""
        if not (self.lo <= j <= self.hi and self.n0 <= n <= self.n1):
            raise IndexError(
                f"coefficient {(j, n)} is outside the window's bands "
                f"{self.lo}..{self.hi} and sites {self.n0}..{self.n1}"
            )
        return self.rows[n - self.n0][j - self.lo]

    def __eq__(self, other):
        if not isinstance(other, OperatorWindow):
            return NotImplemented
        if (self.n0, self.n1) != (other.n0, other.n1):
            return False
        lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)

        def get(win, j, n):
            return win.coeff(j, n) if win.lo <= j <= win.hi else 0

        return all(
            get(self, j, n) == get(other, j, n)
            for n in range(self.n0, self.n1 + 1)
            for j in range(lo, hi + 1)
        )

    def max_abs(self):
        worst = 0
        for row in self.rows:
            for c in row:
                mag = scalar_abs(c)
                if mag > worst:
                    worst = mag
        return worst

    def is_zero(self):
        return all(c == 0 for row in self.rows for c in row)

    def to_json_dict(self):
        return {
            "band": [self.lo, self.hi],
            "sites": [self.n0, self.n1],
            "coeffs": [format_scalar(c) for row in self.rows for c in row],
        }
