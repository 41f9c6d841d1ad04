"""Spectral polynomial machinery and commutant searches.

A family of monic site-indexed polynomials Q_n(z) of degree g encodes the
joint spectrum of the fourth-order operator ``(T + V_n T^{-1})^2 + W_n``:
the quadratic combination

    Q_{n-1} Q_{n+1} V_n + Q_n Q_{n+2} V_{n+1}
        + Q_n Q_{n+1} (z - V_n - V_{n+1} - W_n)

is site-independent and equals the curve polynomial F_g(z); differencing two
neighboring copies and dividing by Q_{n+1} gives a linear four-site
recurrence on the Q's.  This module verifies the conserved value, evaluates
the recurrence residual, propagates Q along it, constructs the two explicit
operator families with polynomial ("sharp") and trigonometric ("flat")
potentials, and searches for operators commuting with a given one -- exactly
(polynomial coefficients, elimination over the integers) or numerically
(windowed least squares / SVD).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, cos, lcm, sin

import numpy as np

from .errors import AnsatzError, DegreeError
from .operators import DifferenceOperator, build_l4
from .poly import (
    poly_add,
    poly_degree,
    poly_eval,
    poly_is_zero,
    poly_mul,
    poly_scale,
    poly_shift_arg,
    poly_sub,
)
from .rational_linalg import nullspace, rref

__all__ = [
    "CommutantAnsatz",
    "ExactCommutantResult",
    "PolynomialBandOperator",
    "QPolynomial",
    "WindowedCommutantResult",
    "commutant_columns",
    "commutant_solve_exact",
    "commutant_solve_windowed",
    "commutator_polynomial_bands",
    "compose_polynomial_bands",
    "exact_commutator_is_zero",
    "flat_operator",
    "propagate_q",
    "q_conserved_value",
    "q_recurrence_residual",
    "sharp_operator",
]


@dataclass(frozen=True)
class QPolynomial:
    """Monic degree-``genus`` polynomial ``z^g + a_{g-1} z^{g-1} + ... + a_0``."""

    genus: int
    alphas: tuple  # a_0 .. a_{g-1}

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        if self.genus < 1:
            raise ValueError("genus must be positive")
        if len(self.alphas) != self.genus:
            raise ValueError(
                f"genus {self.genus} needs {self.genus} free coefficients, "
                f"got {len(self.alphas)}"
            )

    @classmethod
    def from_gamma(cls, gamma):
        """Genus-1 reduction ``Q = z - gamma``."""
        return cls(1, (-gamma,))

    def coeffs(self):
        """Ascending coefficients including the leading 1."""
        return self.alphas + (1,)

    def eval(self, z):
        return poly_eval(self.coeffs(), z)


def q_conserved_value(q_prev, q_n, q_next, q_next2, v_n, v_next, w_n, z):
    """The site-independent quadratic combination of neighboring Q's.

    For a valid spectral family this equals F_g(z) at every site (the
    conserved curve); for the genus-1 reduction that holds identically for
    any chain with distinct neighbors.
    """
    return (
        q_prev.eval(z) * q_next.eval(z) * v_n
        + q_n.eval(z) * q_next2.eval(z) * v_next
        + q_n.eval(z) * q_next.eval(z) * (z - v_n - v_next - w_n)
    )


def q_recurrence_residual(q_prev, q_n, q_next2, q_next3, v_n, v_next, v_next2, w_n, w_next):
    """Coefficients (ascending in z) of the linear four-site constraint

    ``Q_{n-1} V_n + Q_n (z - V_n - V_{n+1} - W_n)
      - Q_{n+2} (z - V_{n+1} - V_{n+2} - W_{n+1}) - Q_{n+3} V_{n+2}``.

    Zero for every valid family; the leading z-power cancels between the two
    monic middle terms.
    """
    num = _q_numerator(q_prev, q_n, q_next2, v_n, v_next, v_next2, w_n, w_next)
    return poly_sub(num, poly_scale(q_next3.coeffs(), v_next2))


def _q_numerator(q_prev, q_n, q_next2, v_n, v_next, v_next2, w_n, w_next):
    """The recurrence without its ``Q_{n+3}`` term, which equals ``Q_{n+3} V_{n+2}``."""
    t1 = poly_scale(q_prev.coeffs(), v_n)
    t2 = poly_mul(q_n.coeffs(), (-(v_n + v_next + w_n), 1))
    t3 = poly_mul(q_next2.coeffs(), (-(v_next + v_next2 + w_next), 1))
    return poly_sub(poly_add(t1, t2), t3)


def propagate_q(q_prev, q_n, q_next2, v_n, v_next, v_next2, w_n, w_next):
    """Solve the four-site recurrence for ``Q_{n+3}``.

    The unique candidate is checked for degree consistency: the z^(g+1)
    coefficient of the assembled numerator must cancel and the solved
    polynomial must come out monic; inconsistent seeds raise.
    """
    if v_next2 == 0:
        raise ZeroDivisionError("cannot propagate through a vanishing V_{n+2}")
    g = q_n.genus
    num = _q_numerator(q_prev, q_n, q_next2, v_n, v_next, v_next2, w_n, w_next)
    if len(num) > g + 1 and not all(c == 0 for c in num[g + 1 :]):
        raise DegreeError(
            "inconsistent seeds: leading powers do not cancel in the recurrence"
        )
    solved = tuple(c / v_next2 for c in num[: g + 1])
    if solved[g] != 1:
        raise DegreeError(
            f"propagated polynomial is not monic (leading coefficient {solved[g]})"
        )
    return QPolynomial(g, solved[:g])


# ---------------------------------------------------------------------------
# Explicit operator families
# ---------------------------------------------------------------------------

class PolynomialBandOperator:
    """Difference operator whose band coefficients are polynomials in n.

    The band polynomials are the only table: ``coeff`` and ``operator``
    (the provider form, for generic operator algebra and its ``window``)
    both read it, evaluating the table scaled to integers and dividing once
    by the scale per coefficient.
    """

    def __init__(self, bands):
        self.bands = {j: tuple(p) for j, p in bands.items() if not poly_is_zero(p)}
        if not self.bands:
            self.bands = {0: (Fraction(0),)}
        self.lo = min(self.bands)
        self.hi = max(self.bands)
        self._scaled = _integer_bands(self.bands)
        self.operator = DifferenceOperator(self.lo, self.hi, self.coeff)

    def coeff(self, j, n):
        bands, scale = self._scaled
        return Fraction(poly_eval(bands.get(j, ()), n), scale)


def compose_polynomial_bands(a, b):
    """Band polynomials of the product of two polynomial-band operators."""
    out = {}
    for j, pj in a.items():
        for i, qi in b.items():
            term = poly_mul(pj, poly_shift_arg(qi, j))
            out[j + i] = poly_add(out.get(j + i, ()), term)
    return out


def commutator_polynomial_bands(a, b):
    ab = compose_polynomial_bands(a, b)
    ba = compose_polynomial_bands(b, a)
    keys = set(ab) | set(ba)
    return {k: poly_sub(ab.get(k, ()), ba.get(k, ())) for k in keys}


def _family_r(family, r, genus, size):
    """``r`` as a tuple, checked for a family: ``size`` entries, the last
    one nonzero, and a positive ``genus``."""
    r = tuple(r)
    names = [f"r{k}" for k in range(size)]
    if genus < 1:
        raise AnsatzError("genus must be positive")
    if len(r) != size:
        raise AnsatzError(f"{family} family needs r = ({', '.join(names)})")
    if r[-1] == 0:
        raise AnsatzError(f"{family} family requires {names[-1]} != 0")
    return r


def sharp_operator(r, genus=1):
    """``(T + p(n) T^{-1})^2 + g(g+1) r3 n`` with the cubic ``p`` whose
    ascending coefficients are ``r = (r0, r1, r2, r3)``, ``r3 != 0``; exact.

    The band polynomials come from composing the first-order factor with
    itself (not from hard-coded bands); the tests compare them with
    :func:`build_l4` on windows.
    """
    p = tuple(Fraction(x) for x in _family_r("sharp", r, genus, 4))
    diag = (Fraction(0), Fraction(genus * (genus + 1)) * p[3])

    factor = {1: (Fraction(1),), -1: p}
    bands = compose_polynomial_bands(factor, factor)
    bands[0] = poly_add(bands.get(0, ()), diag)
    return PolynomialBandOperator(bands)


def flat_operator(r, genus=1):
    """``(T + (r1 cos n + r0) T^{-1})^2 - 4 r1 sin(g/2) sin((g+1)/2) cos(n + 1/2)``
    with ``r = (r0, r1)``, ``r1 != 0``.

    Numeric-only: coefficients are floats evaluated at integer sites (cos n
    at integer n is transcendental, so there is no honest exact path).
    """
    r0, r1 = (float(x) for x in _family_r("flat", r, genus, 2))
    g = genus
    amp = -4.0 * r1 * sin(g / 2.0) * sin((g + 1) / 2.0)
    return build_l4(
        lambda n: r1 * cos(n) + r0,
        lambda n: amp * cos(n + 0.5),
    )


# ---------------------------------------------------------------------------
# Commutant searches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutantAnsatz:
    """Search space ``X = sum_{|j| <= band_m} x_j(n) T^j`` with polynomial
    coefficients ``x_j`` of degree <= ``degree``; unknown count is
    ``(2*band_m + 1) * (degree + 1)``."""

    band_m: int
    degree: int

    def __post_init__(self):
        if self.band_m < 0 or self.degree < 0:
            raise AnsatzError("ansatz needs band_m >= 0 and degree >= 0")

    @property
    def unknowns(self):
        return (2 * self.band_m + 1) * (self.degree + 1)


@dataclass(frozen=True)
class ExactCommutantResult:
    ansatz: CommutantAnsatz
    basis: tuple  # PolynomialBandOperator per nullspace vector

    @property
    def dimension(self):
        return len(self.basis)

    def spans(self, candidate_bands):
        """True if the candidate ``{band: coefficients}`` lies in the span
        of the found solutions (as band polynomials)."""
        m = self.ansatz.band_m
        d = self.ansatz.degree
        cand = {j: tuple(Fraction(c) for c in p) for j, p in candidate_bands.items()}
        for j, p in cand.items():
            if abs(j) > m or poly_degree(p) > d:
                return False

        def vec(bands):  # the solver's slicing, read backwards
            out = [Fraction(0)] * ((2 * m + 1) * (d + 1))
            for j, part in _band_slices(self.ansatz):
                p = bands.get(j, ())[: d + 1]
                out[part.start : part.start + len(p)] = p
            return out
        cols = [vec(sol.bands) for sol in self.basis] + [vec(cand)]
        # the basis is independent, so the candidate (last column) lies in
        # its span exactly when that column gets no pivot
        _, pivots = rref([list(row) for row in zip(*cols)])
        return len(self.basis) not in pivots


def _band_slices(ansatz):
    """``(band, slice)`` of each band's coefficients in a vector of the
    ansatz's unknowns, which is band-major, then degree: the order of
    ``commutant_columns``."""
    m, width = ansatz.band_m, ansatz.degree + 1
    return [(j, slice((j + m) * width, (j + m + 1) * width)) for j in range(-m, m + 1)]


def _integer_bands(bands):
    """``(table, scale)``: the band table ``{j: coefficients}`` times
    ``scale``, the lcm of all its coefficients' denominators, so the same
    table up to a nonzero integer factor, with int coefficients."""
    ratios = {j: [x.as_integer_ratio() for x in p] for j, p in bands.items()}
    scale = lcm(*(d for p in ratios.values() for _, d in p))
    return {j: tuple(n * (scale // d) for n, d in p) for j, p in ratios.items()}, scale


def commutant_columns(l_bands, ansatz):
    """Columns of the exact commutant system, one per unknown ``(j, d)`` of
    the ansatz in ``(band, degree)`` order: the nonzero coefficients
    ``{(band, n-power): c}`` of ``[L, n^d T^j]``.

    Uses the closed form ``[L, n^d T^j] = sum_i (L_i(n) (n + i)^d -
    n^d L_i(n + j)) T^(i + j)``: ``L_i(n) (n + i)^d`` is formed once per
    band ``i`` and power ``d``, and ``L_i(n + j)`` once per shift ``j``.
    """
    degrees = range(ansatz.degree + 1)
    left = {
        (i, d): poly_mul(p, tuple(comb(d, e) * i ** (d - e) for e in range(d + 1)))
        for i, p in l_bands.items()
        for d in degrees
    }
    columns = []
    for j in range(-ansatz.band_m, ansatz.band_m + 1):
        shifted = {i: poly_shift_arg(p, j) for i, p in l_bands.items()}
        for d in degrees:
            entries = {}
            for i, p in shifted.items():
                coeffs = poly_sub(left[i, d], (0,) * d + p)
                for e, c in enumerate(coeffs):
                    if c != 0:
                        entries[(i + j, e)] = c
            columns.append(entries)
    return columns


def commutant_solve_exact(l_op, ansatz):
    """Exact basis of ``{X in ansatz : [L, X] = 0 identically in n}``.

    ``l_op`` must be a :class:`PolynomialBandOperator`.  Each band of the
    commutator is a polynomial in n; requiring every n-power of every band to
    vanish yields an exact linear system solved by fraction-free elimination.
    The system is built from ``c L`` with integer bands (``c`` the lcm of
    the band denominators): ``[c L, X] = c [L, X]``, so its nullspace is the
    commutant of ``L`` itself, and its matrix holds only ints.
    """
    if not isinstance(l_op, PolynomialBandOperator):
        raise AnsatzError(
            "exact commutant solving needs polynomial band data (a PolynomialBandOperator)"
        )
    columns = commutant_columns(l_op._scaled[0], ansatz)
    rows = {}  # (band, n-power) -> dense row, in order of first appearance
    for col, entries in enumerate(columns):
        for key, c in entries.items():
            row = rows.get(key)
            if row is None:
                row = rows[key] = [0] * len(columns)
            row[col] = c

    basis = []
    for vec in nullspace(list(rows.values()), ncols=len(columns)):
        bands = {}
        for j, part in _band_slices(ansatz):
            p = vec[part]
            bands[j] = p[: poly_degree(p) + 1]
        basis.append(PolynomialBandOperator(bands))
    return ExactCommutantResult(ansatz=ansatz, basis=tuple(basis))


def exact_commutator_is_zero(l_op, x_op):
    """Exact check that ``[L, X] = 0`` identically (polynomial band data).

    Every coefficient of every band is tested, on integer bands:
    ``[c L, d X] = c d [L, X]`` for the nonzero integers ``c`` and ``d``
    that clear the denominators of ``L`` and ``X``, so it vanishes exactly
    when ``[L, X]`` does.
    """
    comm = commutator_polynomial_bands(l_op._scaled[0], x_op._scaled[0])
    return all(poly_is_zero(p) for p in comm.values())


@dataclass(frozen=True)
class WindowedCommutantResult:
    band_m: int
    n0: int
    n1: int
    nullity: int
    threshold: float
    singular_max: float
    singular_tail: tuple  # ascending, the smallest few
    gap: float
    representative: dict  # band -> list of coefficient values over the window
    residual: float

    def to_json_dict(self):
        return {
            "band_m": self.band_m,
            "window": [self.n0, self.n1],
            "nullity": self.nullity,
            "threshold": self.threshold,
            "singular_max": self.singular_max,
            "singular_tail": list(self.singular_tail),
            "gap": self.gap,
            "residual": self.residual,
            "representative": {
                str(j): [float(c) for c in col]
                for j, col in self.representative.items()
            },
        }


# Singular values below this fraction of the largest count toward the
# numerical nullity of the windowed commutant system.
NULLITY_THRESHOLD = 1e-8


def commutant_solve_windowed(l_op, band_m, n0, n1):
    """Numeric analogue for operators without polynomial structure.

    Unknowns are free coefficient values ``x_i(n)`` on the window sites
    ``n0..n1``, band-major; each equation is one coefficient of

        [L, X]_k(n) = sum_j L_j(n) x_{k-j}(n+j) - sum_i x_i(n) L_{k-i}(n+i),

    the first sum over the bands ``j`` of ``L`` with ``|k - j| <= band_m``,
    the second over ``|i| <= band_m`` with ``k - i`` a band of ``L``; both
    are non-empty for every ``k`` from ``lo - band_m`` to ``hi + band_m``.
    Row ``(k, n)`` is kept when every site it reads, ``n + j`` for each
    ``j`` of the first sum and ``n`` itself, lies in the window (boundary
    unknowns are free, interior equations are complete).  The rows read L
    from its window on sites ``n0 - band_m..n1 + band_m``, so each
    coefficient of L is evaluated once.  The rank counts
    the singular values strictly above ``NULLITY_THRESHOLD * sigma_max``,
    so an all-zero system has rank 0 and full nullity; ``gap`` is the ratio
    between the smallest kept and the largest discarded singular value, inf
    when either side is empty (commutant candidates should be separated by
    many orders of magnitude from the generic spectrum).
    """
    if band_m < 0 or n0 > n1:
        raise AnsatzError(
            f"windowed ansatz needs band_m >= 0 and n0 <= n1, got band_m = "
            f"{band_m} and window {n0},{n1}"
        )
    sites = list(range(n0, n1 + 1))
    x_bands = range(-band_m, band_m + 1)
    col_index = {}
    for i in x_bands:
        for n in sites:
            col_index[(i, n)] = len(col_index)
    ncols = len(col_index)

    win = l_op.window(n0 - band_m, n1 + band_m)
    rows = []
    for k in range(l_op.lo - band_m, l_op.hi + band_m + 1):
        lx = [j for j in range(l_op.lo, l_op.hi + 1) if abs(k - j) <= band_m]
        xl = [i for i in x_bands if l_op.lo <= k - i <= l_op.hi]
        reach = lx + [0]  # offsets of the sites that row (k, n) reads
        for n in range(n0 - min(reach), n1 - max(reach) + 1):
            row = np.zeros(ncols)
            for j in lx:
                row[col_index[(k - j, n + j)]] += float(win.coeff(j, n))
            for i in xl:
                row[col_index[(i, n)]] -= float(win.coeff(k - i, n + i))
            rows.append(row)

    if len(rows) < ncols:
        raise AnsatzError(
            f"ill-posed window: {len(rows)} equations for {ncols} unknowns; "
            "widen the site range"
        )
    a = np.array(rows)
    # rows >= columns, so the thin factorization gives s and vh of the same
    # shapes; only U, which is never read, shrinks to rows x columns
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    smax = float(s[0])
    threshold = NULLITY_THRESHOLD * smax
    rank = int(np.sum(s > threshold))
    nullity = ncols - rank
    if 0 < rank < len(s):
        gap = float(s[rank - 1] / s[rank]) if s[rank] > 0 else float("inf")
    else:
        gap = float("inf")

    rep_vec = vh[-1]
    representative = {
        i: [float(rep_vec[col_index[(i, n)]]) for n in sites] for i in x_bands
    }
    residual = float(np.max(np.abs(a @ rep_vec)))
    tail = tuple(float(x) for x in sorted(s)[:8])
    return WindowedCommutantResult(
        band_m=band_m,
        n0=n0,
        n1=n1,
        nullity=nullity,
        threshold=float(threshold),
        singular_max=smax,
        singular_tail=tail,
        gap=gap,
        representative=representative,
        residual=residual,
    )
