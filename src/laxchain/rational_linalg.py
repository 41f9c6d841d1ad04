"""Exact linear algebra over the rationals: RREF and nullspace bases.

Elimination is fraction-free and sparse.  Each row is a ``{column: int}``
dict of its nonzeros, kept primitive: a rational row is scaled by the lcm
of its denominators, and every row is divided by the gcd of its entries.
Clearing column ``c`` of a row against a pivot row cross-multiplies,
``row := (p/g) row - (f/g) pivot_row`` with ``p`` and ``f`` their column-``c``
entries and ``g = gcd(p, f)``, so the work stays in plain ints
(fraction-free elimination, Bareiss, Math. Comp. 22, 1968).  Each column's
pivot is the pending row with the fewest nonzeros (Markowitz, Management
Science 3, 1957), which keeps fill-in low.  Only the fully reduced rows are
divided by their pivots, one ``Fraction`` division per entry.  The reduced
row echelon form of a matrix is unique, so neither the pivot order nor the
integer scaling of the rows changes the result.
"""

from fractions import Fraction
from math import gcd, lcm

__all__ = ["nullspace", "rref"]


def _primitive(row):
    """Divide the integer row ``{column: int}`` by the gcd of its entries
    (an empty row stays empty)."""
    g = gcd(*row.values())
    if g != 1:
        for k in row:
            row[k] //= g


def _integer_row(row):
    """The nonzero entries of a rational row as a primitive integer row."""
    # zeros are skipped before any conversion: the commutant system is
    # mostly zeros, and its entries are ints already
    entries = {c: x for c, x in enumerate(row) if x}
    if not all(type(x) is int for x in entries.values()):
        ratios = [(c, Fraction(x).as_integer_ratio()) for c, x in entries.items()]
        scale = lcm(*(d for _, (_, d) in ratios))
        entries = {c: n * (scale // d) for c, (n, d) in ratios if n}
    _primitive(entries)
    return entries


def _eliminate(row, c, pivot_row):
    """Clear column ``c`` of ``row`` against ``pivot_row``, in place:
    ``row := (p/g) row - (f/g) pivot_row`` with ``p = pivot_row[c]``,
    ``f = row[c]`` and ``g = gcd(p, f)``, then made primitive again.
    Entries that cancel, column ``c`` among them, are dropped."""
    p = pivot_row[c]
    f = row[c]
    g = gcd(p, f)
    a = p // g
    b = f // g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, y in pivot_row.items():
        x = row.get(k)
        if x is None:
            row[k] = -b * y
        else:
            x -= b * y
            if x:
                row[k] = x
            else:
                del row[k]
    _primitive(row)


def rref(matrix):
    """Reduced row echelon form of ``matrix`` (a list of equal-length rows).

    Entries may be anything ``Fraction`` accepts; the input is not modified.
    Every nonzero row becomes a primitive integer row, and elimination
    cross-multiplies integer rows (see the module docstring); each reduced
    row is divided by its pivot only at the end.
    Returns ``(rows, pivots)``: ``rows`` holds ``len(matrix)`` dense rows of
    Fractions, the pivot rows first (in pivot order) and then zero rows;
    ``pivots`` lists the pivot columns in ascending order.
    """
    if not matrix:
        return [], []
    ncols = len(matrix[0])
    pending = [entries for entries in map(_integer_row, matrix) if entries]

    echelon = []  # (pivot column, row), forward-eliminated
    for c in range(ncols):
        candidates = [row for row in pending if c in row]
        if not candidates:
            continue
        pivot_row = min(candidates, key=len)
        for row in candidates:
            if row is not pivot_row:
                _eliminate(row, c, pivot_row)
        pending = [row for row in pending if row and row is not pivot_row]
        echelon.append((c, pivot_row))
        if not pending:
            break

    # Back-substitution, bottom-up: each pivot row is already free of the
    # other pivot columns when it is cleared from the rows above it.
    for j in range(len(echelon) - 1, 0, -1):
        c, pivot_row = echelon[j]
        for _, row in echelon[:j]:
            if c in row:
                _eliminate(row, c, pivot_row)

    zero = Fraction(0)
    rows = []
    for c, row in echelon:
        pv = row[c]
        dense = [zero] * ncols
        for k, x in row.items():
            dense[k] = Fraction(x) / pv
        rows.append(dense)
    rows.extend([zero] * ncols for _ in range(len(matrix) - len(echelon)))
    return rows, [c for c, _ in echelon]


def nullspace(matrix, ncols=None):
    """Basis of ``{x : matrix @ x = 0}`` as a list of exact coefficient vectors.

    ``ncols`` must be given when ``matrix`` has no rows: ``rref([])`` has no
    pivots, so every column is free and the basis is the unit vectors.
    """
    if matrix:
        ncols = len(matrix[0])
    elif ncols is None:
        raise ValueError("ncols required for an empty system")
    rows, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis
