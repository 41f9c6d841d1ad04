"""Exact linear algebra over the rationals: RREF and nullspace bases.

Elimination is sparse: a row is a ``{column: Fraction}`` dict of its
nonzeros, and each column's pivot is the pending row with the fewest
nonzeros (Markowitz, Management Science 3, 1957), which keeps fill-in low.
The reduced row echelon form of a matrix is unique, so the pivot order
changes the work done and never the result.
"""

from fractions import Fraction

__all__ = ["nullspace", "rref"]


def _subtract_multiple(row, f, pivot_row):
    """``row -= f * pivot_row`` in place, dropping entries that cancel."""
    for c, y in pivot_row.items():
        x = row.get(c)
        if x is None:
            row[c] = -f * y
        else:
            x -= f * y
            if x:
                row[c] = x
            else:
                del row[c]


def rref(matrix):
    """Reduced row echelon form of ``matrix`` (a list of equal-length rows).

    Entries may be anything ``Fraction`` accepts; the input is not modified.
    Returns ``(rows, pivots)``: ``rows`` holds ``len(matrix)`` dense rows of
    Fractions, the pivot rows first (in pivot order) and then zero rows;
    ``pivots`` lists the pivot columns in ascending order.
    """
    if not matrix:
        return [], []
    ncols = len(matrix[0])
    # Zeros are skipped before the Fraction conversion: converting every
    # entry of the mostly-zero commutant system costs as much as eliminating.
    pending = []
    for row in matrix:
        entries = {}
        for c, x in enumerate(row):
            if x:
                x = Fraction(x)
                if x:
                    entries[c] = x
        if entries:
            pending.append(entries)

    echelon = []  # (pivot column, row with a 1 there), forward-eliminated
    for c in range(ncols):
        candidates = [row for row in pending if c in row]
        if not candidates:
            continue
        pivot_row = min(candidates, key=len)
        pv = pivot_row.pop(c)
        if pv != 1:
            for k in pivot_row:
                pivot_row[k] /= pv
        for row in candidates:
            if row is not pivot_row:
                _subtract_multiple(row, row.pop(c), pivot_row)
        pending = [row for row in pending if row and row is not pivot_row]
        pivot_row[c] = Fraction(1)
        echelon.append((c, pivot_row))
        if not pending:
            break

    # Back-substitution, bottom-up: each pivot row is already free of the
    # later pivot columns when it is subtracted from the rows above it.
    for j in range(len(echelon) - 1, 0, -1):
        c, pivot_row = echelon[j]
        for _, row in echelon[:j]:
            f = row.get(c)
            if f is not None:
                _subtract_multiple(row, f, pivot_row)

    zero = Fraction(0)
    rows = []
    for _, row in echelon:
        dense = [zero] * ncols
        for k, x in row.items():
            dense[k] = x
        rows.append(dense)
    rows.extend([zero] * ncols for _ in range(len(matrix) - len(echelon)))
    return rows, [c for c, _ in echelon]


def nullspace(matrix, ncols=None):
    """Basis of ``{x : matrix @ x = 0}`` as a list of exact coefficient vectors.

    ``ncols`` must be given when ``matrix`` has no rows (everything is free).
    """
    if not matrix:
        if ncols is None:
            raise ValueError("ncols required for an empty system")
        basis = []
        for i in range(ncols):
            v = [Fraction(0)] * ncols
            v[i] = Fraction(1)
            basis.append(v)
        return basis
    ncols = len(matrix[0])
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
