import random
from fractions import Fraction

import pytest

from laxchain.poly import (
    poly_add,
    poly_degree,
    poly_eval,
    poly_is_zero,
    poly_mul,
    poly_scale,
    poly_shift_arg,
    poly_sub,
)
from laxchain.rational_linalg import nullspace, rref

from conftest import random_fraction


def test_poly_basics():
    p = (Fraction(1), Fraction(2))  # 1 + 2x
    q = (Fraction(0), Fraction(0), Fraction(3))  # 3x^2
    assert poly_add(p, q) == (1, 2, 3)
    assert poly_sub(q, p) == (-1, -2, 3)
    assert poly_mul(p, q) == (0, 0, 3, 6)
    assert poly_scale(p, Fraction(1, 2)) == (Fraction(1, 2), 1)
    assert poly_eval(p, Fraction(3)) == 7
    assert poly_degree(q) == 2
    assert poly_degree((0, 0)) == -1


def test_empty_polynomial_is_zero():
    p = (Fraction(1), Fraction(2))
    assert poly_mul((), p) == poly_mul(p, ()) == ()
    assert poly_eval((), Fraction(3)) == 0
    assert poly_is_zero((0, Fraction(0)))
    assert not poly_is_zero(p)


def test_poly_shift_arg(rng):
    for _ in range(20):
        p = tuple(random_fraction(rng) for _ in range(rng.randint(1, 5)))
        j = rng.randint(-4, 4)
        shifted = poly_shift_arg(p, j)
        for n in range(-3, 4):
            assert poly_eval(shifted, Fraction(n)) == poly_eval(p, Fraction(n + j))


def test_rref_rank():
    rows, pivots = rref([[1, 2], [2, 4]])
    assert len(pivots) == 1
    rows, pivots = rref([[1, 0], [0, 1]])
    assert len(pivots) == 2


def test_nullspace_solutions(rng):
    # singular 3x3 with known nullspace direction
    m = [
        [Fraction(1), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(2), Fraction(1)],
    ]
    basis = nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    for row in m:
        assert sum(a * x for a, x in zip(row, v)) == 0

    # identity has trivial nullspace
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert nullspace(eye) == []

    # empty system: everything is free
    assert len(nullspace([], ncols=4)) == 4
    with pytest.raises(ValueError):
        nullspace([])


def test_nullspace_random_membership(rng):
    for _ in range(10):
        rows = [
            [random_fraction(rng, 5, 3) for _ in range(5)]
            for _ in range(rng.randint(1, 4))
        ]
        for v in nullspace(rows):
            for row in rows:
                assert sum(a * x for a, x in zip(row, v)) == 0


def dense_rref(matrix):
    """Reference: the dense Fraction elimination that every ``rref`` result
    must reproduce (first nonzero row as pivot, every entry updated)."""
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def random_sparse_matrix(rng, nrows, ncols, max_num, max_den, density):
    """Seeded matrix with duplicate, zero and combined rows, and zero columns:
    rank-deficient whenever it has more than one row."""
    dead_cols = {c for c in range(ncols) if rng.random() < 0.15}
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))  # duplicate
        elif kind < 0.25:
            rows.append([0] * ncols)  # zero row
        elif len(rows) >= 2 and kind < 0.4:
            a, b = rng.sample(rows, 2)  # combination of earlier rows
            f = random_fraction(rng, max_num, max_den)
            rows.append([x + f * y for x, y in zip(a, b)])
        else:
            rows.append([
                random_fraction(rng, max_num, max_den)
                if c not in dead_cols and rng.random() < density else 0
                for c in range(ncols)
            ])
    return rows


SHAPES = [(1, 1), (1, 7), (7, 1), (3, 3), (5, 12), (12, 5), (9, 9), (30, 14), (14, 30)]


@pytest.mark.parametrize("bounds", [(50, 8), (10**9, 10**6)], ids=["default", "wide"])
@pytest.mark.parametrize("shape", SHAPES, ids=[f"{r}x{c}" for r, c in SHAPES])
def test_rref_matches_dense_reference(shape, bounds):
    rng = random.Random(str((shape, bounds)))
    for density in (0.2, 0.5, 1.0):
        for _ in range(3):
            m = random_sparse_matrix(rng, *shape, *bounds, density)
            snapshot = [list(row) for row in m]
            got = rref(m)
            assert got == dense_rref(m)
            assert m == snapshot  # the input is left as it was
            rows, pivots = got
            assert len(rows) == len(m)
            assert all(type(x) is Fraction for row in rows for x in row)


def test_rref_edge_inputs():
    assert rref([]) == ([], [])
    assert rref([[]]) == dense_rref([[]])
    assert rref([[0, 0], [0, 0]]) == dense_rref([[0, 0], [0, 0]])
    assert rref([["0", "1/2"], [2, 1.5]]) == dense_rref([["0", "1/2"], [2, 1.5]])
    edge = [
        [[-3, 1, 4], [0, -5, 2], [-6, -3, 1]],  # negative pivots
        [[2, -4, 6, 0], [-6, 12, -18, 0], [0, 1, 1, 7]],  # an integer multiple
        [[10**400, 3, 0], [1, Fraction(1, 10**400), 2], [0, 7, 10**400 + 1]],
        [[0.1, 1], [1, 0.1], [0.1, 0.1]],  # the exact binary value of 0.1
        [["-3/7", 2, 0], [1, "-3/7", "0"], ["-3/7", "-3/7", 5]],
    ]
    for m in edge:
        snapshot = [list(row) for row in m]
        got = rref(m)
        assert got == dense_rref(m)
        assert m == snapshot
        assert all(type(x) is Fraction for row in got[0] for x in row)
