"""Exact integer linear algebra: RREF and the simplex share one fraction-free
pivot, with one common denominator per matrix.  Imports no package module."""

from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence


def _dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def _int_pivot(tab: list[list[int]], den: int, r: int, c: int) -> int:
    """Fraction-free Gauss-Jordan pivot on entry (r, c) of tab / den, the
    one elimination step here (RREF and every simplex pivot); returns the
    new common denominator p = |tab[r][c]|.

    Row r is kept, negated if its pivot entry is negative, and every other
    row i becomes (row_i * p - row_i[c] * row_r) / den.  From an integer
    matrix with den = 1, den stays the absolute determinant of the pivot
    columns, which are den times unit vectors, and every division is exact
    (Bareiss; the integer pivoting of Avis's lrs).

    Almost every pivot on 0/1 data is unimodular, p = den, and takes
    _unit_pivot's sparse update.  With f = row_i[c] and b = row_r[j], the
    new entry (a * den - f * b) / den = a - f * b / den is an integer, and
    so is a, so den divides f * b: each entry becomes a - f * b // den,
    exactly, and a - f * b when den = 1.  Only the nonzero columns of row
    r change anything, and a row with f = 0 stays as it is.

    Rows are replaced by new lists, never changed in place, so the
    caller's row lists stay as they were.
    """
    if tab[r][c] < 0:
        tab[r] = [-x for x in tab[r]]
    prow = tab[r]
    p = prow[c]
    if p == den:
        _unit_pivot(tab, den, r, c)
        return p
    for i, row in enumerate(tab):
        if i != r:
            f = row[c]
            tab[i] = [(a * p - f * b) // den for a, b in zip(row, prow)]
    return p


def _unit_pivot(tab: list[list[int]], den: int, r: int, c: int) -> None:
    """_int_pivot's update for a pivot entry tab[r][c] equal to den:
    row_i - row_i[c] * row_r / den on the nonzero columns of row r, for
    each row i != r with row_i[c] != 0, into a new list.  Those columns
    are listed on the first such row, so a pivot that updates no row
    (one row, or a column already clear) lists none."""
    support = None
    for i, row in enumerate(tab):
        f = row[c]
        if f and i != r:
            if support is None:
                support = [(j, b) for j, b in enumerate(tab[r]) if b]
            row = row.copy()
            if den == 1:
                for j, b in support:
                    row[j] -= f * b
            else:
                for j, b in support:
                    row[j] -= f * b // den
            tab[i] = row


def _clear_matrix(rows: Iterable[Sequence]) -> tuple[list[list[int]], int]:
    """Integer rows M and D > 0 with rows = M / D, one D for all of them,
    for int or Fraction entries."""
    rows = list(rows)
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in rows], den


def _int_rref(rows: Iterable[list[int]]
              ) -> tuple[list[list[int]], int, list[int]]:
    """RREF of an integer matrix as M / den; returns the nonzero rows of
    M, den and the pivot columns.  The given row lists are not changed."""
    mat = list(rows)
    nrows = len(mat)
    den, pivots = 1, []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        for pr in range(r, nrows):
            if mat[pr][c]:
                break
        else:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        den = _int_pivot(mat, den, r, c)
        pivots.append(c)
    return mat[:len(pivots)], den, pivots


def _null_basis(rref: list[list[int]], den: int, pivots: list[int],
                width: int) -> list[list[int]]:
    """A basis of the null space of an RREF M / den from _int_rref with
    width columns: one integer vector per non-pivot column f, den at f,
    -M[row][f] at the row's pivot column and zero elsewhere."""
    basis = []
    for f in sorted(set(range(width)) - set(pivots)):
        vec = [0] * width
        vec[f] = den
        for row, pc in zip(rref, pivots):
            vec[pc] = -row[f]
        basis.append(vec)
    return basis


def _int_affine_rank(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of integer points, by integer RREF of
    their differences from the first."""
    base = points[0]
    return len(_int_rref([[x - b for x, b in zip(p, base)]
                          for p in points[1:]])[2])


def _coprime(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*vec)
    if g > 1:
        return tuple(x // g for x in vec)
    return tuple(vec)
