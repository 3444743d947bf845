"""Exact rank over the rationals of small dense matrices.

A matrix is a sequence of rows; entries may be ints or Fractions.  Rows are
scaled to integers up front and the elimination is fraction-free (Bareiss),
so nothing here ever touches floating point.
"""

from fractions import Fraction
from math import lcm

__all__ = ["rank"]


def _int_rows(rows):
    """Integer copies of the rows, each scaled by its denominator lcm."""
    out = []
    for row in rows:
        den = 1
        for x in row:
            if isinstance(x, Fraction):
                den = lcm(den, x.denominator)
        if den == 1:
            out.append([int(x) for x in row])
        else:
            out.append([int(x * den) for x in row])
    return out


def _echelon(m):
    """In-place fraction-free row echelon form; returns the pivot columns."""
    if not m:
        return []
    nrows = len(m)
    ncols = len(m[0])
    piv_cols = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        pivot = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nrows):
            row_i = m[i]
            f = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = (pivot * row_i[j] - f * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return piv_cols


def rank(rows):
    """Rank of the matrix over the rationals."""
    m = _int_rows(rows)
    m = [row for row in m if any(row)]
    if not m:
        return 0
    m = [list(t) for t in dict.fromkeys(tuple(row) for row in m)]
    return len(_echelon(m))
