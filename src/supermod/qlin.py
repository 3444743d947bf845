"""Exact rank over the rationals of sparse matrices.

A matrix is a sequence of rows; entries may be ints or Fractions.  Each row
is scaled to integers and kept as a {column: entry} dict of its nonzero
entries, so nothing here ever touches floating point, and the equality
systems of the extremality criteria (rows of a few +-1 entries each) are
eliminated without touching their zeros.
"""

from itertools import compress
from math import gcd, lcm

__all__ = ["rank"]


def _sparse(row):
    """The nonzero entries of a row as {column: int}, scaled by their
    denominator lcm; None for a zero row."""
    cols = list(compress(range(len(row)), row))
    if not cols:
        return None
    den = lcm(*(row[j].denominator for j in cols))
    return {j: int(row[j] * den) for j in cols}


def rank(rows):
    """Rank of the matrix over the rationals.

    Fraction-free sparse elimination: rows are taken shortest first, and a
    row whose leading column already holds a pivot is cross-multiplied
    against that pivot (b/g * row - a/g * pivot for leading entries a, b
    and g = gcd(a, b); a plain subtraction of a multiple when the pivot
    leads with +-1) until it vanishes or leads in a new column, where it
    becomes that column's pivot.  Every reduced row is divided by the gcd
    of its entries, which keeps them small.  Each step keeps the span of
    the row and the pivots, and the pivots lead in distinct columns, so
    their count is the rank.
    """
    pivots = {}
    for row in sorted(filter(None, map(_sparse, rows)), key=len):
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            a = row[c]
            b = piv[c]
            if b == 1 or b == -1:
                f = a * b
            else:
                g = gcd(a, b)
                f = a // g
                s = b // g
                for j in row:
                    row[j] *= s
            for j, x in piv.items():
                y = row.get(j, 0) - f * x
                if y:
                    row[j] = y
                else:
                    del row[j]
            if row:
                g = gcd(*row.values())
                if g != 1:
                    for j in row:
                        row[j] //= g
    return len(pivots)
