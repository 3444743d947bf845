"""Exact rank over the rationals of sparse matrices.

A matrix is a sequence of rows, and a row is a mapping {column: entry} of
its nonzero entries; a column it does not name holds zero, so an empty
mapping is a zero row.  Entries may be ints or Fractions.  Each row is
copied and scaled to integers, so nothing here ever touches floating point
or the caller's rows, and the equality systems of the extremality criteria
(rows of a few +-1 entries each) are eliminated without touching their
zeros.
"""

from math import gcd, lcm

__all__ = ["rank"]

_INT = frozenset({int})


def _scaled(row):
    """A {column: int} copy of the row's nonzero entries, scaled by their
    denominator lcm.  The rows of the extremality criteria hold nonzero ints
    only, so they are copied whole and type-tested in one pass."""
    out = dict(row)
    if 0 in out.values():
        out = {j: x for j, x in out.items() if x}
    if {*map(type, out.values())} <= _INT:
        return out
    den = lcm(*(x.denominator for x in out.values()))
    return {j: int(x * den) for j, x in out.items()}


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
    for row in sorted(filter(None, map(_scaled, rows)), key=len):
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
