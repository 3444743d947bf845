"""Exact rank over the rationals of sparse integer matrices.

A matrix is an iterable of rows, and a row is a mapping {column: entry}
of its nonzero int entries, with nonnegative int columns; a column it
does not name holds zero, and an empty mapping is a zero row.  These are the
equality systems of the extremality criteria (rows of a few +-1 entries
each), eliminated without touching their zeros, floating point or the
caller's rows.

The caller proves an upper bound on the rank, and rank first eliminates
the rows modulo 2.  An integer matrix has no higher rank over GF(2) than
over Q: a square minor that is odd is a nonzero integer.  So a GF(2) rank
that reaches the proven bound is the rational rank, with no probability
involved, and every other case takes the rational elimination.
"""

from math import gcd

__all__ = ["rank"]


def rank(rows, at_most):
    """Rank over Q of the int rows, given an upper bound at_most on it that
    the caller has proved; ValueError if the rows have more independent
    rows modulo 2, which disproves it, and TypeError on an entry that is
    not an int.  _rank_mod2 certifies a rank that reaches the bound, and
    _eliminate ranks copies of the rows otherwise.
    """
    rows = list(rows)
    low = _rank_mod2(rows)
    if low == at_most:
        return low
    if low > at_most:
        raise ValueError(f"the rows have rank at least {low}, above at_most={at_most}")
    return _eliminate(map(dict, rows))


def _rank_mod2(rows):
    """Rank over GF(2) of the int rows, a lower bound on their rank over Q.

    Each row becomes the bitmask of its odd columns, and a mask is XORed
    with the pivot keyed by its lowest set bit until it vanishes or its
    lowest bit keys no pivot, where it becomes one.
    """
    pivots = {}
    for row in rows:
        m = 0
        for c, x in row.items():
            if x & 1:
                m |= 1 << c
        while m:
            low = m & -m
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = m
                break
            m ^= piv
    return len(pivots)


def _eliminate(rows):
    """Rank over Q of {column: int} rows, which it consumes.

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
    for row in sorted(rows, key=len):
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
