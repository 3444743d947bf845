"""Exact rank over the rationals of sparse matrices.

A matrix is a sequence of rows, and a row is a mapping {column: entry} of
its nonzero entries, with nonnegative int columns; a column it does not
name holds zero, so an empty mapping is a zero row.  Entries may be ints or
Fractions.  Rows are read as integers, a row with Fraction entries through
a copy scaled by their denominator lcm, so nothing here ever touches
floating point or changes the caller's rows, and the equality systems of
the extremality criteria (rows of a few +-1 entries each) are eliminated
without touching their zeros.

A caller that can prove an upper bound on the rank passes it as at_most,
and rank first eliminates the integer rows modulo 2.  An integer matrix
has no higher rank over GF(2) than over Q: a square minor that is odd is a
nonzero integer.  So a GF(2) rank that reaches the proven bound is the
rational rank, with no probability involved, and every other case takes
the rational elimination unchanged.
"""

from itertools import compress, repeat
from math import gcd, lcm
from operator import and_

__all__ = ["rank"]

_INT = frozenset({int})
_BIT = (1).__lshift__


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


def rank(rows, at_most=None):
    """Rank of the matrix over the rationals.

    at_most, when given, must be an upper bound on that rank which the
    caller has proved; ValueError if the rows have more independent rows
    modulo 2, which disproves it.  The rank is then certified by _rank_mod2
    when it reaches the bound, and computed by _eliminate otherwise.
    """
    if at_most is not None:
        rows = list(rows)
        low = _rank_mod2(rows)
        if low == at_most:
            return low
        if low > at_most:
            raise ValueError(f"the rows have rank at least {low}, above at_most={at_most}")
    return _eliminate([row for row in map(_scaled, rows) if row])


def _odd_mask(row):
    """The bitmask of the columns where the row, scaled to integers, is
    odd; an int row is read in place, its zeros being even."""
    try:
        return sum(map(_BIT, compress(row, map(and_, row.values(), repeat(1)))))
    except TypeError:  # a Fraction entry has no & operator
        return _odd_mask(_scaled(row))


def _rank_mod2(rows):
    """Rank over GF(2) of the rows scaled to integers, a lower bound on
    their rank over Q.

    Each row becomes the bitmask of its odd columns, and a mask is XORed
    with the pivot keyed by its lowest set bit until it vanishes or its
    lowest bit keys no pivot, where it becomes one.
    """
    pivots = {}
    for m in map(_odd_mask, rows):
        while m:
            low = m & -m
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = m
                break
            m ^= piv
    return len(pivots)


def _eliminate(rows):
    """Rank over Q of nonzero {column: int} rows, which it consumes.

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
