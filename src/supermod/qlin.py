"""Exact rank over the rationals of sparse +-1 matrices.

A matrix is an iterable of rows, and a row is a pair (plus, minus) of
disjoint nonnegative int bitmasks: bit c of plus is a +1 in column c, bit
c of minus a -1, and (0, 0) is a zero row.  These are the equality
systems of the extremality criteria, ranked without touching their
zeros, floating point or the caller's rows.

The caller proves an upper bound on the rank, and rank first eliminates
the rows modulo 2, where a row is the mask plus | minus.  An integer
matrix has no higher rank over GF(2) than over Q: a square minor that is
odd is a nonzero integer.  So a GF(2) rank that reaches the proven bound
is the rational rank, with no probability involved, and every other case
takes the rational elimination, _eliminate, of {column: int} rows.
"""

from math import gcd

__all__ = ["rank"]


def rank(rows, at_most):
    """Rank over Q of the signed (plus, minus) rows, given an upper bound
    at_most on it that the caller has proved; ValueError if the rows have
    more independent rows modulo 2, which disproves it, or if a mask is
    negative or plus and minus share a column, and TypeError on a mask
    that is not an int.  _rank_mod2 certifies a rank that reaches the
    bound, and _eliminate ranks the rows expanded by _signed otherwise.
    """
    rows = list(rows)
    low = _rank_mod2(rows)
    if low == at_most:
        return low
    if low > at_most:
        raise ValueError(f"the rows have rank at least {low}, above at_most={at_most}")
    return _eliminate(_signed(plus, minus) for plus, minus in rows)


def _rank_mod2(rows):
    """Rank over GF(2) of the signed rows, a lower bound on their rank
    over Q; checks every row as rank says.

    A row reads as the mask plus | minus, which is XORed with the pivot
    keyed by its lowest set bit until it vanishes or its lowest bit keys
    no pivot, where it becomes one.
    """
    pivots = {}
    for plus, minus in rows:
        if plus & minus or plus < 0 or minus < 0:
            raise ValueError(f"({plus}, {minus}) is not a pair of disjoint nonnegative masks")
        m = plus | minus
        while m:
            low = m & -m
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = m
                break
            m ^= piv
    return len(pivots)


def _signed(plus, minus):
    """The {column: +-1} map of the signed row (plus, minus)."""
    row = {}
    for m, sign in ((plus, 1), (minus, -1)):
        while m:
            low = m & -m
            row[low.bit_length() - 1] = sign
            m ^= low
    return row


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
