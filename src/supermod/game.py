"""Coalitional games on a down-set lattice.

A game assigns an exact rational value to every lattice element, zero to the
empty coalition.  This module has the Moebius transform and its inverse, the
class predicates (supermodular, modular, monotone, nonnegative), and the
split of a game into its 0-normalized and modular parts.
"""

from __future__ import annotations

# fractions (with the decimal and numbers it loads) is imported by each
# function that builds or tests a Fraction, when it runs: a command that
# answers in integers never loads it
from math import gcd, lcm

from .errors import EmptyCoalitionError, LatticeMismatchError
from .lattice import DownSetLattice, _covering_steps, _split, _square_corners
from .poset import players_from_mask

__all__ = [
    "Game",
    "zero_game",
    "unanimity",
    "modular_from_irreducibles",
    "mobius_transform",
    "mobius_inverse",
    "is_supermodular",
    "is_modular",
    "is_monotone",
    "is_nonnegative",
    "zero_normalize",
]


def _exact(xs, what):
    """xs, or TypeError naming what if it holds a float (already rounded)."""
    if any(isinstance(x, float) for x in xs):
        raise TypeError(f"{what} must be exact (int or Fraction), not float")
    return xs


class Game:
    """Rational-valued set function on a lattice, vanishing on the bottom.

    Immutable.  The values are held as integers by element position over
    one positive denominator, reduced so that equal games have equal
    fields.  Values and scalars go in as ints or Fractions; a float is
    refused with TypeError, since it is already rounded.  Arithmetic
    combines games bound to equal lattices and returns a new game; anything
    else raises LatticeMismatchError.
    """

    __slots__ = ("lattice", "_num", "_den")

    def __init__(self, lattice, values):
        if not isinstance(lattice, DownSetLattice):
            raise TypeError("lattice required")
        from fractions import Fraction

        values = _exact(tuple(values), "game values")
        exact = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
        den = lcm(*(x.denominator for x in exact))
        self._bind(lattice, [x.numerator * (den // x.denominator) for x in exact], den)

    @classmethod
    def _from_ints(cls, lattice, num, den=1):
        """The game worth num[k] / den at element position k, for integers
        num and a positive integer den; reduced, with the checks of
        __init__."""
        game = cls.__new__(cls)
        game._bind(lattice, num, den)
        return game

    def _bind(self, lattice, num, den):
        if len(num) != len(lattice.elements):
            raise ValueError(f"expected {len(lattice.elements)} values, got {len(num)}")
        if num[0]:
            raise ValueError("a game must vanish on the empty coalition")
        g = gcd(den, *num)
        self.lattice = lattice
        self._num = tuple(num) if g == 1 else tuple(x // g for x in num)
        self._den = den // g

    @classmethod
    def from_values(cls, lattice, mapping):
        """Game from a {coalition mask: value} dict; missing entries are 0."""
        vals = [0] * len(lattice.elements)
        for mask, val in mapping.items():
            vals[lattice.position(mask)] = val
        return cls(lattice, vals)

    @property
    def values(self):
        """The values as Fractions, by element position."""
        from fractions import Fraction

        den = self._den
        return tuple(Fraction(x, den) for x in self._num)

    def value(self, mask):
        """The value of one coalition (a lattice element)."""
        from fractions import Fraction

        return Fraction(self._num[self.lattice.position(mask)], self._den)

    __getitem__ = value

    def to_mapping(self):
        """Nonzero values keyed by coalition mask."""
        from fractions import Fraction

        den = self._den
        return {a: Fraction(x, den) for a, x in zip(self.lattice.elements, self._num) if x}

    def is_zero(self):
        return not any(self._num)

    def _same_lattice(self, other):
        if not isinstance(other, Game):
            raise TypeError("expected a game")
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise LatticeMismatchError("games are bound to different lattices")

    def _plus(self, other, sign):
        """self + sign * other, over the lcm of the two denominators."""
        self._same_lattice(other)
        den = lcm(self._den, other._den)
        s, t = den // self._den, sign * (den // other._den)
        num = [s * a + t * b for a, b in zip(self._num, other._num)]
        return Game._from_ints(self.lattice, num, den)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return Game._from_ints(self.lattice, [-a for a in self._num], self._den)

    def __mul__(self, scalar):
        from fractions import Fraction

        scalar = Fraction(_exact([scalar], "a game scalar")[0])
        p, q = scalar.numerator, scalar.denominator
        return Game._from_ints(self.lattice, [p * a for a in self._num], q * self._den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return self.lattice == other.lattice and (self._den, self._num) == (other._den, other._num)

    __hash__ = None

    def __repr__(self):
        parts = ", ".join(
            f"{players_from_mask(a)}: {v}" for a, v in self.to_mapping().items()
        )
        return f"Game({{{parts}}})"


def zero_game(lattice):
    return Game(lattice, [0] * len(lattice.elements))


def unanimity(lattice, a):
    """The game worth 1 exactly on the elements containing a."""
    if a == 0:
        raise EmptyCoalitionError("unanimity games need a nonempty coalition")
    lattice.position(a)
    return Game(lattice, [0 if a & ~b else 1 for b in lattice.elements])


def _scaled_values(v):
    """The stored values of v: (a tuple of integers by element position,
    den), v being worth num[k] / den at position k.  den is positive, so
    the integers keep every sign, order and zero of the values and of their
    sums.  A kernel that writes in place copies the tuple first."""
    return v._num, v._den


def _zeta(lat, val, inverse=False):
    """Zeta transform, in place, of the integers val (one per element): the
    value at b becomes the sum over the down-sets c <= b; inverse=True gives
    the Moebius transform.  O(L*n) lookups.  Values over one common
    denominator (_scaled_values) transform as their numerators.  Only
    mobius_transform and mobius_inverse read it: a modular game, whose
    transform lives on the principal down-sets, is summed by _totals.

    One pass per player i, each player before every player below it: each
    down-set b holding i adds the value at b & ~up(i), up(i) being the
    principal up-set of i.  Invariant: after the passes over players T, the
    value at b sums val[c] over the down-sets c <= b that agree with b
    outside T.  The players above i are in T when i is passed, so the c
    lacking i are those inside b & ~up(i).  The inverse subtracts, in
    reverse order.
    """
    p = lat.poset
    down = [p.principal_down_set(j) for j in range(1, p.n + 1)]
    idx = lat.index
    order = sorted(range(1, p.n + 1), key=lambda i: -down[i - 1].bit_count())
    for i in reversed(order) if inverse else order:
        bit = 1 << (i - 1)
        up = sum(1 << j for j, d in enumerate(down) if d & bit)
        for k, b in enumerate(lat.elements):
            if b & bit:
                x = val[idx[b & ~up]]
                if x:
                    val[k] = val[k] - x if inverse else val[k] + x


def _totals(split, x):
    """The coalition totals of the integers x, one per player index: a list
    by element position of the sum of x over each element, built along the
    lattice's _split as x(a) = x(a - h) + x[h], one addition per element.
    The totals of the player weights are the one modular game with those
    weights."""
    tot = [0]
    append = tot.append
    for k, h in split:
        append(tot[k] + x[h])
    return tot


def _weights(lat, val):
    """The player weights v(down(i)) - v(down(i) - i) of integer values val
    by element position, by player index: the Moebius coefficients of v at
    the principal down-sets."""
    idx = lat.index
    return [
        val[idx[d]] - val[idx[d ^ 1 << i]]
        for i, d in enumerate(map(lat.poset.principal_down_set, range(1, lat.poset.n + 1)))
    ]


def modular_from_irreducibles(lattice, targets):
    """The unique modular game matching targets on the principal down-sets.

    targets maps every player i to the desired value at the down-set of i,
    an int or Fraction; a float is refused with TypeError, as in Game.
    A modular game's Moebius transform lives on the principal down-sets,
    where it is the weight of the top player; the weights are recovered
    bottom-up, as integers over the targets' common denominator, and the
    game is their coalition totals (_totals).
    """
    p = lattice.poset
    n = p.n
    if set(targets) != set(range(1, n + 1)):
        raise ValueError("targets must cover exactly the players 1..n")
    _exact(targets.values(), "targets")
    from fractions import Fraction

    exact = {i: Fraction(x) for i, x in targets.items()}
    den = lcm(*(x.denominator for x in exact.values()))
    weight = [0] * n
    for i in sorted(range(1, n + 1), key=lambda i: p.principal_down_set(i).bit_count()):
        below = players_from_mask(p.strict_down_set(i))
        x = exact[i]
        weight[i - 1] = x.numerator * (den // x.denominator) - sum(weight[j - 1] for j in below)
    return Game._from_ints(lattice, _totals(_split(lattice), weight), den)


def mobius_transform(v):
    """The Moebius transform of v, as a game on the same lattice: the
    inverse zeta pass, since v sums its transform below each element."""
    val, den = _scaled_values(v)
    val = list(val)
    _zeta(v.lattice, val, inverse=True)
    return Game._from_ints(v.lattice, val, den)


def mobius_inverse(vhat):
    """Inverse of the Moebius transform: the zeta pass sums the
    coefficients below each element."""
    val, den = _scaled_values(vhat)
    val = list(val)
    _zeta(vhat.lattice, val)
    return Game._from_ints(vhat.lattice, val, den)


def _square_slacks(val, corners):
    """Slack val[a+i+j] + val[a] - val[a+i] - val[a+j] of every covering
    square, lazily, for integer values val by element position and the
    corners of lattice._square_corners.

    In a distributive lattice the second difference over any pair A, B is the
    sum of these slacks over the grid [A&B, A] x [A&B, B], so the squares
    alone decide supermodularity and modularity; values scaled by a positive
    denominator (_scaled_values) keep each slack's sign.
    """
    for both, base, wi, wj in corners:
        yield val[both] + val[base] - val[wi] - val[wj]


def is_supermodular(v):
    """v(A|B) + v(A&B) >= v(A) + v(B) on every pair: no covering square has
    negative slack."""
    slacks = _square_slacks(_scaled_values(v)[0], _square_corners(v.lattice))
    return all(s >= 0 for s in slacks)


def is_modular(v):
    """Equality on every pair.  On the distributive lattice of down-sets a
    modular game vanishing at the bottom is the valuation of its player
    weights (_weights), so v is modular exactly when its values equal the
    coalition totals of those weights: one O(L) pass, no covering square."""
    lat = v.lattice
    val, _ = _scaled_values(v)
    return _totals(_split(lat), _weights(lat, val)) == list(val)


def is_monotone(v):
    """Nondecreasing along inclusion, checked on the covering edges a < a+i."""
    val, _ = _scaled_values(v)
    return all(
        val[b] >= x for x, moves in zip(val, _covering_steps(v.lattice)) for _, b in moves
    )


def is_nonnegative(v):
    return all(x >= 0 for x in _scaled_values(v)[0])


def zero_normalize(v):
    """Split v = w + m with w 0-normalized and m modular; returns (w, m).

    At a join-irreducible element the Moebius transform collapses to the
    difference with its unique lower cover, the weight of its top player;
    the modular part is the unanimity combination with these weights as
    coefficients, that is the coalition totals of the weights (_totals).
    Both parts are formed as integers over the common denominator of v.
    """
    lat = v.lattice
    val, den = _scaled_values(v)
    mod = _totals(_split(lat), _weights(lat, val))
    w = [x - y for x, y in zip(val, mod)]
    return Game._from_ints(lat, w, den), Game._from_ints(lat, mod, den)
