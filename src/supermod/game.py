"""Coalitional games on a down-set lattice.

A game assigns an exact rational value to every lattice element, zero to the
empty coalition.  This module has the Moebius transform and its inverse, the
class predicates (supermodular, modular, monotone, nonnegative), and the
split of a game into its 0-normalized and modular parts.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import EmptyCoalitionError, LatticeMismatchError
from .lattice import DownSetLattice, _covering_steps, _square_corners
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


class Game:
    """Rational-valued set function on a lattice, vanishing on the bottom.

    Immutable.  Values and scalars are held as Fractions; a float is
    refused with TypeError, since it is already rounded.  Arithmetic
    combines games bound to equal lattices and returns a new game; anything
    else raises LatticeMismatchError.
    """

    __slots__ = ("lattice", "values")

    def __init__(self, lattice, values):
        if not isinstance(lattice, DownSetLattice):
            raise TypeError("lattice required")
        values = tuple(values)
        if any(isinstance(v, float) for v in values):
            raise TypeError("game values must be exact (int or Fraction), not float")
        # a plain Fraction is kept; ints and Fraction subclasses are converted
        values = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
        if len(values) != len(lattice.elements):
            raise ValueError(
                f"expected {len(lattice.elements)} values, got {len(values)}"
            )
        if values[0]:
            raise ValueError("a game must vanish on the empty coalition")
        self.lattice = lattice
        self.values = values

    @classmethod
    def from_values(cls, lattice, mapping):
        """Game from a {coalition mask: value} dict; missing entries are 0."""
        vals = [0] * len(lattice.elements)
        for mask, val in mapping.items():
            vals[lattice.position(mask)] = val
        return cls(lattice, vals)

    def value(self, mask):
        """The value of one coalition (a lattice element)."""
        return self.values[self.lattice.position(mask)]

    __getitem__ = value

    def to_mapping(self):
        """Nonzero values keyed by coalition mask."""
        return {a: v for a, v in zip(self.lattice.elements, self.values) if v}

    def is_zero(self):
        return not any(self.values)

    def _same_lattice(self, other):
        if not isinstance(other, Game):
            raise TypeError("expected a game")
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise LatticeMismatchError("games are bound to different lattices")

    def __add__(self, other):
        self._same_lattice(other)
        return Game(self.lattice, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._same_lattice(other)
        return Game(self.lattice, [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self):
        return Game(self.lattice, [-a for a in self.values])

    def __mul__(self, scalar):
        if isinstance(scalar, float):
            raise TypeError("a game scales by an exact number (int or Fraction), not float")
        scalar = Fraction(scalar)
        return Game(self.lattice, [scalar * a for a in self.values])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return self.lattice == other.lattice and self.values == other.values

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
    """Values of v as integers over one common denominator; returns
    ([integer by element position], den).  den is positive, so the integers
    keep every sign, order and zero of the values and of their sums."""
    den = lcm(*(x.denominator for x in v.values))
    return [x.numerator * (den // x.denominator) for x in v.values], den


def _zeta(lat, val, inverse=False):
    """Zeta transform, in place, of the integers val (one per element): the
    value at b becomes the sum over the down-sets c <= b; inverse=True gives
    the Moebius transform.  O(L*n) lookups.  Values over one common
    denominator (_scaled_values) transform as their numerators.

    One pass per player i, each player before every player below it: each
    down-set b holding i adds the value at b & ~up(i), up(i) being the
    principal up-set of i.  Invariant: after the passes over players T, the
    value at b sums val[c] over the down-sets c <= b that agree with b
    outside T.  The players above i are in T when i is passed, so the c
    lacking i are those inside b & ~up(i).  The inverse subtracts, in
    reverse order.
    """
    p = lat.poset
    n = p.n
    idx = lat.index
    order = sorted(range(1, n + 1), key=lambda i: -p.principal_down_set(i).bit_count())
    for i in reversed(order) if inverse else order:
        bit = 1 << (i - 1)
        up = sum(1 << (j - 1) for j in range(1, n + 1) if p.leq(i, j))
        for k, b in enumerate(lat.elements):
            if b & bit:
                x = val[idx[b & ~up]]
                if x:
                    val[k] = val[k] - x if inverse else val[k] + x


def modular_from_irreducibles(lattice, targets):
    """The unique modular game matching targets on the principal down-sets.

    targets maps every player i to the desired value at the down-set of i,
    an int or Fraction; a float is refused with TypeError, as in Game.
    A modular game's Moebius transform lives on the principal down-sets,
    where it is the weight of the top player; the weights are recovered
    bottom-up, as integers over the targets' common denominator, and summed
    by the zeta pass.
    """
    p = lattice.poset
    n = p.n
    if set(targets) != set(range(1, n + 1)):
        raise ValueError("targets must cover exactly the players 1..n")
    if any(isinstance(x, float) for x in targets.values()):
        raise TypeError("targets must be exact (int or Fraction), not float")
    exact = {i: Fraction(x) for i, x in targets.items()}
    den = lcm(*(x.denominator for x in exact.values()))
    weight = {}
    val = [0] * len(lattice.elements)
    for i in sorted(range(1, n + 1), key=lambda i: p.principal_down_set(i).bit_count()):
        below = players_from_mask(p.strict_down_set(i))
        x = exact[i]
        weight[i] = x.numerator * (den // x.denominator) - sum(weight[j] for j in below)
        val[lattice.index[p.principal_down_set(i)]] = weight[i]
    _zeta(lattice, val)
    return Game(lattice, [Fraction(x, den) for x in val])


def mobius_transform(v):
    """The Moebius transform of v, as a game on the same lattice: the
    inverse zeta pass, since v sums its transform below each element."""
    val, den = _scaled_values(v)
    _zeta(v.lattice, val, inverse=True)
    return Game(v.lattice, [Fraction(x, den) for x in val])


def mobius_inverse(vhat):
    """Inverse of the Moebius transform: the zeta pass sums the
    coefficients below each element."""
    val, den = _scaled_values(vhat)
    _zeta(vhat.lattice, val)
    return Game(vhat.lattice, [Fraction(x, den) for x in val])


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


def _game_slacks(v):
    """_square_slacks of a game, square by square."""
    return _square_slacks(_scaled_values(v)[0], _square_corners(v.lattice))


def is_supermodular(v):
    """v(A|B) + v(A&B) >= v(A) + v(B) on every pair: no covering square has
    negative slack."""
    return all(s >= 0 for s in _game_slacks(v))


def is_modular(v):
    """Equality on every pair: every covering square has zero slack."""
    return not any(_game_slacks(v))


def is_monotone(v):
    """Nondecreasing along inclusion, checked on the covering edges a < a+i."""
    val, _ = _scaled_values(v)
    return all(
        val[b] >= x for x, moves in zip(val, _covering_steps(v.lattice)) for _, b in moves
    )


def is_nonnegative(v):
    return all(x >= 0 for x in v.values)


def zero_normalize(v):
    """Split v = w + m with w 0-normalized and m modular; returns (w, m).

    At a join-irreducible element the Moebius transform collapses to the
    difference with its unique lower cover; the modular part is the zeta
    pass over those differences, the unanimity combination with them as
    coefficients.  Both parts are formed as integers over the common
    denominator of v.
    """
    lat = v.lattice
    idx = lat.index
    val, den = _scaled_values(v)
    mod = [0] * len(val)
    for a in lat.join_irreducibles:
        mod[idx[a]] = val[idx[a]] - val[idx[lat.join_irreducible_predecessor(a)]]
    _zeta(lat, mod)
    w = [Fraction(x - y, den) for x, y in zip(val, mod)]
    return Game(lat, w), Game(lat, [Fraction(y, den) for y in mod])
