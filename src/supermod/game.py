"""Coalitional games on a down-set lattice.

A game assigns an exact rational value to every lattice element, zero to the
empty coalition.  This module has the Moebius transform and its inverse, the
class predicates (supermodular, modular, monotone, nonnegative), and the
split of a game into its 0-normalized and modular parts.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EmptyCoalitionError, LatticeMismatchError
from .lattice import DownSetLattice, addable_pairs
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
        values = tuple(Fraction(v) for v in values)
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


def _zeta(lat, values, inverse=False):
    """Zeta transform of values (one per element): the value at b becomes
    the sum over the down-sets c <= b; inverse=True gives the Moebius
    transform.  Returns a new list, after O(L*n) lookups.

    One pass per player i, each player before every player below it: each
    down-set b holding i adds the value at b & ~up(i), up(i) being the
    principal up-set of i.  Invariant: after the passes over players T, the
    value at b sums values[c] over the down-sets c <= b that agree with b
    outside T.  The players above i are in T when i is passed, so the c
    lacking i are those inside b & ~up(i).  The inverse subtracts, in
    reverse order.
    """
    p = lat.poset
    n = p.n
    idx = lat.index
    order = sorted(range(1, n + 1), key=lambda i: -p.principal_down_set(i).bit_count())
    out = list(values)
    for i in reversed(order) if inverse else order:
        bit = 1 << (i - 1)
        up = sum(1 << (j - 1) for j in range(1, n + 1) if p.leq(i, j))
        for k, b in enumerate(lat.elements):
            if b & bit:
                x = out[idx[b & ~up]]
                if x:
                    out[k] = out[k] - x if inverse else out[k] + x
    return out


def modular_from_irreducibles(lattice, targets):
    """The unique modular game matching targets on the principal down-sets.

    targets maps every player i to the desired value at the down-set of i,
    an int or Fraction; a float is refused with TypeError, as in Game.
    A modular game's Moebius transform lives on the principal down-sets,
    where it is the weight of the top player; the weights are recovered
    bottom-up and summed by the zeta pass.
    """
    p = lattice.poset
    n = p.n
    if set(targets) != set(range(1, n + 1)):
        raise ValueError("targets must cover exactly the players 1..n")
    if any(isinstance(x, float) for x in targets.values()):
        raise TypeError("targets must be exact (int or Fraction), not float")
    weight = {}
    for i in sorted(range(1, n + 1), key=lambda i: p.principal_down_set(i).bit_count()):
        below = players_from_mask(p.strict_down_set(i))
        weight[i] = Fraction(targets[i]) - sum(weight[j] for j in below)
    vals = [Fraction(0)] * len(lattice.elements)
    for i, x in weight.items():
        vals[lattice.index[p.principal_down_set(i)]] = x
    return Game(lattice, _zeta(lattice, vals))


def mobius_transform(v):
    """The Moebius transform of v, as a game on the same lattice: the
    inverse zeta pass, since v sums its transform below each element."""
    return Game(v.lattice, _zeta(v.lattice, v.values, inverse=True))


def mobius_inverse(vhat):
    """Inverse of the Moebius transform: the zeta pass sums the
    coefficients below each element."""
    return Game(vhat.lattice, _zeta(vhat.lattice, vhat.values))


def _square_slacks(v):
    """Slack v(a+i+j) + v(a) - v(a+i) - v(a+j) of every covering square.

    In a distributive lattice the second difference over any pair A, B is the
    sum of these slacks over the grid [A&B, A] x [A&B, B], so the squares
    alone decide supermodularity and modularity.
    """
    vals = v.values
    idx = v.lattice.index
    for a, i, j in addable_pairs(v.lattice):
        bi = 1 << (i - 1)
        bj = 1 << (j - 1)
        yield vals[idx[a | bi | bj]] + vals[idx[a]] - vals[idx[a | bi]] - vals[idx[a | bj]]


def is_supermodular(v):
    """v(A|B) + v(A&B) >= v(A) + v(B) on every pair: no covering square has
    negative slack."""
    return all(s >= 0 for s in _square_slacks(v))


def is_modular(v):
    """Equality on every pair: every covering square has zero slack."""
    return not any(_square_slacks(v))


def is_monotone(v):
    """Nondecreasing along inclusion, checked on the covering edges a < a+i."""
    lat = v.lattice
    vals = v.values
    return all(
        vals[lat.index[b]] >= x
        for a, x in zip(lat.elements, vals)
        for b in lat.upper_covers(a)
    )


def is_nonnegative(v):
    return all(x >= 0 for x in v.values)


def zero_normalize(v):
    """Split v = w + m with w 0-normalized and m modular; returns (w, m).

    At a join-irreducible element the Moebius transform collapses to the
    difference with its unique lower cover; the modular part is the zeta
    pass over those differences, the unanimity combination with them as
    coefficients.
    """
    lat = v.lattice
    vals = [Fraction(0)] * len(lat.elements)
    for a in lat.join_irreducibles:
        vals[lat.index[a]] = v.value(a) - v.value(lat.join_irreducible_predecessor(a))
    m = Game(lat, _zeta(lat, vals))
    return v - m, m
