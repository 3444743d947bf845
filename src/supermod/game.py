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

    Immutable.  Arithmetic combines games bound to equal lattices and
    returns a new game; anything else raises LatticeMismatchError.
    """

    __slots__ = ("lattice", "values")

    def __init__(self, lattice, values):
        if not isinstance(lattice, DownSetLattice):
            raise TypeError("lattice required")
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
        vals = [Fraction(0)] * len(lattice.elements)
        for mask, val in mapping.items():
            vals[lattice.position(mask)] = Fraction(val)
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


def modular_from_irreducibles(lattice, targets):
    """The unique modular game matching targets on the principal down-sets.

    targets maps every player i to the desired value at the down-set of i.
    Modular games are the additive extensions of per-player weights, so the
    weights are recovered bottom-up and summed.
    """
    p = lattice.poset
    n = p.n
    if set(targets) != set(range(1, n + 1)):
        raise ValueError("targets must cover exactly the players 1..n")
    weight = {}
    for i in sorted(range(1, n + 1), key=lambda i: p.principal_down_set(i).bit_count()):
        below = players_from_mask(p.strict_down_set(i))
        weight[i] = Fraction(targets[i]) - sum(weight[j] for j in below)
    vals = [sum((weight[i] for i in players_from_mask(a)), Fraction(0)) for a in lattice.elements]
    return Game(lattice, vals)


def mobius_transform(v):
    """The Moebius transform of v, as a game on the same lattice.

    mu(c, b) is (-1)^|b\\c| when [c, b] is Boolean and 0 otherwise, and
    [c, b] is Boolean exactly when c is b less a set S of players that are
    removable from b (maximal in b).  So vhat(b) is the sum of
    (-1)^|S| v(b\\S) over the subsets S of the removable players R(b), read
    off the lower covers: 2^|R(b)| terms per element (3^n in all on a flat
    poset) instead of a Moebius value per pair of elements.
    """
    lat = v.lattice
    idx = lat.index
    vals = v.values
    out = []
    for b in lat.elements:
        removable = 0
        for c in lat.lower_covers(b):
            removable |= b ^ c
        total = Fraction(0)
        s = removable
        while True:
            x = vals[idx[b ^ s]]
            if x:
                total += -x if s.bit_count() & 1 else x
            if not s:
                break
            s = (s - 1) & removable
        out.append(total)
    return Game(lat, out)


def mobius_inverse(vhat):
    """Inverse of the Moebius transform: sum the coefficients below each element."""
    lat = vhat.lattice
    els = lat.elements
    vals = vhat.values
    out = []
    for b in els:
        total = Fraction(0)
        for k, c in enumerate(els):
            if not c & ~b and vals[k]:
                total += vals[k]
        out.append(total)
    return Game(lat, out)


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
    difference with its unique lower cover, so the modular part is the
    unanimity combination over those differences.
    """
    lat = v.lattice
    coeff = {
        a: v.value(a) - v.value(lat.join_irreducible_predecessor(a))
        for a in lat.join_irreducibles
    }
    m_vals = [
        sum((c for a, c in coeff.items() if not a & ~b), Fraction(0))
        for b in lat.elements
    ]
    m = Game(lat, m_vals)
    return v - m, m
