"""Marginal vectors, cores, tight families, and payoff-array reconstruction.

A payoff vector is a tuple of n Fractions, one per player.  The payoff array
of a game collects its marginal vector along every maximal chain; it is
linear and injective in the game, and a configuration of vectors comes from
a 0-normalized game exactly when the two consistency conditions checked in
game_from_configuration hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ConsistencyError, NotSupermodularError
from .game import Game, is_supermodular
from .poset import format_perm, players_from_mask

__all__ = [
    "payoff",
    "marginal_vector",
    "tight_sets",
    "zero_coords",
    "TightFamily",
    "tight_family",
    "point_configuration",
    "core_contains",
    "core_vertices",
    "lower_envelope",
    "game_from_configuration",
    "unboundedness_witness",
    "core_h_representation",
]


def payoff(x, mask):
    """Total payoff x(A) of the coalition mask under the vector x.

    ValueError if the mask holds a player past the end of x.  A vector with
    more entries than players cannot be told apart without n, so callers
    that know n (such as core_contains) check that themselves.
    """
    if mask >> len(x):
        raise ValueError(
            f"coalition holds player {mask.bit_length()}, the vector has {len(x)} entries"
        )
    total = Fraction(0)
    m = mask
    while m:
        b = m & -m
        total += x[b.bit_length() - 1]
        m ^= b
    return total


def marginal_vector(v, chain):
    """Increments of v along a maximal chain, indexed by player."""
    x = [Fraction(0)] * v.lattice.poset.n
    prev = Fraction(0)
    for step, player in enumerate(chain.perm, start=1):
        cur = v.value(chain.sets[step])
        x[player - 1] = cur - prev
        prev = cur
    return tuple(x)


def tight_sets(v, chain):
    """Elements where v meets the marginal vector of the chain."""
    return next(_tight_zeros(v, [chain]))[0]


def zero_coords(v, chain):
    """Players whose marginal increment along the chain is zero."""
    return next(_tight_zeros(v, [chain]))[1]


def _tight_zeros(v, chains):
    """(tight elements, zero-increment players) of v along each chain.

    The marginal vectors are built from the values of v scaled to integers
    over one common denominator, and each element is tested as the sum of
    the increments of its members, listed once for all chains.
    """
    lat = v.lattice
    n = lat.poset.n
    val, _ = _scaled_values(v)
    members = [(a, [i - 1 for i in players_from_mask(a)]) for a in lat.elements]
    for c in chains:
        x = [0] * n
        for below, a, player in zip(c.sets, c.sets[1:], c.perm):
            x[player - 1] = val[a] - val[below]
        yield (
            frozenset(a for a, mem in members if sum(map(x.__getitem__, mem)) == val[a]),
            frozenset(i + 1 for i, t in enumerate(x) if not t),
        )


@dataclass(frozen=True)
class TightFamily:
    """Per permutation: the tight elements and the zero-increment players."""

    perms: tuple
    tight: dict
    zeros: dict


def tight_family(v):
    """TightFamily of v over all maximal chains."""
    chains = v.lattice.maximal_chains()
    perms = tuple(c.perm for c in chains)
    tight, zeros = zip(*_tight_zeros(v, chains))
    return TightFamily(perms, dict(zip(perms, tight)), dict(zip(perms, zeros)))


def point_configuration(v):
    """The payoff array of v: marginal vector keyed by permutation."""
    return {c.perm: marginal_vector(v, c) for c in v.lattice.maximal_chains()}


def core_contains(v, x):
    """True iff x is efficient and dominates v on every element."""
    x = tuple(Fraction(t) for t in x)
    if len(x) != v.lattice.poset.n:
        raise ValueError(f"vector must have {v.lattice.poset.n} entries, got {len(x)}")
    if payoff(x, v.lattice.top) != v.value(v.lattice.top):
        return False
    return all(payoff(x, a) >= v.value(a) for a in v.lattice.elements)


def _scaled_values(v):
    """Values of v as integers over one common denominator; returns
    ({element: integer}, den)."""
    den = lcm(*(x.denominator for x in v.values))
    return (
        {a: x.numerator * (den // x.denominator) for a, x in zip(v.lattice.elements, v.values)},
        den,
    )


def core_vertices(v):
    """Vertices of the core of a supermodular game: the distinct marginal
    vectors, in lexicographic order.

    One pass over the lattice in element order carries, for every down-set
    a, the distinct partial marginal vectors of the chains from the bottom
    to a, and extends each by the increment v(a+i) - v(a) of every addable
    player i; only the sets of the rank being read and the next one are
    alive, and no maximal chain is built.  Cost: O(L*n^2) for the
    supermodularity check, then O(n) for each partial vector and covering
    edge leaving its down-set.  There are at most e*n! such pairs (reached
    on a flat poset whose marginal vectors are all distinct) and far fewer
    when marginal vectors coincide.
    """
    if not is_supermodular(v):
        raise NotSupermodularError(
            "core vertices coincide with the marginal vectors only for"
            " supermodular games"
        )
    lat = v.lattice
    val, den = _scaled_values(v)
    reach = {0: {(0,) * lat.poset.n}}
    for a in lat.elements[:-1]:
        vecs = reach.pop(a)
        for i in players_from_mask(lat.addable_mask(a)):
            b = a | 1 << (i - 1)
            d = (val[b] - val[a],)
            reach.setdefault(b, set()).update(x[: i - 1] + d + x[i:] for x in vecs)
    top = sorted(reach.pop(lat.top))
    frac = {t: Fraction(t, den) for t in {t for x in top for t in x}}
    return [tuple(map(frac.__getitem__, x)) for x in top]


def lower_envelope(v, mask):
    """Minimum of x(A) over the marginal vectors of all chains.

    A shortest-path pass in element order: the least total on A of a
    chain from the bottom to b is the minimum, over the lower covers a of
    b, of that least total at a plus v(b) - v(a) when the added player
    lies in A.  O(L*n) and exact for any game, supermodular or not.
    """
    lat = v.lattice
    lat.position(mask)
    val, den = _scaled_values(v)
    best = {0: 0}
    for a in lat.elements[:-1]:
        here = best.pop(a)
        for i in players_from_mask(lat.addable_mask(a)):
            bit = 1 << (i - 1)
            b = a | bit
            t = here + val[b] - val[a] if mask & bit else here
            if b not in best or t < best[b]:
                best[b] = t
    return Fraction(best[lat.top], den)


def game_from_configuration(lattice, config):
    """The 0-normalized game whose payoff array equals config.

    config maps every compatible permutation to a payoff vector.  Raises
    ConsistencyError when two chains disagree on a shared coalition total
    ("shared-element") or when the coordinate added at a principal down-set
    is nonzero ("zero-coordinate").
    """
    chains = lattice.maximal_chains()
    if set(config) != {c.perm for c in chains}:
        raise ValueError(
            "configuration domain must be exactly the compatible permutations"
        )
    n = lattice.poset.n
    totals = {}
    for c in chains:
        y = config[c.perm]
        if len(y) != n:
            raise ValueError(f"vector for {format_perm(c.perm)} must have {n} entries")
        run = Fraction(0)
        for step, player in enumerate(c.perm, start=1):
            run += Fraction(y[player - 1])
            a = c.sets[step]
            known = totals.get(a)
            if known is None:
                totals[a] = (run, c.perm)
            elif known[0] != run:
                raise ConsistencyError(
                    f"chains {format_perm(known[1])} and {format_perm(c.perm)}"
                    f" disagree on coalition {players_from_mask(a)}"
                    f" ({known[0]} vs {run})",
                    kind="shared-element",
                    witness=(known[1], c.perm, a),
                )
    for c in chains:
        y = config[c.perm]
        for step, player in enumerate(c.perm, start=1):
            if c.sets[step] == lattice.poset.principal_down_set(player):
                if Fraction(y[player - 1]):
                    raise ConsistencyError(
                        f"chain {format_perm(c.perm)} reaches the principal"
                        f" down-set of player {player}, whose coordinate must"
                        f" be zero (got {y[player - 1]})",
                        kind="zero-coordinate",
                        witness=(c.perm, player),
                    )
    vals = [Fraction(0)]
    for a in lattice.elements[1:]:
        if a not in totals:
            raise RuntimeError("element missed by every maximal chain")
        vals.append(totals[a][0])
    return Game(lattice, vals)


def unboundedness_witness(lattice):
    """A nonzero recession direction of the core, or None on flat posets.

    For any strict relation i below j, the vector e_i - e_j sums to zero on
    the full set and is nonnegative on every down-set.
    """
    p = lattice.poset
    for i in range(1, p.n + 1):
        for j in range(1, p.n + 1):
            if i != j and p.leq(i, j):
                x = [Fraction(0)] * p.n
                x[i - 1] = Fraction(1)
                x[j - 1] = Fraction(-1)
                return tuple(x)
    return None


def core_h_representation(v):
    """The core as one efficiency equality plus one inequality per element.

    Rows are 0/1 player-coefficient lists; values stay exact Fractions.
    """
    n = v.lattice.poset.n
    top = v.lattice.top

    def row(mask):
        return [1 if mask >> k & 1 else 0 for k in range(n)]

    inequalities = [
        {"coalition": players_from_mask(a), "coeffs": row(a), "rhs": v.value(a)}
        for a in v.lattice.elements
        if a not in (0, top)
    ]
    return {
        "equality": {"coalition": players_from_mask(top), "coeffs": row(top), "rhs": v.value(top)},
        "inequalities": inequalities,
    }
