"""Marginal vectors, tight sets, cores, and payoff-array reconstruction.

A payoff vector is a tuple of n Fractions, one per player.  The payoff array
of a game collects its marginal vector along every maximal chain; it is
linear and injective in the game, and a configuration of vectors comes from
a 0-normalized game exactly when the two consistency conditions checked in
game_from_configuration hold.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import eq

from .errors import ConsistencyError, NotSupermodularError, SizeError
from .game import Game, _exact, _scaled_values, is_supermodular
from .lattice import DEFAULT_MAX_CHAINS, _covering_steps
from .poset import format_perm, players_from_mask

__all__ = [
    "payoff",
    "marginal_vector",
    "tight_sets",
    "zero_coords",
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

    ValueError if the mask holds a player past the end of x; TypeError on a
    float.  A vector longer than the players cannot be told apart without n,
    so callers that know n (such as core_contains) check that themselves.
    """
    if mask >> len(x):
        raise ValueError(
            f"coalition holds player {mask.bit_length()}, the vector has {len(x)} entries"
        )
    return _total(_exact(x, "payoffs"), mask)


def _total(x, mask):
    return sum((x[i - 1] for i in players_from_mask(mask)), Fraction(0))


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
    lat = v.lattice
    val, _ = _scaled_values(v)
    x = [0] * lat.poset.n
    for below, a, player in zip(chain.sets, chain.sets[1:], chain.perm):
        x[player - 1] = val[lat.index[a]] - val[lat.index[below]]
    return next(_tight_zeros(lat, _split_plan(_covering_steps(lat)), val, [x]))[0]


def zero_coords(v, chain):
    """Players whose marginal increment along the chain is zero."""
    return frozenset(i for i, t in enumerate(marginal_vector(v, chain), start=1) if not t)


def _split_plan(steps):
    """Every nonempty element, by position, as one lower cover plus one
    player, from the lattice's _covering_steps: the pairs (position of the
    cover, player index) along which _tight_zeros sums."""
    into = {b: (k, i) for k, moves in enumerate(steps) for i, b in moves}
    return [into[b] for b in range(1, len(steps))]


def _tight_zeros(lat, split, val, vectors, shift=None):
    """(tight elements, zero players) of each integer marginal vector x:
    the elements a where x(a) equals their value, and the players i whose
    coordinate x[i-1] equals shift[i-1] (zero when no shift is given).

    val holds an integer at every element position, the values of a game
    scaled over one common denominator (game._scaled_values).  split is the
    lattice's _split_plan, so the coalition totals x(a) = x(parent) +
    x[player] take one addition per element: O(L) per vector.
    """
    els = lat.elements
    players = range(1, lat.poset.n + 1)
    shift = shift or [0] * lat.poset.n
    for x in vectors:
        tot = [0]
        for k, i in split:
            tot.append(tot[k] + x[i])
        yield (
            frozenset(compress(els, map(eq, tot, val))),
            frozenset(compress(players, map(eq, x, shift))),
        )


def _vertex_walk(lat, steps, val, max_chains):
    """The distinct integer marginal vectors of val over all maximal chains,
    as a set of n-tuples; val holds an integer at every element position
    and steps are the lattice's _covering_steps.

    One pass over the lattice in element order carries, for every down-set
    a, the distinct partial marginal vectors of the chains from the bottom
    to a, and extends each by the increment val[a+i] - val[a] of every
    addable player i.  Only the sets of the rank being read and the next
    one are alive, and no maximal chain is built.  The chains through one
    rank are split by the element they pass there, so the partial vectors
    of a rank are never more than the maximal chains; SizeError refuses a
    rank holding more than max_chains of them.  Cost: O(n) for each
    partial vector and covering edge leaving its down-set, at most e*n!
    pairs (reached on a flat poset whose marginal vectors are all
    distinct) and far fewer when marginal vectors coincide.
    """
    reach = {0: {(0,) * lat.poset.n}}
    rank = 0
    held = 0  # the partial vectors built so far at rank + 1
    for k, a in enumerate(lat.elements[:-1]):
        if a.bit_count() != rank:
            rank += 1
            held = 0
        vecs = reach.pop(k)
        for i, b in steps[k]:
            d = (val[b] - val[k],)
            out = reach.setdefault(b, set())
            size = len(out)
            out.update(x[:i] + d + x[i + 1 :] for x in vecs)
            held += len(out) - size
            if held > max_chains:
                raise SizeError(
                    f"the vertex walk holds {held} partial marginal vectors at rank"
                    f" {rank + 1}, over the cap of {max_chains}; raise it with"
                    " --max-chains or max_chains"
                )
    return reach.pop(len(steps) - 1)


def point_configuration(v):
    """The payoff array of v: marginal vector keyed by permutation."""
    return {c.perm: marginal_vector(v, c) for c in v.lattice.maximal_chains()}


def core_contains(v, x):
    """True iff x is efficient and dominates v everywhere; TypeError on a float."""
    x = tuple(map(Fraction, _exact(tuple(x), "payoffs")))
    if len(x) != v.lattice.poset.n:
        raise ValueError(f"vector must have {v.lattice.poset.n} entries, got {len(x)}")
    if _total(x, v.lattice.top) != v.value(v.lattice.top):
        return False
    return all(_total(x, a) >= v.value(a) for a in v.lattice.elements)


def core_vertices(v, max_chains=DEFAULT_MAX_CHAINS):
    """Vertices of the core of a supermodular game: the distinct marginal
    vectors, in lexicographic order.

    After the O(L*n^2) supermodularity check, one vertex walk over the
    covering edges (_vertex_walk) collects them in integers; max_chains
    caps the partial vectors it holds per rank.
    """
    if not is_supermodular(v):
        raise NotSupermodularError(
            "core vertices coincide with the marginal vectors only for"
            " supermodular games"
        )
    val, den = _scaled_values(v)
    top = sorted(_vertex_walk(v.lattice, _covering_steps(v.lattice), val, max_chains))
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
    pos = lat.index
    best = {0: 0}
    for k, a in enumerate(lat.elements[:-1]):
        here = best.pop(a)
        for i in players_from_mask(lat.addable_mask(a)):
            bit = 1 << (i - 1)
            b = a | bit
            t = here + val[pos[b]] - val[k] if mask & bit else here
            if b not in best or t < best[b]:
                best[b] = t
    return Fraction(best[lat.top], den)


def game_from_configuration(lattice, config):
    """The 0-normalized game whose payoff array equals config.

    config maps every compatible permutation to a payoff vector.  Raises
    ConsistencyError when two chains disagree on a shared coalition total
    ("shared-element") or when the coordinate added at a principal down-set
    is nonzero ("zero-coordinate"); TypeError for a float entry.
    """
    chains = lattice.maximal_chains()
    if set(config) != {c.perm for c in chains}:
        raise ValueError(
            "configuration domain must be exactly the compatible permutations"
        )
    n = lattice.poset.n
    totals = {}
    for c in chains:
        y = _exact(config[c.perm], "payoffs")
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
    return Game(lattice, [Fraction(0)] + [totals[a][0] for a in lattice.elements[1:]])


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
