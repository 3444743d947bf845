"""The lattice of down-sets of a poset: elements, chains, Moebius function.

Meet and join of down-sets are plain intersection and union of masks, so the
lattice stores only the element list (canonically ordered), the players
addable to each element and the join-irreducible elements with their
unique lower covers.  One rule builds the first two: a + i is a down-set
exactly when a holds the strict down-set of i.  Everything is exact
integer work.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import SizeError
from .poset import Poset, players_from_mask

__all__ = [
    "MaximalChain",
    "DownSetLattice",
    "build_lattice",
]

DEFAULT_MAX_ELEMENTS = 1 << 20
DEFAULT_MAX_CHAINS = 10**7


class MaximalChain(namedtuple("MaximalChain", "sets perm")):
    """A maximal chain of down-sets together with its compatible permutation.

    sets runs from the empty coalition to the full player set, one player
    added per step; perm[k] is the player added at step k+1.
    """

    __slots__ = ()


def _canonical_key(mask):
    return (mask.bit_count(), mask)


class DownSetLattice:
    """All down-sets of a poset, ordered by inclusion.

    elements is a tuple of coalition masks sorted by (cardinality, mask
    value); index 0 is the empty set and the last entry is the full set.
    Instances are immutable after construction.
    """

    def __init__(self, poset, max_elements=DEFAULT_MAX_ELEMENTS):
        if not isinstance(poset, Poset):
            raise TypeError("poset required")
        self.poset = poset
        n = poset.n
        strict = [poset.strict_down_set(i + 1) for i in range(n)]
        # doubling over a linear extension (the players by the size of their
        # down-sets): player i adds a + i for every down-set a found so far
        # that holds the strict down-set of i
        elements = [0]
        for i in sorted(range(n), key=[s.bit_count() for s in strict].__getitem__):
            s = strict[i]
            bit = 1 << i
            ups = [a | bit for a in elements if a & s == s]
            if len(elements) + len(ups) > max_elements:
                raise SizeError(
                    f"lattice holds at least {len(elements) + len(ups)} elements,"
                    f" over the cap of {max_elements} elements;"
                    " raise it with --max-lattice or max_elements"
                )
            elements += ups
        elements.sort()
        elements.sort(key=int.bit_count)
        self.elements = tuple(elements)
        self.index = {a: k for k, a in enumerate(self.elements)}
        # i is addable to an element a without i exactly when a holds s; an
        # element holding i holds s, so each bit cleared here is set
        full = (1 << n) - 1
        addable = [full ^ a for a in elements]
        for i, s in enumerate(strict):
            if s:
                bit = 1 << i
                addable = [out ^ bit if a & s != s else out for a, out in zip(elements, addable)]
        self._addable = tuple(addable)
        self.top = self.elements[-1]
        self.bottom = 0
        # join-irreducible elements are exactly the principal down-sets;
        # each one covers the set obtained by dropping its top player
        self._ji_pred = {}
        for i in range(1, n + 1):
            a = poset.principal_down_set(i)
            self._ji_pred[a] = a & ~(1 << (i - 1))
        if len(self._ji_pred) != n:
            raise RuntimeError("principal down-sets are not pairwise distinct")
        self.join_irreducibles = tuple(sorted(self._ji_pred, key=_canonical_key))
        # a guard on the doubling build above, over every element
        if not _all_down_sets(poset, elements):
            raise RuntimeError("down-set enumeration produced a non-down-set")

    # -- basic structure ----------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __contains__(self, mask):
        return mask in self.index

    def __eq__(self, other):
        if not isinstance(other, DownSetLattice):
            return NotImplemented
        return self.poset == other.poset

    __hash__ = None

    def __repr__(self):
        return f"DownSetLattice(n={self.poset.n}, size={len(self.elements)})"

    def position(self, mask):
        """Canonical index of an element; ValueError for non-elements."""
        try:
            return self.index[mask]
        except KeyError:
            raise ValueError(
                f"coalition {players_from_mask(mask)} is not a down-set of the poset"
            ) from None

    def join_irreducible_predecessor(self, a):
        """The unique lower cover of a join-irreducible element."""
        try:
            return self._ji_pred[a]
        except KeyError:
            raise ValueError(
                f"coalition {players_from_mask(a)} is not join-irreducible"
            ) from None

    def addable_mask(self, a):
        """Mask of players that can be added to the down-set a."""
        return self._addable[self.position(a)]

    # -- Moebius function ----------------------------------------------------

    def mobius(self, x, y):
        """Moebius value of the ordered pair (x, y); 0 when x is not below y.

        The closed form for distributive lattices: (-1)^|y\\x| when [x, y]
        is Boolean and 0 otherwise.
        """
        k = self.position(x)
        self.position(y)
        if x & ~y or (y & ~x) & ~self._addable[k]:
            return 0
        return -1 if (y & ~x).bit_count() & 1 else 1

    # -- chains ---------------------------------------------------------------

    def maximal_chains(self, max_chains=DEFAULT_MAX_CHAINS):
        """All maximal chains, in lexicographic order of their permutations.

        The count equals the number of order-compatible permutations.  It is
        counted in O(L*n) before any chain is built, and SizeError refuses a
        lattice with more than max_chains of them.

        A depth-first walk over an explicit stack of covering moves (a+i,
        i, position of a+i, rank of a+i), each element's moves pushed
        highest player first so the lowest is taken first; the chain being
        built is overwritten in place from the rank of the move taken, and
        no call nests per player.
        """
        steps = _covering_steps(self)
        count = self._chain_count(steps)
        if count > max_chains:
            raise SizeError(
                f"more than {max_chains} maximal chains: the lattice has {count},"
                " over the cap; raise it with --max-chains or max_chains"
            )
        el = self.elements
        moves = [[(el[b], i + 1, b, el[b].bit_count()) for i, b in out[::-1]] for out in steps]
        n = self.poset.n
        sets = [0] * (n + 1)
        perm = [0] * n
        chains = []
        stack = moves[0][:]
        while stack:
            a, i, k, r = stack.pop()
            sets[r] = a
            perm[r - 1] = i
            stack += moves[k]
            if r == n:  # only the top has no move
                chains.append(MaximalChain(tuple(sets), tuple(perm)))
        return tuple(chains)

    def _chain_count(self, steps):
        """Number of maximal chains: paths from the bottom to the top along
        the covering steps, summed in element order."""
        paths = [1] + [0] * (len(steps) - 1)
        for k, moves in enumerate(steps):
            for _, b in moves:
                paths[b] += paths[k]
        return paths[-1]

    def chain_from_perm(self, perm):
        """The maximal chain of a compatible permutation; ValueError otherwise."""
        perm = tuple(perm)
        n = self.poset.n
        if any(type(p) is not int for p in perm) or sorted(perm) != list(range(1, n + 1)):
            raise ValueError(f"{perm} is not a permutation of 1..{n}")
        sets = [0]
        for p in perm:
            bit = 1 << (p - 1)
            if not self.addable_mask(sets[-1]) & bit:
                raise ValueError(
                    f"permutation {perm} is not compatible with the order"
                )
            sets.append(sets[-1] | bit)
        return MaximalChain(tuple(sets), perm)


def build_lattice(poset, max_elements=DEFAULT_MAX_ELEMENTS):
    """The down-set lattice of a poset, capped at max_elements."""
    return DownSetLattice(poset, max_elements=max_elements)


def _all_down_sets(poset, masks):
    """True iff every mask is a down-set of the poset, checked player by
    player: each fits the n players, and none holds a player i without the
    strict down-set of i.  That set is read from principal_down_set, not
    from the strict_down_set the doubling build reads."""
    n = poset.n
    if min(masks) < 0 or max(masks) >> n:
        return False
    for i in range(n):
        bit = 1 << i
        s = poset.principal_down_set(i + 1) ^ bit
        if s and any(a & bit and a & s != s for a in masks):
            return False
    return True


def _covering_steps(lat):
    """By element position, the pairs (i - 1, position of a+i) of the players
    i addable to the element a, ascending."""
    idx = lat.index
    steps = []
    for a, out in zip(lat.elements, lat._addable):
        moves = []
        while out:
            low = out & -out
            out ^= low
            moves.append((low.bit_length() - 1, idx[a | low]))
        steps.append(moves)
    return steps


def _split(lat):
    """Every nonempty element a, by position, as (position of a - h, h):
    h is the index of a player of a whose removal leaves an element, that
    is a maximal player of a.  The highest player is tried first, then the
    lowest, then the rest from the top, one index lookup per try, so an
    element of a naturally labelled poset costs one lookup and one of its
    reverse two."""
    get = lat.index.get
    split = []
    for a in lat.elements[1:]:
        h = a.bit_length() - 1
        k = get(a ^ 1 << h)
        if k is None:
            low = a & -a
            rest = a ^ low ^ 1 << h
            h = low.bit_length() - 1
            k = get(a ^ low)
            while k is None:
                h = rest.bit_length() - 1
                rest ^= 1 << h
                k = get(a ^ 1 << h)
        split.append((k, h))
    return split


def _square_corners(lat):
    """Positions (a+i+j, a, a+i, a+j) of the corners of every covering
    square: a in element order, then (i, j) ascending, i < j.  A generator,
    so a predicate reading the squares stops at the first one that decides
    it."""
    idx = lat.index
    for k, (a, out) in enumerate(zip(lat.elements, lat._addable)):
        ups = []
        while out:
            low = out & -out
            out ^= low
            ups.append((a | low, idx[a | low]))
        for x, (ai, wi) in enumerate(ups):
            for aj, wj in ups[x + 1 :]:
                yield idx[ai | aj], k, wi, wj
