"""Finite posets on players 1..n and their down-sets.

Players are numbered 1..n externally.  A coalition is an int bitmask in
which bit k-1 stands for player k; the empty coalition is 0.  This 1-based
player / 0-based bit convention is fixed here and relied on everywhere else.
"""

from __future__ import annotations

from .errors import CycleError

__all__ = [
    "Poset",
    "poset_from_covers",
    "poset_from_dict",
    "poset_to_dict",
    "mask_from_players",
    "players_from_mask",
]


def mask_from_players(players, n):
    """Coalition mask for an iterable of players, each in 1..n."""
    mask = 0
    for p in players:
        if not 1 <= p <= n:
            raise IndexError(f"player {p} out of range 1..{n}")
        mask |= 1 << (p - 1)
    return mask


def players_from_mask(mask):
    """Sorted list of the players in a coalition mask; ValueError if negative."""
    if mask < 0:
        raise ValueError(f"coalition mask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def format_perm(perm):
    """Compact text of a player sequence: digits run together when every
    player is below 10, comma-separated otherwise."""
    if all(p <= 9 for p in perm):
        return "".join(str(p) for p in perm)
    return ",".join(str(p) for p in perm)


def format_coalition(mask):
    """Compact text of a coalition: its players as in format_perm, in braces
    unless every player is below 10; {} for the empty coalition."""
    players = players_from_mask(mask)
    text = format_perm(players)
    return text if players and players[-1] <= 9 else "{" + text + "}"


class Poset:
    """Partial order on {1..n}, stored as the full reflexive closure.

    The internal table keeps, for every player, the bitmask of everything
    below it, so order queries are O(1).  Instances are immutable and can be
    shared freely between threads.  Construct through poset_from_covers.
    """

    __slots__ = ("n", "_down")

    def __init__(self, n, down):
        self.n = n
        self._down = tuple(down)

    def _check_player(self, i):
        if not 1 <= i <= self.n:
            raise IndexError(f"player {i} out of range 1..{self.n}")

    def _check_mask(self, mask):
        if not 0 <= mask < (1 << self.n):
            raise ValueError(f"coalition mask {mask} does not fit {self.n} players")

    def leq(self, i, j):
        """True iff player i lies below (or equals) player j."""
        self._check_player(i)
        self._check_player(j)
        return bool(self._down[j - 1] >> (i - 1) & 1)

    def comparable(self, i, j):
        return self.leq(i, j) or self.leq(j, i)

    def principal_down_set(self, i):
        """Mask of everything below player i, player i included."""
        self._check_player(i)
        return self._down[i - 1]

    def strict_down_set(self, i):
        """Mask of everything strictly below player i."""
        self._check_player(i)
        return self._down[i - 1] & ~(1 << (i - 1))

    def is_down_set(self, mask):
        """True iff the coalition is closed downward under the order."""
        self._check_mask(mask)
        m = mask
        while m:
            b = m & -m
            if self._down[b.bit_length() - 1] & ~mask:
                return False
            m ^= b
        return True

    def covers(self):
        """Cover pairs (i, j), i immediately below j: the transitive reduction.

        The covers of j are the players strictly below j that lie strictly
        below no other player strictly below j."""
        out = []
        for j in range(self.n):
            strict = self._down[j] & ~(1 << j)
            shadowed = 0
            for i in players_from_mask(strict):
                shadowed |= self._down[i - 1] & ~(1 << (i - 1))
            out += [(i, j + 1) for i in players_from_mask(strict & ~shadowed)]
        out.sort()
        return out

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.n == other.n and self._down == other._down

    def __hash__(self):
        return hash((self.n, self._down))

    def __repr__(self):
        return f"Poset(n={self.n}, covers={self.covers()!r})"


def _automorphisms(poset):
    """Every permutation of the players that keeps the order both ways, in
    lexicographic order (the identity first), as tuples whose entry i-1 is
    the image of player i.

    Backtracking assigns players 1..n in turn.  A candidate image must have
    a principal down-set of the same size and must keep the order, both
    ways, against every player already assigned; so a chain, whose
    down-sets all differ in size, costs only the identity.  One loop over
    an explicit stack of candidate images, so no call nests per player.
    """
    n = poset.n
    down = poset._down
    size = [d.bit_count() for d in down]
    out = []
    perm = []  # perm[k]: the 0-based image of the 0-based player k
    stack = []  # (k, c): image c for player k, to be tried; the lowest on top
    while True:
        k = len(perm)
        if k == n:
            out.append(tuple(c + 1 for c in perm))
        else:
            for c in reversed(range(n)):
                if size[c] == size[k] and c not in perm and all(
                    down[k] >> j & 1 == down[c] >> q & 1 and down[j] >> k & 1 == down[q] >> c & 1
                    for j, q in enumerate(perm)
                ):
                    stack.append((k, c))
        if not stack:
            return out
        k, c = stack.pop()
        del perm[k:]
        perm.append(c)


def poset_from_covers(n, covers):
    """Poset from cover pairs (i, j) read as "i below j".

    Closes the order in one Warshall pass, which skips each player with
    nothing below it, then rejects any antisymmetry violation with
    CycleError, reading only the pairs the closure relates.  Out-of-range
    players raise IndexError.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    down = [1 << k for k in range(n)]
    for i, j in covers:
        for p in (i, j):
            if not isinstance(p, int) or isinstance(p, bool) or not 1 <= p <= n:
                raise IndexError(f"player {p} out of range 1..{n}")
        if i == j:
            raise CycleError(f"cover ({i}, {j}) relates a player to itself")
        down[j - 1] |= 1 << (i - 1)
    for k in range(n):
        if down[k] != 1 << k:
            for j in range(n):
                if down[j] >> k & 1:
                    down[j] |= down[k]
    for j in range(n):
        # i runs over the offsets from j of the higher-numbered players below j + 1
        for i in players_from_mask(down[j] >> j + 1):
            if down[j + i] >> j & 1:
                raise CycleError(f"players {j + i + 1} and {j + 1} lie below each other")
    return Poset(n, down)


def poset_from_dict(data):
    """Poset from the file form {"n": int, "covers": [[i, j], ...]}."""
    if not isinstance(data, dict):
        raise ValueError(f"poset data must be a JSON object, got {data!r}")
    if "n" not in data:
        raise ValueError('poset data needs an "n" entry')
    covers = data.get("covers", [])
    if not isinstance(covers, (list, tuple)) or not all(
        isinstance(c, (list, tuple)) and len(c) == 2 for c in covers
    ):
        raise ValueError(f'"covers" must be a list of [i, j] pairs, got {covers!r}')
    return poset_from_covers(data["n"], [tuple(c) for c in covers])


def poset_to_dict(p):
    """File form of a poset; covers are the transitive reduction."""
    return {"n": p.n, "covers": [list(c) for c in p.covers()]}
