"""Geometry of the supermodular cone: extremality, facets, rays, faces.

All computations happen inside the 0-normalized subspace, where the value of
a join-irreducible element equals the value of its unique lower cover.  The
free coordinates are therefore the elements that are neither empty nor
join-irreducible, and their count is the dimension of the cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import qlin
from .errors import LatticeMismatchError, NotSupermodularError, SizeError
from .game import Game, is_supermodular, zero_normalize
from .lattice import addable_pairs
from .marginals import marginal_vector, payoff, tight_family
from .poset import players_from_mask

__all__ = [
    "EqualityPair",
    "FacetTriple",
    "equality_pairs",
    "payoff_equality_system",
    "game_equality_system",
    "is_extreme",
    "is_extreme_via_games",
    "facet_triples",
    "facet_witness",
    "extreme_rays",
    "cone_dimension",
    "core_structure",
    "face_compare",
    "double_description",
    "DEFAULT_MAX_CONE_ELEMENTS",
]

DEFAULT_MAX_CONE_ELEMENTS = 64


@dataclass(frozen=True, order=True)
class EqualityPair:
    """Unordered incomparable pair on which a game happens to be modular.

    a precedes b in the canonical (cardinality, mask) element order.
    """

    a: int
    b: int


@dataclass(frozen=True)
class FacetTriple:
    """A down-set with two addable players; carries one facet inequality."""

    base: int
    i: int
    j: int

    def masks(self):
        bi = 1 << (self.i - 1)
        bj = 1 << (self.j - 1)
        return self.base | bi | bj, self.base, self.base | bi, self.base | bj

    def value(self, game):
        """Slack of the inequality at a game; nonnegative iff satisfied."""
        both, base, wi, wj = self.masks()
        return game.value(both) + game.value(base) - game.value(wi) - game.value(wj)

    def render(self):
        """Human form such as "v(234) + v(2) >= v(23) + v(24)"."""
        both, base, wi, wj = self.masks()

        def term(mask):
            return "v(" + "".join(str(p) for p in players_from_mask(mask)) + ")"

        lhs = [term(both)] + ([term(base)] if base else [])
        rhs = [term(wi), term(wj)]
        return " + ".join(lhs) + " >= " + " + ".join(rhs)


def equality_pairs(v):
    """All incomparable pairs where v is modular, canonically ordered.

    An uncached O(L^2) scan for inspection; the extremality tests use the
    tight covering squares instead.
    """
    els = v.lattice.elements
    val = dict(zip(els, v.values))
    return [
        EqualityPair(a, b)
        for k, a in enumerate(els)
        for b in els[k + 1 :]
        if a & ~b and b & ~a and val[a | b] + val[a & b] == val[a] + val[b]
    ]


def _normalized(v):
    if not is_supermodular(v):
        raise NotSupermodularError("extremality is defined for supermodular games")
    w, _ = zero_normalize(v)
    return w


def payoff_equality_system(v, *, reduced=True):
    """Linear system on per-permutation payoff vectors; returns (rows, ncols).

    Unknowns are laid out permutation-major: column k*n + (i-1) is the
    coordinate of player i under the k-th permutation in chain order.  Rows
    equate coalition totals across permutations sharing a tight element and
    pin the zero-increment coordinates.  The game spans an extreme ray of
    the supermodular cone exactly when the solution space of this system is
    one line.

    With reduced=True the pairwise total equations per element are replaced
    by a chain of differences and the pinned columns are eliminated, which
    leaves the solution dimension unchanged.
    """
    w = _normalized(v)
    lat = w.lattice
    n = lat.poset.n
    chains = lat.maximal_chains()
    margs = [marginal_vector(w, c) for c in chains]
    ncols = n * len(chains)

    by_element = {}
    for k, x in enumerate(margs):
        for ei, a in enumerate(lat.elements):
            if a and w.values[ei] == payoff(x, a):
                by_element.setdefault(ei, []).append(k)
    pinned = set()
    for k, x in enumerate(margs):
        for i, val in enumerate(x):
            if not val:
                pinned.add(k * n + i)

    rows = []

    def total_row(ei, k, l):
        row = [0] * ncols
        for p in players_from_mask(lat.elements[ei]):
            row[k * n + p - 1] += 1
            row[l * n + p - 1] -= 1
        return row

    for ei in sorted(by_element):
        ks = by_element[ei]
        if len(ks) < 2:
            continue
        if reduced:
            pairs = zip(ks, ks[1:])
        else:
            pairs = ((ks[x], ks[y]) for x in range(len(ks)) for y in range(x + 1, len(ks)))
        for k, l in pairs:
            rows.append(total_row(ei, k, l))

    if not reduced:
        for col in sorted(pinned):
            row = [0] * ncols
            row[col] = 1
            rows.append(row)
        return rows, ncols

    keep = [c for c in range(ncols) if c not in pinned]
    compressed = []
    seen = set()
    for row in rows:
        short = tuple(row[c] for c in keep)
        if any(short) and short not in seen:
            seen.add(short)
            compressed.append(list(short))
    return compressed, len(keep)


def is_extreme(v):
    """Extremality of the ray spanned by the 0-normalization of v.

    The zero game (hence any modular game) is non-extreme by convention.
    """
    w = _normalized(v)
    if w.is_zero():
        return False
    rows, ncols = payoff_equality_system(w)
    return ncols - qlin.rank(rows) == 1


def _free_coordinates(lat):
    """Free coordinates of the 0-normalized subspace; returns (coord, d).

    The d free coordinates are the elements that are neither empty nor
    join-irreducible, in element order.  coord maps every element to the
    index of the coordinate holding its value, or None for the elements
    worth 0 (join-irreducible values chain down to their lower covers).
    """
    ji = set(lat.join_irreducibles)
    coord = {0: None}
    d = 0
    for a in lat.elements[1:]:
        if a in ji:
            coord[a] = coord[lat.join_irreducible_predecessor(a)]
        else:
            coord[a] = d
            d += 1
    return coord, d


def _facet_row(triple, coord, d):
    """The inequality of a facet triple over the free coordinates."""
    row = [0] * d
    for mask, sign in zip(triple.masks(), (1, 1, -1, -1)):
        if coord[mask] is not None:
            row[coord[mask]] += sign
    return row


def game_equality_system(v):
    """Facet rows tight at the 0-normalization of v; returns (rows, d).

    The tight covering squares span the modularity constraints of every
    equality pair, since the second difference of a pair is the sum of the
    square slacks in its grid.  A 0-normalized game satisfying all of them
    is a multiple of v exactly when v spans an extreme ray, so the solution
    dimension mirrors payoff_equality_system.
    """
    w = _normalized(v)
    coord, d = _free_coordinates(w.lattice)
    rows = []
    seen = set()
    for t in facet_triples(w.lattice):
        if t.value(w):
            continue
        row = _facet_row(t, coord, d)
        if any(row) and tuple(row) not in seen:
            seen.add(tuple(row))
            rows.append(row)
    return rows, d


def is_extreme_via_games(v):
    """Extremality via the space of games modular on the equality pairs of v."""
    w = _normalized(v)
    if w.is_zero():
        return False
    rows, d = game_equality_system(w)
    return d - qlin.rank(rows) == 1


def facet_triples(lat):
    """The facet-defining triples (base, i, j), canonically ordered."""
    return [FacetTriple(a, i, j) for a, i, j in addable_pairs(lat)]


def facet_witness(lat, triple, eps=Fraction(1)):
    """Game that violates the inequality of the given triple and no other.

    The witness is w = eps * (g - u) with g(A) = |A|^2 and u the indicator
    of the triple's corners signed as in its inequality: +1 at base+i+j and
    at base, -1 at base+i and base+j (the base term is dropped when base is
    empty, since a game vanishes there).  eps is a positive scale.  Works on
    every down-set lattice:

    * every covering square has slack (r+2)^2 + r^2 - 2(r+1)^2 = 2 at g,
      while u has slack 4 (3 for an empty base) on its own triple;
    * any other square shares at most two corners with it (three corners
      fix the rank-2 interval), so u has slack at most 2 there.

    Hence the own slack of w is negative and every other slack is
    eps * (2 - slack of u) >= 0.  Raises ValueError unless eps > 0.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    both, base, wi, wj = triple.masks()
    u = {both: 1, wi: -1, wj: -1}
    if base:
        u[base] = 1
    return Game(lat, [eps * (b.bit_count() ** 2 - u.get(b, 0)) for b in lat.elements])


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _reduce(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g > 1:
        return tuple(x // g for x in vec)
    return tuple(vec)


def double_description(rows, dim):
    """Extreme rays of the pointed cone {z in Q^dim : row . z >= 0}.

    Insertion algorithm over exact integers.  A basis of the ambient space
    acts as the initial lineality: a constraint that meets it pivots one
    basis vector out and turns it into a ray; once orthogonal to the
    remaining lineality, constraints split the rays by sign and adjacent
    plus/minus pairs are combined.  Adjacency is the algebraic test: the
    constraints processed so far that are tight at both rays must have rank
    dim - |lineality| - 2.  Raises ValueError if a lineality direction
    survives every constraint (non-pointed input).
    """
    lin = [[1 if k == t else 0 for k in range(dim)] for t in range(dim)]
    rays = []
    processed = []
    for a in rows:
        sdots = [_dot(a, b) for b in lin]
        pivot = next((t for t, s in enumerate(sdots) if s), None)
        if pivot is not None:
            b0 = lin.pop(pivot)
            s0 = sdots.pop(pivot)
            lin = [
                list(_reduce([s0 * x - sb * y for x, y in zip(b, b0)]))
                for b, sb in zip(lin, sdots)
            ]
            sign = 1 if s0 > 0 else -1
            new_rays = []
            for r in rays:
                t = _dot(a, r)
                new_rays.append(
                    _reduce([abs(s0) * x - sign * t * y for x, y in zip(r, b0)])
                )
            if sign < 0:
                b0 = [-x for x in b0]
            new_rays.append(_reduce(b0))
            rays = new_rays
        else:
            dots = [_dot(a, r) for r in rays]
            plus = [(r, t) for r, t in zip(rays, dots) if t > 0]
            zero = [r for r, t in zip(rays, dots) if t == 0]
            minus = [(r, t) for r, t in zip(rays, dots) if t < 0]
            if minus:
                target = dim - len(lin) - 2

                def tight_mask(r):
                    mask = 0
                    for idx, p in enumerate(processed):
                        if _dot(p, r) == 0:
                            mask |= 1 << idx
                    return mask

                plus_masks = [tight_mask(r) for r, _ in plus]
                minus_masks = [tight_mask(r) for r, _ in minus]
                combos = []
                for (rp, tp), zp in zip(plus, plus_masks):
                    for (rm, tm), zm in zip(minus, minus_masks):
                        common = zp & zm
                        if common.bit_count() < target:
                            continue
                        zrows = [
                            processed[idx]
                            for idx in range(len(processed))
                            if common >> idx & 1
                        ]
                        if qlin.rank(zrows) == target:
                            combos.append(
                                _reduce([tp * xm - tm * xp for xp, xm in zip(rp, rm)])
                            )
                rays = [r for r, _ in plus] + zero + combos
        processed.append(a)
    if lin:
        raise ValueError("the inequality system leaves a lineality space")
    return rays


def extreme_rays(lat, *, max_elements=DEFAULT_MAX_CONE_ELEMENTS, verify=True):
    """Minimal integer generators of the extreme rays of the supermodular
    cone of 0-normalized games, via double description on the facet rows.

    Output is sorted by value tuple.  With verify=True every generator is
    re-checked by both extremality tests before being returned.
    """
    if len(lat.elements) > max_elements:
        raise SizeError(
            f"ray enumeration capped at {max_elements} lattice elements;"
            " pass max_elements to raise the cap"
        )
    coord, d = _free_coordinates(lat)
    if d == 0:
        return []
    rows = [_facet_row(t, coord, d) for t in facet_triples(lat)]
    games = []
    for z in double_description(rows, d):
        vals = _reduce([0 if coord[a] is None else z[coord[a]] for a in lat.elements])
        games.append(Game(lat, vals))
    games.sort(key=lambda gm: gm.values)
    if verify:
        for gm in games:
            if not (is_extreme(gm) and is_extreme_via_games(gm)):
                raise RuntimeError("an enumerated generator failed the extremality cross-check")
    return games


def cone_dimension(lat, *, max_elements=DEFAULT_MAX_CONE_ELEMENTS):
    """Dimension of the cone of 0-normalized supermodular games.

    Computed as the rank of the enumerated generators and checked against
    the count of free coordinates.
    """
    rays = extreme_rays(lat, max_elements=max_elements)
    dim = qlin.rank([list(g.values) for g in rays]) if rays else 0
    expected = len(lat.elements) - 1 - lat.poset.n
    if dim != expected:
        raise RuntimeError(
            f"ray span has rank {dim}, expected {expected} free coordinates"
        )
    return dim


def core_structure(v):
    """TightFamily of a supermodular game."""
    if not is_supermodular(v):
        raise NotSupermodularError("core structure needs a supermodular game")
    return tight_family(v)


def face_compare(v, w):
    """Relative position of the cone faces whose relative interiors hold v and w.

    Returns "equal", "below" (the face of v is strictly contained in the
    face of w), "above", or "incomparable".  For a cone {x : r_k . x >= 0}
    the smallest face holding v is {x : r_k . x = 0 for every k tight at v},
    so face(v) is contained in face(w) exactly when every inequality tight
    at w is tight at v.  The facet triples (covering squares) describe the
    supermodular cone, so comparing their tight sets decides the order in
    O(L*n^2), without walking maximal chains.
    """
    if v.lattice is not w.lattice and v.lattice != w.lattice:
        raise LatticeMismatchError("games are bound to different lattices")
    for g in (v, w):
        if not is_supermodular(g):
            raise NotSupermodularError("core structure needs a supermodular game")
    triples = facet_triples(v.lattice)
    tv = {t for t in triples if not t.value(v)}
    tw = {t for t in triples if not t.value(w)}
    if tv == tw:
        return "equal"
    if tw <= tv:
        return "below"
    if tv <= tw:
        return "above"
    return "incomparable"
