"""Geometry of the supermodular cone: extremality, facets, rays, faces.

All computations happen inside the 0-normalized subspace, where the value of
a join-irreducible element equals the value of its unique lower cover.  The
free coordinates are therefore the elements that are neither empty nor
join-irreducible, and their count is the dimension of the cone.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, itemgetter
from typing import NamedTuple

from . import qlin
from .errors import CrossCheckError, NotSupermodularError, SizeError
from .game import Game, _scaled_values, _square_slacks
from .lattice import DEFAULT_MAX_CHAINS, _covering_steps, _square_corners
from .marginals import _split_plan, _tight, _vertex_walk
from .poset import _automorphisms, format_coalition

__all__ = [
    "FacetTriple",
    "is_extreme",
    "facet_triples",
    "facet_witness",
    "extreme_rays",
    "cone_dimension",
    "face_compare",
    "double_description",
]

DEFAULT_MAX_CONE_ELEMENTS = 64
DEFAULT_MAX_DD_RAYS = 2000


class FacetTriple(NamedTuple):
    """A down-set with two addable players; carries one facet inequality.

    Like MaximalChain it is a NamedTuple, so it unpacks, orders and
    compares as the tuple (base, i, j)."""

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
        """Human form such as "v(234) + v(2) >= v(23) + v(24)"; coalitions
        are written by format_coalition, so "v({1,10,11})" past 9 players."""
        both, base, wi, wj = self.masks()
        terms = [f"v({format_coalition(a)})" for a in (both, base, wi, wj)]
        lhs = terms[:2] if base else terms[:1]
        return " + ".join(lhs) + " >= " + " + ".join(terms[2:])


class _Plan:
    """The lattice-only work of both extremality criteria, built once for
    every game checked on one lattice; nothing is kept on the lattice.  For
    _payoff_rows: the lattice's _covering_steps and _split_plan (which
    extreme_rays also reads to map its automorphisms), and the positions
    of each principal down-set and of that set less its top player.  For
    _game_rows: the corners, rows, dimension and coordinates of
    _facet_rows."""

    def __init__(self, lat):
        self.lat = lat
        self.steps = _covering_steps(lat)
        self.split = _split_plan(self.steps)
        down = [lat.poset.principal_down_set(i + 1) for i in range(lat.poset.n)]
        self.down = [(lat.index[d], lat.index[d ^ 1 << i]) for i, d in enumerate(down)]
        self.corners, self.rows, self.d, self.coord = _facet_rows(lat)


def _payoff_rows(plan, val, max_chains=DEFAULT_MAX_CHAINS):
    """Linear system on per-vertex payoff vectors of a supermodular game v,
    given by its integer values val by element position; returns (rows,
    ncols) with each row a signed (plus, minus) pair for qlin.rank.

    The paper's system gives every maximal chain a block of unknowns, one
    per player.  Chains with the same marginal vector have the same tight
    elements and zero coordinates, and the rows at their own down-sets,
    whose indicator vectors span Q^n, force their blocks equal; so one
    block per distinct marginal vector (core vertex, in core_vertices
    order) leaves ncols - rank unchanged, and no chain is built.  A block
    holds the vertex's coordinates less those pinned to zero because the
    0-normalization of v adds nothing there; ncols counts them all.  For
    every element a row equates its coalition total along each pair of
    consecutive vertices where it is tight.  The game spans an extreme ray
    of the supermodular cone exactly when the solution space of this system
    is one line.  max_chains caps the vertex walk (marginals._vertex_walk).
    Column k*n + i stands for player i+1 under vertex k, so a row is +1
    on the element's unpinned members under one vertex and -1 under the
    next, and the distinct nonzero pairs are the rows, in first-seen order.

    No 0-normalized game is built: the modular part of v, worth
    m_i = v(down(i)) - v(down(i) - i) on player i, moves every vertex by
    the same vector m, which keeps the tight elements and the vertex
    order, so the pinned coordinates are those where a vertex of v
    equals m.
    """
    lat = plan.lat
    n = lat.poset.n
    shift = [val[d] - val[below] for d, below in plan.down]
    verts = sorted(_vertex_walk(lat, plan.steps, val, max_chains))
    els = lat.elements
    last = [None] * len(els)  # last[p]: element p's mask at the last vertex tight there
    rows = {}
    ncols = 0
    for k, (x, tight) in enumerate(zip(verts, _tight(lat, plan.split, val, verts))):
        free = 0
        for i in range(n):
            if x[i] != shift[i]:
                free |= 1 << i
        ncols += free.bit_count()
        free <<= k * n
        for p in tight:
            m = els[p] << k * n & free
            prev = last[p]
            if prev is not None and (prev or m):
                rows[prev, m] = None
            last[p] = m
    return list(rows), ncols


def _payoff_extreme(plan, val, max_chains=DEFAULT_MAX_CHAINS):
    """The payoff criterion of is_extreme on integer values val by position.

    The system has rank at most ncols - 1, which qlin.rank is given to
    certify: the vertices of v less the modular shift m solve it (each row
    equates two coalition totals that both equal v(a) - m(a)), and they
    are nonzero on every column, since a column is pinned exactly where a
    vertex equals m.  A game without columns is modular, and not extreme.
    """
    rows, ncols = _payoff_rows(plan, val, max_chains)
    return ncols > 0 and ncols - qlin.rank(rows, at_most=ncols - 1) == 1


def is_extreme(v, max_chains=DEFAULT_MAX_CHAINS):
    """Extremality of the ray spanned by the 0-normalization of v, by both
    criteria on one _Plan; CrossCheckError if they disagree.

    The games criterion runs first: its slack pass refuses a game that is
    not supermodular.  A modular game is not extreme.  max_chains caps the
    partial marginal vectors one rank of the vertex walk holds; SizeError
    past it.
    """
    plan = _Plan(v.lattice)
    val = _scaled_values(v)[0]
    extreme = _games_extreme(plan, val)
    if _payoff_extreme(plan, val, max_chains) != extreme:
        raise CrossCheckError("extremality criteria disagree; please report this")
    return extreme


def _facet_rows(lat):
    """The corners and the inequality over the free coordinates of every
    covering square, in facet_triples order; returns (corners, rows, d,
    coord) with the corners of _square_corners.

    The d free coordinates are the elements that are neither empty nor
    join-irreducible, in element order.  coord holds, at every element
    position, the index of the coordinate holding the element's value, or
    None for the elements worth 0 (join-irreducible values chain down to
    their lower covers).  A row is a signed (plus, minus) pair of
    coordinate bitmasks, as qlin.rank reads them: base+i+j has its own
    coordinate, and a side base+i its own or, when join-irreducible,
    base's, where base's +1 cancels one such side and two leave -1.
    """
    ji = set(lat.join_irreducibles)
    pos = lat.index
    coord = [None]
    d = 0
    for a in lat.elements[1:]:
        if a in ji:
            coord.append(coord[pos[lat.join_irreducible_predecessor(a)]])
        else:
            coord.append(d)
            d += 1
    bit = [0 if c is None else 1 << c for c in coord]
    corners = tuple(_square_corners(lat))
    rows = []
    for both, base, wi, wj in corners:
        plus = bit[both] | bit[base]
        sides = bit[wi] | bit[wj]
        rows.append((plus & ~sides, sides & ~plus | bit[wi] & bit[wj]))
    return corners, rows, d, coord


def _game_rows(plan, val):
    """The _facet_rows rows whose square has zero slack at a supermodular
    game v, given by its integer values val by element position, repeated
    ones left for qlin.rank to drop; the same slack pass refuses a game
    that is not supermodular.

    The tight covering squares span the modularity constraints of every
    pair of elements where v is modular, since the second difference of a
    pair is the sum of the square slacks in its grid.  A modular shift
    changes no slack, and a 0-normalized game satisfying all of them is a
    multiple of the 0-normalization of v exactly when v spans an extreme
    ray, so the solution dimension mirrors _payoff_rows.
    """
    slacks = list(_square_slacks(val, plan.corners))
    if min(slacks, default=0) < 0:
        raise NotSupermodularError("extremality is defined for supermodular games")
    return [row for row, s in zip(plan.rows, slacks) if not s]


def _games_extreme(plan, val):
    """The games criterion of is_extreme on the integer values val of v by
    element position: v spans an extreme ray exactly when the 0-normalized
    games modular on its tight covering squares (the rows of _game_rows)
    form a line.

    A game with every square tight is modular, and not extreme.  Otherwise
    the tight rows have rank at most d - 1, which qlin.rank is given to
    certify: the 0-normalization of v satisfies them and is nonzero, since
    some square is slack at it.
    """
    rows = _game_rows(plan, val)
    return len(rows) < len(plan.rows) and plan.d - qlin.rank(rows, at_most=plan.d - 1) == 1


def facet_triples(lat):
    """The facet-defining triples (base, i, j), one per covering square, in
    _square_corners order."""
    el = lat.elements
    return [
        FacetTriple(el[a], (el[wi] ^ el[a]).bit_length(), (el[wj] ^ el[a]).bit_length())
        for _, a, wi, wj in _square_corners(lat)
    ]


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
    eps * (2 - slack of u) >= 0.  Raises ValueError unless eps > 0 and the
    triple is a covering square of lat: base, base+i and base+j are
    elements, and i and j are distinct players outside base.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    both, base, wi, wj = triple.masks()
    if base in (wi, wj) or wi == wj or not {base, wi, wj} <= lat.index.keys():
        raise ValueError(f"{triple} is not a covering square of the lattice")
    u = {both: 1, wi: -1, wj: -1}
    if base:
        u[base] = 1
    return Game(lat, [eps * (g - u.get(b, 0)) for b, g in zip(lat.elements, _squares(lat))])


def _squares(lat):
    """Values of g(A) = |A|^2, which has slack 2 on every covering square."""
    return [a.bit_count() ** 2 for a in lat.elements]


def _products(row, vecs):
    """Values of a sparse row at each dense vector of vecs, as a list.

    The row's columns are grouped by coefficient, and each group is read
    from every vector by one itemgetter, so the per-entry work runs in C.
    A one-column getter returns the bare entry, not a 1-tuple, so only
    groups of two or more are summed."""
    groups = {}
    for j, x in row.items():
        groups.setdefault(x, []).append(j)
    total = None
    for x, cols in groups.items():
        get = itemgetter(*cols)
        part = map(get, vecs) if len(cols) == 1 else map(sum, map(get, vecs))
        if x != 1:
            part = map(x.__mul__, part)
        total = list(part) if total is None else list(map(add, total, part))
    return [0] * len(vecs) if total is None else total


def _reduce(vec):
    g = gcd(*vec)
    if g > 1:
        return tuple(x // g for x in vec)
    return tuple(vec)


def double_description(rows, dim, max_rays=DEFAULT_MAX_DD_RAYS):
    """Extreme rays of the pointed cone {z in Q^dim : row . z >= 0}.

    Each row is a {coordinate: int} map of its nonzero entries, as
    extreme_rays expands the _facet_rows pairs; rays are dense integer
    tuples (none if dim is 0).
    SizeError once more than max_rays intermediate rays are held after a
    row is inserted.

    Insertion algorithm over exact integers.  A basis of the ambient space
    acts as the initial lineality: a constraint that meets it pivots one
    basis vector out, oriented once so the constraint is positive on it,
    and turns it into a ray; once orthogonal to the remaining lineality,
    constraints split the rays by sign and adjacent plus/minus pairs are
    combined.  Raises ValueError if a lineality direction survives every
    constraint (non-pointed input).

    A row's values at all lineality vectors, and at all rays, are gathered
    in one _products call each, one itemgetter per coefficient of the row.
    The pivot step leaves alone every lineality vector and ray the row is
    zero on: each stored vector has gcd 1 and the pivot's value s0 is
    positive after the orientation, so its update _reduce(s0 * b) is b.

    Adjacency is combinatorial (Fukuda and Prodon, 1996).  Each ray carries
    a bitmask of the rows inserted so far that are tight at it, one bit per
    row: a pivot row is tight at every existing ray, which is moved into
    its hyperplane, and the ray it frees from the lineality is tight at
    every earlier row; any other row is tight at its zero rays and at the
    rays it creates.  The current rays are the extreme rays of the cone cut
    out so far, so a plus ray and a minus ray are adjacent, and their
    combination is extreme, exactly when no third ray is tight on every row
    tight at both: the smallest face holding the two then holds no other
    ray.  That face has dimension two over the lineality, so the rows
    tight at both have rank dim - len(lin) - 2; a pair sharing fewer
    tight rows is skipped before the scan of the masks.
    """
    lin = [[1 if k == t else 0 for k in range(dim)] for t in range(dim)]
    rays = []
    masks = []  # masks[k]: the inserted rows tight at rays[k]
    for idx, a in enumerate(rows):
        bit = 1 << idx
        sdots = _products(a, lin)
        pivot = next((t for t, s in enumerate(sdots) if s), None)
        dots = _products(a, rays)
        if pivot is not None:
            b0 = lin.pop(pivot)
            s0 = sdots.pop(pivot)
            if s0 < 0:
                b0, s0 = tuple(-x for x in b0), -s0
            lin = [
                _reduce([s0 * x - sb * y for x, y in zip(b, b0)]) if sb else b
                for b, sb in zip(lin, sdots)
            ]
            rays = [
                _reduce([s0 * x - t * y for x, y in zip(r, b0)]) if t else r
                for r, t in zip(rays, dots)
            ]
            rays.append(tuple(b0))
            masks = [z | bit for z in masks] + [bit - 1]
        else:
            masks = [z | bit if t == 0 else z for z, t in zip(masks, dots)]
            plus = [k for k, t in enumerate(dots) if t > 0]
            zero = [k for k, t in enumerate(dots) if t == 0]
            minus = [k for k, t in enumerate(dots) if t < 0]
            if minus:
                combos = []
                combo_masks = []
                need = dim - len(lin) - 2
                for p in plus:
                    rp, tp, zp = rays[p], dots[p], masks[p]
                    for m in minus:
                        common = zp & masks[m]
                        if common.bit_count() < need or any(
                            z & common == common
                            for k, z in enumerate(masks)
                            if k != p and k != m
                        ):
                            continue
                        tm = dots[m]
                        combos.append(
                            _reduce([tp * xm - tm * xp for xp, xm in zip(rp, rays[m])])
                        )
                        combo_masks.append(common | bit)
                keep = plus + zero
                rays = [rays[k] for k in keep] + combos
                masks = [masks[k] for k in keep] + combo_masks
        if len(rays) > max_rays:
            raise SizeError(
                f"double description holds {len(rays)} intermediate rays after row"
                f" {idx + 1} of {len(rows)}, over the cap of {max_rays}; raise it with"
                " --max-dd-rays or max_rays"
            )
    if lin:
        raise ValueError("the inequality system leaves a lineality space")
    return rays


def extreme_rays(lat, *, max_elements=DEFAULT_MAX_CONE_ELEMENTS, max_rays=DEFAULT_MAX_DD_RAYS):
    """Minimal integer generators of the extreme rays of the supermodular
    cone of 0-normalized games, via double description on the facet rows;
    max_rays caps its intermediate rays.

    Output is sorted by value tuple, and every generator is certified
    before any game is built, once per orbit of the poset's automorphisms.
    An automorphism of the poset permutes the down-sets, keeping unions,
    intersections and principal down-sets, so it maps the cone, its
    0-normalized subspace and its minimal integer generators onto
    themselves.  The first generator of each orbit in sorted order is
    re-checked by both extremality tests from its own integer values (one
    _Plan serves them and double description: its square slacks, marginal
    vectors and tight sets are recomputed, and nothing is read from the
    masks of double description); every image of it under an automorphism
    must be one of the generators, and is thereby certified.  A set that
    is not closed under the automorphisms, such as one missing a member of
    an orbit, raises CrossCheckError.
    """
    if len(lat.elements) > max_elements:
        raise SizeError(
            f"ray enumeration capped at {max_elements} lattice elements, the lattice"
            f" has {len(lat.elements)}; raise it with --max-cone or max_elements"
        )
    plan = _Plan(lat)
    # the elements worth 0 read the 0 appended after the d coordinates; a
    # ray needs a free coordinate, so there are then at least three
    # elements, and every getter below returns a tuple, not the bare value
    # of a one-index itemgetter
    read = itemgetter(*(plan.d if c is None else c for c in plan.coord))
    vals = sorted(
        read(z + (0,))
        for z in double_description([qlin._signed(*row) for row in plan.rows], plan.d, max_rays)
    )
    # each automorphism as a getter of the image of every element: the
    # image of a down-set is the set of its players' images, built along
    # the split plan as the image of the lower cover plus the moved player;
    # a cone without rays, such as a chain's, searches for none
    maps = []
    for perm in _automorphisms(lat.poset) if vals else ():
        image = [0]
        for k, i in plan.split:
            image.append(image[k] | 1 << perm[i] - 1)
        maps.append(itemgetter(*map(lat.index.__getitem__, image)))
    enumerated = set(vals)
    certified = set()
    for val in vals:
        if val in certified:
            continue
        if not (_games_extreme(plan, val) and _payoff_extreme(plan, val)):
            raise CrossCheckError(
                "an enumerated generator failed the extremality cross-check"
            )
        for m in maps:
            image = m(val)
            if image not in enumerated:
                raise CrossCheckError(
                    "the enumerated generators are not closed under the poset's automorphisms"
                )
            certified.add(image)
    return [Game._from_ints(lat, val) for val in vals]


def cone_dimension(lat):
    """Dimension of the cone of 0-normalized supermodular games.

    The cone lies in the 0-normalized subspace, whose dimension d is the
    count of free coordinates, and fills it: the 0-normalization of
    g(A) = |A|^2 is strictly inside every facet, since g has slack 2 on
    every covering square and a modular shift leaves the slacks unchanged.
    That certificate is rechecked on g itself in O(L*n^2); CrossCheckError
    if it fails.  The free coordinates are the L - 1 nonempty elements less
    the n join-irreducibles, which the lattice build checks it has found.
    """
    if not all(s > 0 for s in _square_slacks(_squares(lat), _square_corners(lat))):
        raise CrossCheckError("a covering square is not slack at |A|^2")
    return len(lat.elements) - 1 - lat.poset.n


def face_compare(v, w):
    """Relative position of the cone faces whose relative interiors hold v and w.

    Returns "equal", "below" (the face of v is strictly contained in the
    face of w), "above", or "incomparable".  For a cone {x : r_k . x >= 0}
    the smallest face holding v is {x : r_k . x = 0 for every k tight at v},
    so face(v) is contained in face(w) exactly when every inequality tight
    at w is tight at v.  The facet triples (covering squares) describe the
    supermodular cone, so comparing their tight sets decides the order in
    O(L*n^2), without walking maximal chains.  One slack list per game
    gives both its supermodularity check and its tight squares.
    """
    v._same_lattice(w)
    corners = tuple(_square_corners(v.lattice))
    slacks = [list(_square_slacks(_scaled_values(g)[0], corners)) for g in (v, w)]
    if any(s < 0 for sl in slacks for s in sl):
        raise NotSupermodularError("face comparison needs supermodular games")
    tv, tw = ({k for k, s in enumerate(sl) if not s} for sl in slacks)
    if tv == tw:
        return "equal"
    if tw <= tv:
        return "below"
    if tv <= tw:
        return "above"
    return "incomparable"
