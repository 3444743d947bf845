"""Shared fixtures and independent oracles for the test suite.

The oracles recompute expected values by a different route than the library
(subset scans, brute-force permutation filtering, active-set vertex solving)
so the tests do not simply mirror the implementation.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm

import pytest

import supermod as sm
from supermod import cone, qlin
from supermod.cone import _dot, _reduce

# The six minimal integer generators of the supermodular cone on the
# 4-player hierarchy lattice (players 2 and 3 below player 1, player 4
# isolated), keyed by player tuples.  Index 0 is the generator whose
# marginals and tight sets are pinned down in detail by the unit tests.
HIER4_GENERATORS = (
    {(2, 4): 1, (2, 3, 4): 1, (1, 2, 3, 4): 1},
    {(3, 4): 1, (2, 3, 4): 1, (1, 2, 3, 4): 1},
    {(2, 3): 1, (1, 2, 3): 1, (2, 3, 4): 1, (1, 2, 3, 4): 1},
    {(2, 3, 4): 1, (1, 2, 3, 4): 1},
    {(2, 3): 1, (2, 4): 1, (3, 4): 1, (1, 2, 3): 1, (2, 3, 4): 2, (1, 2, 3, 4): 2},
    {(1, 2, 3, 4): 1},
)


def game_from_table(lat, table):
    n = lat.poset.n
    return sm.Game.from_values(
        lat, {sm.mask_from_players(k, n): Fraction(v) for k, v in table.items()}
    )


def brute_downsets(p):
    """All down-sets found by scanning every subset, in (size, mask) order."""
    out = [s for s in range(1 << p.n) if p.is_down_set(s)]
    out.sort(key=lambda m: (bin(m).count("1"), m))
    return out


def brute_linear_extensions(p):
    """Order-preserving player sequences, filtered out of all n! of them."""
    exts = []
    for perm in permutations(range(1, p.n + 1)):
        pos = {player: k for k, player in enumerate(perm)}
        if all(
            pos[i] <= pos[j]
            for i in range(1, p.n + 1)
            for j in range(1, p.n + 1)
            if p.leq(i, j)
        ):
            exts.append(perm)
    return sorted(exts)


def oracle_supermodular(v):
    """All-pairs supermodularity scan written directly on set algebra."""
    val = dict(zip(v.lattice.elements, v.values))
    for a in val:
        for b in val:
            if val[a | b] + val[a & b] < val[a] + val[b]:
                return False
    return True


def oracle_modular(v):
    """All-pairs modularity scan: equality on every pair of elements."""
    val = dict(zip(v.lattice.elements, v.values))
    return all(val[a | b] + val[a & b] == val[a] + val[b] for a in val for b in val)


def oracle_monotone(v):
    """All-pairs monotonicity scan over every comparable pair a <= b."""
    val = dict(zip(v.lattice.elements, v.values))
    return all(val[a] <= val[b] for a in val for b in val if not a & ~b)


def oracle_incomparable_pairs(lat):
    """Unordered incomparable pairs (a, b), a before b in element order."""
    els = lat.elements
    return [
        (a, b)
        for k, a in enumerate(els)
        for b in els[k + 1 :]
        if a & ~b and b & ~a
    ]


def oracle_mobius(lat):
    """Moebius values of every ordered pair, keyed (x, y), by the defining
    recursion: mu(x, x) = 1 and mu(x, y) = -(sum of mu(x, z) over
    x <= z < y), 0 when x is not below y.  Element order extends inclusion,
    so every mu(x, z) is known before mu(x, y)."""
    els = lat.elements
    mu = {}
    for x in els:
        for y in els:
            if x & ~y:
                mu[x, y] = 0
            elif x == y:
                mu[x, y] = 1
            else:
                mu[x, y] = -sum(
                    mu[x, z] for z in els if z != y and not (x & ~z or z & ~y)
                )
    return mu


def oracle_mobius_transform(v, mu=None):
    """vhat(b) = sum of mu(c, b) v(c) over every pair, mu by recursion."""
    lat = v.lattice
    mu = oracle_mobius(lat) if mu is None else mu
    return sm.Game(
        lat,
        [
            sum((mu[c, b] * x for c, x in zip(lat.elements, v.values)), Fraction(0))
            for b in lat.elements
        ],
    )


def oracle_mobius_inverse(vhat):
    """v(b) = sum of vhat(c) over every element c below b, by a scan over
    all pairs of elements."""
    lat = vhat.lattice
    return sm.Game(
        lat,
        [
            sum((x for c, x in zip(lat.elements, vhat.values) if not c & ~b), Fraction(0))
            for b in lat.elements
        ],
    )


def oracle_modular_part(v):
    """The modular part of the 0-normalization as a unanimity combination:
    at every element b, the sum of v(a) - v(a less its top player) over the
    join-irreducible elements a below b."""
    lat = v.lattice
    coeff = {
        a: v.value(a) - v.value(lat.join_irreducible_predecessor(a))
        for a in lat.join_irreducibles
    }
    return sm.Game(
        lat,
        [
            sum((c for a, c in coeff.items() if not a & ~b), Fraction(0))
            for b in lat.elements
        ],
    )


def oracle_payoff_system(v):
    """The unreduced payoff system of a supermodular game; returns
    (rows, ncols).

    Column k*n + (i-1) is player i under the k-th maximal chain.  For every
    element, each pair of chains whose marginal vectors (of the
    0-normalized game) are tight there gets a row equating the coalition
    totals; then every zero marginal coordinate gets a row pinning it.
    """
    w, _ = sm.zero_normalize(v)
    lat = w.lattice
    n = lat.poset.n
    margs = [sm.marginal_vector(w, c) for c in lat.maximal_chains()]
    ncols = n * len(margs)
    rows = []
    for a in lat.elements[1:]:
        ks = [k for k, x in enumerate(margs) if sm.payoff(x, a) == w.value(a)]
        for k, l in combinations(ks, 2):
            row = [0] * ncols
            for p in sm.players_from_mask(a):
                row[k * n + p - 1] += 1
                row[l * n + p - 1] -= 1
            rows.append(row)
    for k, x in enumerate(margs):
        for i, val in enumerate(x):
            if not val:
                rows.append([1 if col == k * n + i else 0 for col in range(ncols)])
    return rows, ncols


def oracle_tight_family(v):
    """Tight elements and zero-increment players along every maximal chain,
    keyed by permutation, from the Fraction marginal vectors and their
    coalition totals; returns (tight, zeros)."""
    tight = {}
    zeros = {}
    for c in v.lattice.maximal_chains():
        x = sm.marginal_vector(v, c)
        tight[c.perm] = frozenset(
            a for a in v.lattice.elements if v.value(a) == sm.payoff(x, a)
        )
        zeros[c.perm] = frozenset(i + 1 for i, val in enumerate(x) if not val)
    return tight, zeros


def _int_rows(rows):
    """Integer copies of the rows, each scaled by its denominator lcm."""
    out = []
    for row in rows:
        den = 1
        for x in row:
            if isinstance(x, Fraction):
                den = lcm(den, x.denominator)
        if den == 1:
            out.append([int(x) for x in row])
        else:
            out.append([int(x * den) for x in row])
    return out


def _echelon(m):
    """In-place fraction-free (Bareiss) row echelon form of a dense integer
    matrix; returns the pivot columns."""
    if not m:
        return []
    nrows = len(m)
    ncols = len(m[0])
    piv_cols = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        pivot = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nrows):
            row_i = m[i]
            f = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = (pivot * row_i[j] - f * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return piv_cols


def oracle_rank(rows):
    """Rank over the rationals by dense Bareiss elimination of the
    integer-scaled rows."""
    m = [row for row in _int_rows(rows) if any(row)]
    return len(_echelon(m))


def nullspace(rows, cols=None):
    """Canonical integer basis of the right nullspace.

    One basis vector per free column, in column order, each normalized via
    normalize_ray.  cols is required when rows is empty.
    """
    rows = [row for row in rows]
    if cols is None:
        if not rows:
            raise ValueError("cols is required for an empty matrix")
        cols = len(rows[0])
    if cols == 0:
        return []
    m = _int_rows(rows)
    m = [row for row in m if any(row)]
    piv = _echelon(m)
    pivset = set(piv)
    basis = []
    for f in (c for c in range(cols) if c not in pivset):
        x = [Fraction(0)] * cols
        x[f] = Fraction(1)
        for r in reversed(range(len(piv))):
            c = piv[r]
            s = sum(m[r][j] * x[j] for j in range(c + 1, cols) if x[j])
            x[c] = Fraction(-s, m[r][c])
        basis.append(normalize_ray(x))
    return basis


def solve_unique(rows, rhs):
    """The unique rational solution of rows * x = rhs, or None.

    None covers both an inconsistent system and one with a free variable;
    callers that must tell the two apart should inspect ranks directly.
    """
    rows = [list(row) for row in rows]
    if not rows:
        return None
    cols = len(rows[0])
    aug = _int_rows([row + [b] for row, b in zip(rows, rhs)])
    piv = _echelon(aug)
    if cols in piv:
        return None  # pivot in the rhs column: inconsistent
    if len(piv) < cols:
        return None
    x = [Fraction(0)] * cols
    for r in reversed(range(cols)):
        c = piv[r]
        s = sum(aug[r][j] * x[j] for j in range(c + 1, cols) if x[j])
        x[c] = Fraction(aug[r][cols] - s, aug[r][c])
    return tuple(x)


class ZeroVectorError(sm.SupermodError, ValueError):
    """A nonzero vector was required."""


def normalize_ray(vec):
    """Scale to coprime integers with the first nonzero entry positive."""
    fracs = [x if isinstance(x, Fraction) else Fraction(x) for x in vec]
    if not any(fracs):
        raise ZeroVectorError("cannot normalize the zero vector")
    den = 1
    for x in fracs:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    first = next(x for x in ints if x)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def lower_covers(lat, a):
    """The elements of lat covered by the down-set a: a less one player
    that has no player above it in a."""
    lat.position(a)
    p = lat.poset
    players = sm.players_from_mask(a)
    return [
        a & ~(1 << (i - 1))
        for i in players
        if not any(p.leq(i, j) for j in players if j != i)
    ]


@dataclass(frozen=True, order=True)
class EqualityPair:
    """Unordered incomparable pair on which a game happens to be modular.

    a precedes b in the canonical (cardinality, mask) element order.
    """

    a: int
    b: int


def equality_pairs(v):
    """All incomparable pairs where v is modular, canonically ordered, by an
    O(L^2) scan."""
    els = v.lattice.elements
    val = dict(zip(els, v.values))
    return [
        EqualityPair(a, b)
        for k, a in enumerate(els)
        for b in els[k + 1 :]
        if a & ~b and b & ~a and val[a | b] + val[a & b] == val[a] + val[b]
    ]


def core_structure(v):
    """TightFamily of a supermodular game."""
    if not sm.is_supermodular(v):
        raise sm.NotSupermodularError("core structure needs a supermodular game")
    return sm.tight_family(v)


def payoff_equality_system(v):
    """The payoff system that is_extreme ranks, for any supermodular game;
    returns (rows, ncols)."""
    return cone._payoff_rows(cone._normalized(v))


def game_equality_system(v):
    """The tight facet rows that is_extreme_via_games ranks, for any
    supermodular game; returns (rows, d)."""
    return cone._game_rows(cone._normalized(v))


def oracle_double_description(rows, dim):
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


def oracle_core_vertices(v):
    """Core vertices by brute force over active-constraint subsets.

    A vertex solves n tight constraints at once: the efficiency row plus
    n-1 proper coalition rows.  Keep the unique solutions that lie in the
    core; this never looks at marginal vectors.
    """
    lat = v.lattice
    n = lat.poset.n
    proper = [a for a in lat.elements if a not in (0, lat.top)]

    def row(mask):
        return [1 if mask >> k & 1 else 0 for k in range(n)]

    verts = set()
    for combo in combinations(proper, n - 1):
        rows = [row(a) for a in combo] + [row(lat.top)]
        rhs = [v.value(a) for a in combo] + [v.value(lat.top)]
        x = solve_unique(rows, rhs)
        if x is not None and sm.core_contains(v, x):
            verts.add(x)
    return sorted(verts)


def marginal_set(v):
    return sorted({sm.marginal_vector(v, c) for c in v.lattice.maximal_chains()})


def oracle_lower_envelope(v, mask):
    """Least total on mask over the marginal vectors of every maximal chain."""
    return min(
        sm.payoff(sm.marginal_vector(v, c), mask) for c in v.lattice.maximal_chains()
    )


def oracle_face_compare(v, w):
    """Face relation read off the tight families of all maximal chains: a
    smaller face has larger tight sets along every chain."""
    tv = sm.tight_family(v).tight
    tw = sm.tight_family(w).tight
    w_inside_v = all(tw[p] <= tv[p] for p in tv)
    v_inside_w = all(tv[p] <= tw[p] for p in tv)
    if w_inside_v and v_inside_w:
        return "equal"
    if w_inside_v:
        return "below"
    if v_inside_w:
        return "above"
    return "incomparable"


def random_poset(rng, n):
    """Poset on 1..n: the players are put in a random order and each one
    lies below each later one with probability 1/3 (before closure)."""
    label = rng.sample(range(1, n + 1), n)
    covers = [
        (label[x], label[y])
        for x in range(n)
        for y in range(x + 1, n)
        if rng.random() < 1 / 3
    ]
    return sm.poset_from_covers(n, covers)


def random_game(rng, lat, lo=-5, hi=5):
    vals = [0] + [rng.randint(lo, hi) for _ in lat.elements[1:]]
    return sm.Game(lat, vals)


def random_modular(rng, lat, lo=-5, hi=5):
    targets = {i: rng.randint(lo, hi) for i in range(1, lat.poset.n + 1)}
    return sm.modular_from_irreducibles(lat, targets)


def random_fraction(rng, lo=-5, hi=5):
    """A rational with denominator 2, 3 or 4 (before reduction)."""
    return Fraction(rng.randint(lo, hi), rng.choice((2, 3, 4)))


def random_unanimity_sum(rng, lat, terms=3):
    """Supermodular: a positive rational combination of a few unanimity
    games of nonempty down-sets, plus a modular game, all with
    denominators 2, 3 and 4."""
    g = sm.modular_from_irreducibles(
        lat, {i: random_fraction(rng) for i in range(1, lat.poset.n + 1)}
    )
    for a in rng.sample(lat.elements[1:], min(terms, len(lat.elements) - 1)):
        g = g + random_fraction(rng, 1, 5) * sm.unanimity(lat, a)
    return g


def random_conic(rng, rays, hi=3, min_nonzero=0):
    while True:
        coeffs = [rng.randint(0, hi) for _ in rays]
        if sum(1 for c in coeffs if c) >= min_nonzero:
            break
    g = sm.zero_game(rays[0].lattice)
    for c, r in zip(coeffs, rays):
        if c:
            g = g + c * r
    return g


def random_supermodular(rng, lat, rays):
    return random_conic(rng, rays) + random_modular(rng, lat)


@pytest.fixture(scope="session")
def hier4():
    return sm.build_lattice(sm.poset_from_covers(4, [(2, 1), (3, 1)]))


@pytest.fixture(scope="session")
def flat3():
    return sm.build_lattice(sm.poset_from_covers(3, []))


@pytest.fixture(scope="session")
def flat4():
    return sm.build_lattice(sm.poset_from_covers(4, []))


@pytest.fixture(scope="session")
def chain3():
    return sm.build_lattice(sm.poset_from_covers(3, [(1, 2), (2, 3)]))


@pytest.fixture(scope="session")
def chain4():
    return sm.build_lattice(sm.poset_from_covers(4, [(1, 2), (2, 3), (3, 4)]))


@pytest.fixture(scope="session")
def single1():
    return sm.build_lattice(sm.poset_from_covers(1, []))


@pytest.fixture(scope="session")
def mixed5():
    return sm.build_lattice(sm.poset_from_covers(5, [(1, 3), (2, 3), (4, 5)]))


@pytest.fixture(scope="session")
def hier4_games(hier4):
    return [game_from_table(hier4, t) for t in HIER4_GENERATORS]


@pytest.fixture(scope="session")
def hier4_rays(hier4):
    return sm.extreme_rays(hier4)


@pytest.fixture(scope="session")
def flat3_rays(flat3):
    return sm.extreme_rays(flat3)


@pytest.fixture(scope="session")
def flat4_rays(flat4):
    return sm.extreme_rays(flat4)


@pytest.fixture(scope="session")
def one_rel5_rays():
    """The 241 extreme rays on five players with the one relation 1 < 2."""
    return sm.extreme_rays(sm.build_lattice(sm.poset_from_covers(5, [(1, 2)])), verify=False)
