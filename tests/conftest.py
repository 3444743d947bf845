"""Shared fixtures and independent oracles for the test suite.

The oracles recompute expected values by a different route than the library
(subset scans, brute-force permutation filtering, active-set vertex solving)
so the tests do not simply mirror the implementation.
"""

from fractions import Fraction
from itertools import combinations, permutations

import pytest

import supermod as sm
from supermod import qlin

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
        x = qlin.solve_unique(rows, rhs)
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
