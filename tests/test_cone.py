import random
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import supermod as sm
from supermod import cone, qlin
from supermod.cone import facet_witness
from supermod.game import _scaled_values
from supermod.lattice import _covering_steps, _square_corners
from supermod.marginals import _split_plan, _tight, _vertex_walk
from supermod.poset import _automorphisms

from conftest import (
    HIER4_GENERATORS,
    LADDER,
    core_structure,
    dense_rows,
    equality_pairs,
    game_equality_system,
    game_from_table,
    games_extreme,
    normalize_ray,
    oracle_face_compare,
    oracle_double_description,
    oracle_facet_rows,
    oracle_facet_triples,
    oracle_incomparable_pairs,
    oracle_orbit,
    oracle_payoff_rows,
    oracle_vertex_rows,
    oracle_payoff_system,
    oracle_rank,
    oracle_tight_family,
    payoff_equality_system,
    random_conic,
    random_fraction,
    random_game,
    random_modular,
    random_poset,
    random_supermodular,
    random_unanimity_sum,
    signed_pairs,
    signed_rows,
    sparse_rows,
    tight_family,
)


def canonical_pair(a, b):
    return (a, b) if (a.bit_count(), a) <= (b.bit_count(), b) else (b, a)


def test_equality_pairs_of_a_modular_game(hier4):
    m = sm.Game(hier4, [a.bit_count() for a in hier4.elements])
    pairs = equality_pairs(m)
    assert [(pair.a, pair.b) for pair in pairs] == oracle_incomparable_pairs(hier4)


def test_equality_pairs_empty_inside_the_cone(hier4, hier4_rays):
    interior = sm.zero_game(hier4)
    for r in hier4_rays:
        interior = interior + r
    assert sm.is_supermodular(interior)
    assert equality_pairs(interior) == []


def test_tight_incomparable_pairs_are_equality_pairs(hier4, hier4_games):
    v1 = hier4_games[0]
    fv = {(e.a, e.b) for e in equality_pairs(v1)}
    fam = tight_family(v1)
    for perm in fam.perms:
        tight = sorted(fam.tight[perm], key=lambda a: (a.bit_count(), a))
        for k, a in enumerate(tight):
            for b in tight[k + 1 :]:
                if a & ~b and b & ~a:
                    assert canonical_pair(a, b) in fv


def test_equality_pair_membership_forces_tightness_off_the_chain(hier4, hier4_rays):
    # pairs {A,B} where v is modular, with B and both combinations on the
    # chain, force A to be tight for that chain even though A is not on it
    rng = random.Random(1812)
    for _ in range(25):
        v = random_supermodular(rng, hier4, hier4_rays)
        fv = {(e.a, e.b) for e in equality_pairs(v)}
        for c in hier4.maximal_chains():
            on_chain = set(c.sets)
            tight = sm.tight_sets(v, c)
            for a, b in fv:
                for x, y in ((a, b), (b, a)):
                    if y in on_chain and (x | y) in on_chain and (x & y) in on_chain:
                        assert x in tight
                        assert x not in on_chain


def equality_pair_solution_dimension(v):
    """Dimension of the 0-normalized games that are modular on every
    equality pair of v, from ambient rows: one per equality pair, one for
    the empty coalition and one tying each join-irreducible element to its
    lower cover."""
    lat = v.lattice
    size = len(lat.elements)

    def row(*signed):
        out = [0] * size
        for sign, mask in signed:
            out[lat.index[mask]] += sign
        return out

    rows = [row((1, 0))]
    rows += [row((1, a), (-1, lat.join_irreducible_predecessor(a))) for a in lat.join_irreducibles]
    rows += [
        row((1, e.a | e.b), (1, e.a & e.b), (-1, e.a), (-1, e.b))
        for e in equality_pairs(v)
    ]
    return size - oracle_rank(rows)


def test_game_rows_ignore_a_modular_shift_on_random_posets():
    # the criterion reads v's own square slacks, so v, v + m and the
    # 0-normalization of v give the same rows in the same order
    rng = random.Random(6113)
    counts = set()
    for _ in range(40):
        lat = sm.build_lattice(random_poset(rng, rng.randint(2, 6)))
        v = random_unanimity_sum(rng, lat)
        rows = game_equality_system(v)
        assert game_equality_system(v + random_modular(rng, lat)) == rows
        assert game_equality_system(sm.zero_normalize(v)[0]) == rows
        counts.add(len(rows[0]))
    assert 0 in counts and max(counts) > 10


def test_tight_squares_span_the_equality_pair_rows_on_random_posets():
    rng = random.Random(9091)
    lattices = 0
    while lattices < 12:
        lat = sm.build_lattice(random_poset(rng, rng.randint(4, 6)))
        if len(lat.elements) > 20:  # keeps double description quick
            continue
        lattices += 1
        rays = sm.extreme_rays(lat)
        probes = list(rays)
        if rays:
            probes += [random_conic(rng, rays, min_nonzero=min(2, len(rays))) for _ in range(6)]
        probes.append(random_modular(rng, lat))
        for v in probes:
            rows, d = game_equality_system(v)
            assert d - oracle_rank(dense_rows(rows, d)) == equality_pair_solution_dimension(v)


def test_generators_are_extreme_by_both_criteria(hier4_games):
    for g in hier4_games:
        assert sm.is_extreme(g)
        assert games_extreme(g)


def test_pairwise_sums_are_not_extreme(hier4_games):
    for i in range(len(hier4_games)):
        for j in range(i + 1, len(hier4_games)):
            s = hier4_games[i] + hier4_games[j]
            assert not sm.is_extreme(s)
            assert not games_extreme(s)


def test_modular_and_zero_games_are_not_extreme(hier4):
    assert not sm.is_extreme(sm.zero_game(hier4))
    assert not games_extreme(sm.zero_game(hier4))
    card = sm.Game(hier4, [a.bit_count() for a in hier4.elements])
    assert not sm.is_extreme(card)
    for a in hier4.join_irreducibles:
        assert not sm.is_extreme(sm.unanimity(hier4, a))


def test_extremality_is_invariant_under_modular_shifts_and_scaling(hier4, hier4_games):
    rng = random.Random(2913)
    for g in hier4_games[:3]:
        shifted = 3 * g + random_modular(rng, hier4)
        assert sm.is_extreme(shifted)
        assert games_extreme(shifted)


def test_extremality_requires_supermodularity(hier4):
    bad = sm.Game.from_values(hier4, {sm.mask_from_players([2], 4): 1})
    with pytest.raises(sm.NotSupermodularError):
        sm.is_extreme(bad)
    with pytest.raises(sm.NotSupermodularError):
        games_extreme(bad)


def test_both_criteria_agree_everywhere(hier4, flat3, chain4, hier4_rays, flat3_rays):
    rng = random.Random(3014)
    for lat, rays in ((hier4, hier4_rays), (flat3, flat3_rays)):
        for r in rays:
            assert sm.is_extreme(r) and games_extreme(r)
        for i in range(len(rays)):
            for j in range(i + 1, len(rays)):
                s = rays[i] + rays[j]
                assert sm.is_extreme(s) == games_extreme(s) == False
        for _ in range(15):
            v = random_supermodular(rng, lat, rays)
            assert sm.is_extreme(v) == games_extreme(v)
    # every 0-normalized game on a chain lattice is zero, so nothing is extreme
    for _ in range(5):
        v = random_modular(rng, chain4)
        assert sm.is_extreme(v) == games_extreme(v) == False


def test_unreduced_payoff_system_has_the_same_solution_dimension(hier4, hier4_games):
    rng = random.Random(4115)
    probes = hier4_games[:2] + [
        hier4_games[0] + hier4_games[1],
        random_supermodular(rng, hier4, hier4_games),
    ]
    for v in probes:
        r_red, c_red = payoff_equality_system(v)
        r_full, c_full = oracle_payoff_system(v)
        assert c_red - oracle_rank(dense_rows(r_red, c_red)) == c_full - oracle_rank(r_full)


def test_sparse_payoff_rows_match_the_dense_builder(
    hier4_rays, flat4_rays, mixed5, wedge_chain5, one_rel5_rays
):
    # one block per core vertex against the dense builder's block per
    # chain: the same solution dimension, with every row nonempty, in range
    # and unrepeated, and the very rows, as a set, of a column-list builder
    # over Fraction payoffs (oracle_vertex_rows); on the ray ladder, on a
    # seeded sample of one-rel5 rays, and on rational unanimity sums over
    # random posets (where chains tie on many elements and zero increments
    # pin columns).  The criterion's own pairs are disjoint, nonempty and
    # unrepeated.  The rows of v, and of v plus a random modular game, are
    # those of the 0-normalization w: a modular shift moves every vertex
    # alike.
    shift_rng = random.Random(3163)

    def same_system(v):
        w = sm.zero_normalize(v)[0]
        pairs, _ = cone._payoff_rows(cone._Plan(w.lattice), _scaled_values(w)[0])
        assert all(plus | minus and not plus & minus for plus, minus in pairs)
        assert len(set(pairs)) == len(pairs)
        rows, ncols = payoff_equality_system(w)
        expected, expected_ncols = oracle_vertex_rows(w)
        assert ncols == expected_ncols and len(rows) == len(expected)
        assert {frozenset(row.items()) for row in rows} == {
            frozenset(row.items()) for row in expected
        }
        dense, dense_ncols = oracle_payoff_rows(w)
        # the payoff array of w solves the dense rows, and is nonzero on
        # every column, which bounds their rank for qlin.rank
        bound = max(dense_ncols - 1, 0)
        dense_rank = qlin.rank(signed_pairs(sparse_rows(dense)), at_most=bound)
        assert ncols - oracle_rank(dense_rows(rows, ncols)) == dense_ncols - dense_rank
        assert all(rows) and all(0 <= j < ncols for row in rows for j in row)
        assert len({frozenset(row.items()) for row in rows}) == len(rows)
        for u in (v, v + random_modular(shift_rng, v.lattice)):
            assert payoff_equality_system(u) == (rows, ncols)
        return len(rows)

    rng = random.Random(2719)
    probes = hier4_rays + flat4_rays + sm.extreme_rays(mixed5) + sm.extreme_rays(wedge_chain5)
    probes += rng.sample(one_rel5_rays, 12)
    assert min(map(same_system, probes)) > 0
    lattices = 0
    while lattices < 40:
        lat = sm.build_lattice(random_poset(rng, rng.randint(3, 5)))
        if len(lat.maximal_chains()) > 40:
            continue
        lattices += 1
        v = random_unanimity_sum(rng, lat)
        same_system(v)
        same_system(v + random_unanimity_sum(rng, lat, terms=1))


def test_is_extreme_builds_no_maximal_chain(monkeypatch):
    # flat8 has 40,320 maximal chains; u_{1234} has 4 core vertices, and
    # neither criterion builds or even counts a chain
    def refuse(*args, **kwargs):
        raise AssertionError("maximal chains walked")

    monkeypatch.setattr(sm.DownSetLattice, "maximal_chains", refuse)
    monkeypatch.setattr(sm.DownSetLattice, "_chain_count", refuse)
    lat = sm.build_lattice(sm.poset_from_covers(8, []))
    u1234 = sm.unanimity(lat, sm.mask_from_players([1, 2, 3, 4], 8))
    u235 = sm.unanimity(lat, sm.mask_from_players([2, 3, 5], 8))
    for v, extreme in ((u1234, True), (u1234 + u235, False)):
        assert sm.is_extreme(v) is extreme
        assert games_extreme(v) is extreme


def test_vertices_carry_every_tight_structure_of_the_chains():
    # the distinct (tight elements, zero players) pairs over all maximal
    # chains, from Fraction marginal vectors, are those the tight kernel
    # gives over the vertex walk's integer vectors: a supermodular sum and
    # an arbitrary game on each of 30 posets with at most 5 players
    rng = random.Random(4409)
    merged = 0
    for _ in range(30):
        lat = sm.build_lattice(random_poset(rng, rng.randint(1, 5)))
        arbitrary = sm.Game(lat, [0] + [random_fraction(rng, -2, 2) for _ in lat.elements[1:]])
        for v in (random_unanimity_sum(rng, lat), arbitrary):
            tight, zeros = oracle_tight_family(v)
            by_chain = {(tight[p], zeros[p]) for p in tight}
            val, _ = _scaled_values(v)
            steps = _covering_steps(lat)
            verts = _vertex_walk(lat, steps, val, len(tight))
            by_vertex = [
                (
                    frozenset(lat.elements[p] for p in tight),
                    frozenset(i for i, t in enumerate(x, start=1) if not t),
                )
                for x, tight in zip(verts, _tight(lat, _split_plan(steps), val, verts))
            ]
            assert len(set(by_vertex)) == len(by_vertex)
            assert set(by_vertex) == by_chain
            merged += len(tight) - len(verts)
    assert merged > 0


def test_facet_triples_on_the_hierarchy(hier4):
    triples = sm.facet_triples(hier4)
    assert len(triples) == 7
    rendered = [t.render() for t in triples]
    assert rendered == [
        "v(23) >= v(2) + v(3)",
        "v(24) >= v(2) + v(4)",
        "v(34) >= v(3) + v(4)",
        "v(234) + v(2) >= v(23) + v(24)",
        "v(234) + v(3) >= v(23) + v(34)",
        "v(234) + v(4) >= v(24) + v(34)",
        "v(1234) + v(23) >= v(123) + v(234)",
    ]
    for t in triples:
        both, base, wi, wj = t.masks()
        for mask in (both, base, wi, wj):
            assert mask in hier4
        assert t.i < t.j
        assert not base >> (t.i - 1) & 1 and not base >> (t.j - 1) & 1


def test_facet_text_past_nine_players_braces_its_coalitions():
    # run-together digits would print v({1,10,11}) as v(11011)
    lat = sm.build_lattice(sm.poset_from_covers(11, []))
    t = sm.FacetTriple(1, 10, 11)
    assert t in sm.facet_triples(lat)
    assert t.render() == "v({1,10,11}) + v(1) >= v({1,10}) + v({1,11})"
    assert sm.FacetTriple(0, 1, 11).render() == "v({1,11}) >= v(1) + v({11})"


def test_facet_counts_on_flat_posets(flat4):
    assert len(sm.facet_triples(flat4)) == 24
    for n in (2, 3, 5):
        lat = sm.build_lattice(sm.poset_from_covers(n, []))
        assert len(sm.facet_triples(lat)) == comb(n, 2) * 2 ** (n - 2)


def test_facet_order_is_canonical():
    # on the ladder and 40 seeded random posets, the subset oracle's list:
    # every covering square once, in element order, then (i, j) ascending;
    # its corners are those of _square_corners, which every slack pass and
    # facet row reads, square by square
    rng = random.Random(4409)
    posets = [sm.poset_from_covers(n, covers) for n, covers in LADDER.values()]
    posets += [random_poset(rng, rng.randint(1, 6)) for _ in range(40)]
    for p in posets:
        lat = sm.build_lattice(p)
        triples = sm.facet_triples(lat)
        assert [(t.base, t.i, t.j) for t in triples] == oracle_facet_triples(p)
        corners = [tuple(map(lat.position, t.masks())) for t in triples]
        assert corners == list(_square_corners(lat))


def test_facet_witness_violates_exactly_its_own_inequality(flat3):
    triples = sm.facet_triples(flat3)
    for t in triples:
        w = facet_witness(flat3, t)
        for s in triples:
            if s is t:
                assert s.value(w) < 0
            else:
                assert s.value(w) >= 0


def test_facet_witness_limits_on_four_players(flat4):
    # the witness for base {3} adding 1,2 must leave the facet of base {2}
    # adding 3,4 satisfied, and so on for every four-player witness
    triples = sm.facet_triples(flat4)
    own = next(t for t in triples if t.base == 0b100 and (t.i, t.j) == (1, 2))
    foreign = next(t for t in triples if t.base == 0b010 and (t.i, t.j) == (3, 4))
    w = facet_witness(flat4, own)
    violated = [t for t in triples if t.value(w) < 0]
    assert violated == [own]
    assert foreign.value(w) >= 0
    clean = [
        t
        for t in triples
        if sum(1 for s in triples if s.value(facet_witness(flat4, t)) < 0) == 1
    ]
    assert len(clean) == len(triples) == 24


def assert_witnesses_exact(lat, eps):
    triples = sm.facet_triples(lat)
    for t in triples:
        w = facet_witness(lat, t, eps=eps)
        assert [s for s in triples if s.value(w) < 0] == [t]


def test_facet_witness_exact_off_the_boolean_case(hier4):
    assert_witnesses_exact(hier4, Fraction(1))
    rng = random.Random(5216)
    for _ in range(40):
        n = rng.randint(1, 5)
        covers = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.3
        ]
        lat = sm.build_lattice(sm.poset_from_covers(n, covers))
        assert_witnesses_exact(lat, Fraction(rng.randint(1, 9), rng.randint(1, 9)))


def test_facet_witness_refuses_a_nonpositive_scale_or_a_non_square(flat3, hier4):
    t = sm.facet_triples(flat3)[0]
    for eps in (Fraction(0), Fraction(-1)):
        with pytest.raises(ValueError):
            facet_witness(flat3, t, eps=eps)
    # a triple is a covering square only when base, base+i and base+j are
    # elements and i, j are distinct players outside base: in hier4 player
    # 1 sits above 2 and 3, so {1} and {1,2} are no down-sets
    not_squares = [
        (flat3, sm.FacetTriple(0, 1, 1)),
        (flat3, sm.FacetTriple(0b1, 1, 2)),
        (flat3, sm.FacetTriple(0b11, 2, 1)),
        (flat3, sm.FacetTriple(0, 1, 4)),
        (hier4, sm.FacetTriple(0, 1, 2)),
        (hier4, sm.FacetTriple(0b10, 1, 3)),
        (hier4, sm.FacetTriple(0b1, 2, 3)),
        (hier4, sm.FacetTriple(0b110, 2, 4)),
    ]
    for lat, triple in not_squares:
        with pytest.raises(ValueError, match="not a covering square"):
            facet_witness(lat, triple)


# every facet triple of hier4 and flat3 with its repr, masks, render and its
# value at the game v(A) = A^2 / (|A| + 1) on the mask A, pinned so that a
# change of FacetTriple's underlying type cannot alter any of them
FACET_TRIPLE_FORMS = {
    "hier4": [
        ("FacetTriple(base=0, i=2, j=3)", (6, 0, 2, 4), "v(23) >= v(2) + v(3)", Fraction(2)),
        ("FacetTriple(base=0, i=2, j=4)", (10, 0, 2, 8), "v(24) >= v(2) + v(4)", Fraction(-2, 3)),
        ("FacetTriple(base=0, i=3, j=4)", (12, 0, 4, 8), "v(34) >= v(3) + v(4)", Fraction(8)),
        ("FacetTriple(base=2, i=3, j=4)", (14, 2, 6, 10), "v(234) + v(2) >= v(23) + v(24)",
         Fraction(17, 3)),
        ("FacetTriple(base=4, i=2, j=4)", (14, 4, 6, 12), "v(234) + v(3) >= v(23) + v(34)",
         Fraction(-3)),
        ("FacetTriple(base=8, i=2, j=3)", (14, 8, 10, 12), "v(234) + v(4) >= v(24) + v(34)",
         Fraction(-1, 3)),
        ("FacetTriple(base=6, i=1, j=4)", (15, 6, 7, 14), "v(1234) + v(23) >= v(123) + v(234)",
         Fraction(-17, 4)),
    ],
    "flat3": [
        ("FacetTriple(base=0, i=1, j=2)", (3, 0, 1, 2), "v(12) >= v(1) + v(2)", Fraction(1, 2)),
        ("FacetTriple(base=0, i=1, j=3)", (5, 0, 1, 4), "v(13) >= v(1) + v(3)", Fraction(-1, 6)),
        ("FacetTriple(base=0, i=2, j=3)", (6, 0, 2, 4), "v(23) >= v(2) + v(3)", Fraction(2)),
        ("FacetTriple(base=1, i=2, j=3)", (7, 1, 3, 5), "v(123) + v(1) >= v(12) + v(13)",
         Fraction(17, 12)),
        ("FacetTriple(base=2, i=1, j=3)", (7, 2, 3, 6), "v(123) + v(2) >= v(12) + v(23)",
         Fraction(-3, 4)),
        ("FacetTriple(base=4, i=1, j=2)", (7, 4, 5, 6), "v(123) + v(3) >= v(13) + v(23)",
         Fraction(-1, 12)),
    ],
}


@pytest.mark.parametrize("name", sorted(FACET_TRIPLE_FORMS))
def test_facet_triple_forms_are_pinned(name, hier4, flat3):
    lat = {"hier4": hier4, "flat3": flat3}[name]
    g = sm.Game(lat, [Fraction(a * a, a.bit_count() + 1) for a in lat.elements])
    got = [(repr(t), t.masks(), t.render(), t.value(g)) for t in sm.facet_triples(lat)]
    assert got == FACET_TRIPLE_FORMS[name]


def test_facet_triple_is_an_immutable_value(flat3):
    t = sm.FacetTriple(0b1, 2, 3)
    assert repr(t) == str(t) == "FacetTriple(base=1, i=2, j=3)"
    for field in ("base", "i", "j"):
        with pytest.raises(AttributeError):
            setattr(t, field, 0)
    same = sm.FacetTriple(base=1, i=2, j=3)
    assert same == t and hash(same) == hash(t) and same is not t
    assert sm.FacetTriple(0, 2, 3) != t
    # like MaximalChain: unpacks, orders and compares as the tuple (base, i, j)
    base, i, j = t
    assert (base, i, j) == t == (1, 2, 3)
    assert sorted([t, sm.FacetTriple(0, 2, 3)]) == [(0, 2, 3), (1, 2, 3)]
    with pytest.raises(ValueError) as err:
        facet_witness(flat3, sm.FacetTriple(0, 1, 1))
    assert str(err.value) == "FacetTriple(base=0, i=1, j=1) is not a covering square of the lattice"


def test_ray_enumeration_matches_the_generator_tables(hier4, hier4_rays):
    expected = sorted(
        (game_from_table(hier4, t) for t in HIER4_GENERATORS),
        key=lambda g: g.values,
    )
    assert hier4_rays == expected
    for g in hier4_rays:
        ints = [v for v in g.values if v]
        assert all(v.denominator == 1 for v in ints)
        assert normalize_ray(g.values) == tuple(int(v) for v in g.values)


def test_rays_satisfy_all_facets_and_sit_on_a_corank_one_face(hier4, flat3):
    # facet functionals vanish on modular games, so their rank over the full
    # value space equals their rank modulo modularity; an extreme ray must
    # make the tight ones span a hyperplane of the cone's span
    for lat in (hier4, flat3):
        d = len(lat.elements) - 1 - lat.poset.n
        pos = {a: k for k, a in enumerate(lat.elements)}
        triples = sm.facet_triples(lat)
        for g in sm.extreme_rays(lat):
            tight_rows = []
            for t in triples:
                slack = t.value(g)
                assert slack >= 0
                if slack == 0:
                    row = [0] * len(lat.elements)
                    both, base, wi, wj = t.masks()
                    row[pos[both]] += 1
                    row[pos[base]] += 1
                    row[pos[wi]] -= 1
                    row[pos[wj]] -= 1
                    tight_rows.append(row)
            assert oracle_rank(tight_rows) == d - 1


def test_chain_lattices_have_no_rays(chain3, chain4):
    for lat in (chain3, chain4):
        assert sm.extreme_rays(lat) == []
        assert sm.cone_dimension(lat) == 0


def test_flat3_ray_count_regression(flat3_rays):
    assert len(flat3_rays) == 5


def test_flat4_ray_count(flat4_rays):
    assert len(flat4_rays) == 37


def test_extreme_rays_builds_the_facet_rows_once(flat4, monkeypatch):
    # one plan serves double description and both halves of the cross-check:
    # the plan and its facet rows are built once, and each half runs once per
    # orbit of the poset's automorphisms (10 on flat4), on the orbit's first
    # ray in sorted order, from that ray's own values; the orbits of those
    # representatives are disjoint and make up exactly the 37 returned rays
    built, plans = [], []
    halves = {"_games_extreme": [], "_payoff_extreme": []}
    build = cone._facet_rows
    monkeypatch.setattr(cone, "_facet_rows", lambda lat: built.append(lat) or build(lat))

    class CountedPlan(cone._Plan):
        def __init__(self, lat, **parts):
            plans.append(self)
            super().__init__(lat, **parts)

    monkeypatch.setattr(cone, "_Plan", CountedPlan)
    for name, seen in halves.items():
        check = getattr(cone, name)
        monkeypatch.setattr(
            cone,
            name,
            lambda plan, val, *a, _c=check, _s=seen: _s.append((plan, val)) or _c(plan, val, *a),
        )
    rays = sm.extreme_rays(flat4)
    assert len(rays) == 37
    assert built == [flat4] and len(plans) == 1
    reps = [sm.Game(flat4, val) for _, val in halves["_games_extreme"]]
    for seen in halves.values():
        assert [plan for plan, _ in seen] == plans * 10
        assert [sm.Game(flat4, val) for _, val in seen] == reps
    orbits = [oracle_orbit(g) for g in reps]
    assert all(g.values == min(orbit) for g, orbit in zip(reps, orbits))
    assert sum(map(len, orbits)) == 37
    assert set().union(*orbits) == {g.values for g in rays}


def test_extreme_rays_checks_one_ray_per_orbit(one_rel5_rays, dd_random_lattices, monkeypatch):
    # 2, 24, 4 and 6 automorphisms split the 6, 37, 52 and 241 rays of
    # hier4, flat4, mixed5 and one-rel5 into 5, 10, 29 and 79 orbits
    # (oracle_orbit), and both criteria run once per orbit, on one ray of
    # each; so do they on the 40 random lattices, so every automorphism
    # map certifies the images it should
    checked = {"_games_extreme": [], "_payoff_extreme": []}
    for name, seen in checked.items():
        check = getattr(cone, name)
        monkeypatch.setattr(
            cone, name, lambda plan, val, *a, _c=check, _s=seen: _s.append(val) or _c(plan, val, *a)
        )

    def orbits_checked(lat):
        for seen in checked.values():
            seen.clear()
        rays = sm.extreme_rays(lat)
        orbits = {min(oracle_orbit(g)) for g in rays}
        assert checked["_games_extreme"] == checked["_payoff_extreme"]
        assert {min(oracle_orbit(sm.Game(lat, val))) for val in checked["_games_extreme"]} == orbits
        assert len(checked["_games_extreme"]) == len(orbits)
        return rays, len(orbits)

    for name, orbits in (("hier4", 5), ("flat4", 10), ("mixed5", 29), ("one-rel5", 79)):
        rays, count = orbits_checked(sm.build_lattice(sm.poset_from_covers(*LADDER[name])))
        assert count == orbits
    assert rays == one_rel5_rays
    moved = 0
    for lat, _, _, _ in dd_random_lattices:
        rays, count = orbits_checked(lat)
        moved += len(rays) - count
    assert moved > 0


def test_extreme_rays_refuses_a_set_not_closed_under_the_automorphisms(
    flat4, flat4_rays, monkeypatch
):
    # a double description that drops one ray of an orbit with more than one
    # member fails the closure test, whether the dropped ray is the orbit's
    # sorted-first member or not; a dropped ray that every automorphism
    # fixes, such as the unanimity game of the grand coalition, is not caught
    _, _, _, coord = cone._facet_rows(flat4)
    dd = cone.double_description

    def without(ray):
        def drop(rows, d, max_rays):
            return [
                z
                for z in dd(rows, d, max_rays)
                if tuple(0 if c is None else z[c] for c in coord) != ray.values
            ]

        return drop

    moved = next(g for g in flat4_rays if len(oracle_orbit(g)) > 1)
    orbit = sorted(oracle_orbit(moved))
    for val in (orbit[0], orbit[-1]):
        monkeypatch.setattr(cone, "double_description", without(sm.Game(flat4, val)))
        with pytest.raises(sm.CrossCheckError, match="not closed under the poset's automorphisms"):
            sm.extreme_rays(flat4)
    grand = sm.unanimity(flat4, flat4.elements[-1])
    assert oracle_orbit(grand) == {grand.values} and grand in flat4_rays
    monkeypatch.setattr(cone, "double_description", without(grand))
    assert sm.extreme_rays(flat4) == [g for g in flat4_rays if g != grand]


def test_is_extreme_cross_checks_both_criteria_on_one_plan(hier4_games, monkeypatch):
    # one plan and one scaling serve both criteria, through every module
    # that binds the three builders; either criterion disagreeing with the
    # other is a defect
    calls = dict.fromkeys(("_facet_rows", "_covering_steps", "_scaled_values"), 0)
    modules = [m for name, m in sys.modules.items() if name.startswith("supermod.")]
    for fname in calls:
        original = getattr(cone, fname)

        def counted(*args, _fname=fname, _original=original):
            calls[_fname] += 1
            return _original(*args)

        for mod in modules:
            if getattr(mod, fname, None) is original:
                monkeypatch.setattr(mod, fname, counted)
    pair = hier4_games[0] + hier4_games[1]
    assert all(sm.is_extreme(g) for g in hier4_games)
    assert not sm.is_extreme(pair)
    for g in (hier4_games[0], pair):
        calls.update(dict.fromkeys(calls, 0))
        sm.is_extreme(g)
        assert calls == {"_facet_rows": 1, "_covering_steps": 1, "_scaled_values": 1}
    for half in ("_games_extreme", "_payoff_extreme"):
        check = getattr(cone, half)
        with monkeypatch.context() as m:
            m.setattr(cone, half, lambda plan, val, *a, _c=check: not _c(plan, val, *a))
            for g in (hier4_games[0], pair):
                with pytest.raises(sm.CrossCheckError, match="extremality criteria disagree"):
                    sm.is_extreme(g)


def test_extreme_rays_refuses_a_sum_of_two_rays(hier4, flat4, monkeypatch):
    # a double description that also returns the sum of two of its rays,
    # a point of the cone that spans no extreme ray, fails the cross-check
    dd = cone.double_description

    def with_a_sum(rows, d, max_rays):
        rays = dd(rows, d, max_rays)
        return rays + [tuple(map(sum, zip(rays[0], rays[-1])))]

    monkeypatch.setattr(cone, "double_description", with_a_sum)
    for lat in (hier4, flat4):
        with pytest.raises(sm.CrossCheckError, match="failed the extremality cross-check"):
            sm.extreme_rays(lat)


def test_double_description_caps_its_intermediate_rays(hier4, flat4, monkeypatch):
    # flat4 holds at most 37 rays after any row; a cap below that refuses
    # and names the cap, the count reached, the row and the flag.  A refused
    # run computes no automorphism: flat5 under a cap of 200 refuses before
    _, pairs, d, _ = cone._facet_rows(flat4)
    rows = signed_rows(pairs)
    assert len(sm.double_description(rows, d, max_rays=37)) == 37
    with pytest.raises(sm.SizeError) as exc:
        sm.double_description(rows, d, max_rays=20)
    msg = str(exc.value)
    held = int(msg.split(" holds ")[1].split()[0])
    assert held > 20 and f"of {len(rows)}, over the cap of 20" in msg
    assert " after row " in msg and "--max-dd-rays or max_rays" in msg
    with pytest.raises(sm.SizeError, match="--max-dd-rays"):
        sm.extreme_rays(flat4, max_rays=20)
    assert len(sm.extreme_rays(hier4, max_rays=6)) == 6
    assert cone.DEFAULT_MAX_DD_RAYS == 2000

    def refuse(poset):
        raise AssertionError("automorphisms computed")

    monkeypatch.setattr(cone, "_automorphisms", refuse)
    flat5 = sm.build_lattice(sm.poset_from_covers(5, []))
    with pytest.raises(sm.SizeError, match="over the cap of 200; raise it with --max-dd-rays"):
        sm.extreme_rays(flat5, max_rays=200)


def test_the_payoff_half_keeps_the_vertex_walk_cap():
    # |A|^2 on flat6 has 720 core vertices; the plan path refuses a walk
    # past max_chains with the vertex walk's own message, which names the
    # partial vectors held after the covering edge that passed the cap
    lat = sm.build_lattice(sm.poset_from_covers(6, []))
    val = [a.bit_count() ** 2 for a in lat.elements]
    plan = cone._Plan(lat)
    for cap, held, rank in ((100, 102, 3), (119, 120, 3), (120, 126, 4), (719, 720, 5)):
        with pytest.raises(sm.SizeError) as exc:
            cone._payoff_extreme(plan, val, cap)
        assert str(exc.value) == (
            f"the vertex walk holds {held} partial marginal vectors at rank {rank},"
            f" over the cap of {cap}; raise it with --max-chains or max_chains"
        )
    assert cone._payoff_extreme(plan, val, 720) is False


def test_cone_dimension_builds_no_facet_row(hier4, flat4, mixed5, monkeypatch):
    # the dimension is read off the lattice's size and the poset's players,
    # after the |A|^2 certificate, with no facet row built
    def refuse(lat):
        raise AssertionError("facet rows built")

    monkeypatch.setattr(cone, "_facet_rows", refuse)
    assert [sm.cone_dimension(lat) for lat in (hier4, flat4, mixed5)] == [5, 11, 14]


def test_cone_dimension(hier4, flat3, flat4, chain3, single1, mixed5, wedge_chain5):
    assert sm.cone_dimension(hier4) == 5
    assert len(hier4.elements) - 1 == 9
    assert sm.cone_dimension(flat4) == 11
    assert sm.cone_dimension(single1) == 0
    for lat in (hier4, flat3, flat4, chain3, single1, mixed5, wedge_chain5):
        assert sm.cone_dimension(lat) == len(lat.elements) - 1 - lat.poset.n
        # the enumerated rays span the whole cone
        rays = sm.extreme_rays(lat)
        assert oracle_rank([g.values for g in rays]) == sm.cone_dimension(lat)


def test_extremality_criteria_agree_on_random_posets(hier4, flat4, one_rel5_rays):
    # each plan-based half of the cross-check of extreme_rays, on one plan per
    # lattice, agrees with the public is_extreme and with the games half on a
    # fresh plan of its own: on every enumerated ray (extreme), on every sum
    # of two rays and on the zero game (not extreme); on the ray ladder and on
    # 40 seeded random posets, whose rays also span the dimension.  one-rel5
    # has 28,920 sums of two rays, of which a seeded sample of 300 is checked
    def agree(lat, rays, sums):
        plan = cone._Plan(lat)
        probes = [(g, True) for g in rays] + [(sm.zero_game(lat), False)]
        probes += [(a + b, False) for a, b in sums]
        for g, expected in probes:
            val = _scaled_values(g)[0]
            assert cone._payoff_extreme(plan, val) == sm.is_extreme(g) == expected
            assert cone._games_extreme(plan, val) == games_extreme(g) == expected

    hier5 = sm.build_lattice(sm.poset_from_covers(5, [(2, 1), (3, 1)]))
    for lat in (hier4, flat4, hier5):
        rays = sm.extreme_rays(lat)
        agree(lat, rays, combinations(rays, 2))
    rng = random.Random(5501)
    lattices = 0
    while lattices < 40:
        lat = sm.build_lattice(random_poset(rng, rng.randint(4, 5)))
        if len(lat.elements) > 20:
            continue
        lattices += 1
        rays = sm.extreme_rays(lat)
        assert oracle_rank([g.values for g in rays]) == sm.cone_dimension(lat)
        agree(lat, rays, combinations(rays, 2))
    sums = rng.sample(list(combinations(one_rel5_rays, 2)), 300)
    agree(one_rel5_rays[0].lattice, one_rel5_rays, sums)


def test_ray_enumeration_size_cap(flat4):
    with pytest.raises(sm.SizeError):
        sm.extreme_rays(flat4, max_elements=8)
    with pytest.raises(TypeError):  # the cross-checks cannot be switched off
        sm.extreme_rays(flat4, verify=False)


def test_double_description_basics():
    rays = sm.double_description(sparse_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3)
    assert sorted(rays) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    rays = sm.double_description(sparse_rows([[1, 1], [1, -1]]), 2)
    assert sorted(rays) == [(1, -1), (1, 1)]
    with pytest.raises(ValueError):
        sm.double_description(sparse_rows([[1, 1]]), 2)  # a lineality direction survives


def test_double_description_prunes_non_extreme_directions():
    # the cone over a square: four facets in three dimensions
    rows = [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]
    rays = sm.double_description(sparse_rows(rows), 3)
    assert sorted(rays) == [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]


def test_double_description_matches_the_algebraic_oracle(dd_random_lattices):
    # combinatorial adjacency against the rank test it replaced: on random
    # posets in the facet order and in a shuffled row order, then on one-rel5
    # in the facet order.  Each row scaled by a seeded factor in 2..5 cuts the
    # same cone, and reaches the multiply path of the per-coefficient gather
    # that +-1 rows miss.
    def same_rays(rows, d):
        rays = sorted(sm.double_description(rows, d))
        assert rays == sorted(oracle_double_description(rows, d))
        return rays

    rng = random.Random(2741)
    for _, rows, d, shuffled in dd_random_lattices:
        for order in (rows, shuffled):
            factors = [rng.randint(2, 5) for _ in order]
            scaled = [{j: x * k for j, x in row.items()} for row, k in zip(order, factors)]
            assert same_rays(scaled, d) == same_rays(order, d)
    _, pairs, d, _ = cone._facet_rows(sm.build_lattice(sm.poset_from_covers(5, [(1, 2)])))
    assert len(same_rays(signed_rows(pairs), d)) == 241


def test_double_description_with_mixed_coefficients():
    # 2x - 3y + z >= 0, y >= 0 and z >= 0 cut a simplicial cone on (1, 0, 0),
    # (3, 2, 0) and (-1, 0, 2); -x + 2y + 3z >= 0 cuts off (1, 0, 0) and puts
    # its combinations with the other two in its place
    rows = [{0: 2, 1: -3, 2: 1}, {1: 1}, {2: 1}, {0: -1, 1: 2, 2: 3}]
    expected = [(-1, 0, 2), (2, 1, 0), (3, 0, 1), (3, 2, 0)]
    assert sorted(sm.double_description(rows, 3)) == expected
    assert sorted(oracle_double_description(rows, 3)) == expected


def test_double_description_keeps_the_vectors_a_pivot_row_is_zero_on(monkeypatch):
    # a work count, not a timer: every _reduce call is logged between the
    # row products (lineality first, then rays) of the steps.  A pivot step
    # rebuilds a lineality vector or ray only where the row is nonzero on
    # it; in facet order no lineality vector but the pivot is met, so all
    # lineality updates are kept, and so are the rays at which the row is
    # zero: (lineality updates, zero, all ray updates) below
    log = []
    products, reduce = cone._products, cone._reduce

    def logged_products(row, vecs):
        log.append(products(row, vecs))
        return list(log[-1])  # the pivot step pops from its copy

    def logged_reduce(vec):
        log.append(None)
        return reduce(vec)

    monkeypatch.setattr(cone, "_products", logged_products)
    monkeypatch.setattr(cone, "_reduce", logged_reduce)
    for name, kept in (("flat4", (55, 40, 68)), ("mixed5", (91, 59, 152))):
        _, pairs, d, _ = cone._facet_rows(sm.build_lattice(sm.poset_from_covers(*LADDER[name])))
        log.clear()
        cone.double_description(signed_rows(pairs), d)
        starts = [k for k, entry in enumerate(log) if entry is not None][::2] + [len(log)]
        lin_updates = zero = ray_updates = 0
        for start, end in zip(starts, starts[1:]):
            sdots, dots = log[start], log[start + 1]
            if any(sdots):
                assert sum(map(bool, sdots)) == 1, name  # only the pivot is met
                assert end - start - 2 == sum(map(bool, dots)), name
                lin_updates += len(sdots) - 1
                zero += dots.count(0)
                ray_updates += len(dots)
        assert (lin_updates, zero, ray_updates) == kept, name


def test_facet_pairs_match_the_corner_count_oracle(dd_random_lattices, monkeypatch):
    # every covering square's signed pair, expanded, is the row of
    # oracle_facet_rows, which counts corner signs per coordinate; on the
    # ladder, the 40 random lattices and 200 seeded random posets, with
    # squares that have no, one and two join-irreducible sides.  The rows
    # extreme_rays hands to double_description are those rows, in order.
    handed = []
    dd = cone.double_description
    monkeypatch.setattr(
        cone, "double_description", lambda rows, *a: handed.append(rows) or dd(rows, *a)
    )
    lattices = [sm.build_lattice(sm.poset_from_covers(*LADDER[name])) for name in LADDER]
    lattices += [lat for lat, *_ in dd_random_lattices]
    rng = random.Random(8363)
    lattices += [sm.build_lattice(random_poset(rng, rng.randint(2, 6))) for _ in range(200)]
    kinds = set()
    for lat in lattices:
        _, pairs, d, _ = cone._facet_rows(lat)
        rows, sides = oracle_facet_rows(lat)
        assert all(not plus & minus for plus, minus in pairs)
        assert signed_rows(pairs) == rows
        assert all(0 <= c < d for row in rows for c in row)
        kinds.update(sides)
        if len(lat.elements) <= 24:
            handed.clear()
            sm.extreme_rays(lat)
            assert handed == [rows]
    assert kinds == {0, 1, 2}


def test_face_compare_examples(hier4, hier4_games, flat4):
    v1, v2 = hier4_games[0], hier4_games[1]
    assert sm.face_compare(v1, 2 * v1) == "equal"
    assert sm.face_compare(v1, v1 + v2) == "below"
    assert sm.face_compare(v1 + v2, v1) == "above"
    assert sm.face_compare(v1, v2) == "incomparable"
    other = sm.zero_game(flat4)
    with pytest.raises(sm.LatticeMismatchError):
        sm.face_compare(v1, other)
    with pytest.raises(TypeError, match="expected a game"):
        sm.face_compare(v1, v1.values)
    bad = sm.Game.from_values(hier4, {sm.mask_from_players([2], 4): 1})
    with pytest.raises(sm.NotSupermodularError, match="face comparison"):
        sm.face_compare(v1, bad)


def test_face_compare_matches_tight_family_oracle_on_random_posets():
    # sums over overlapping subsets of one pool of unanimity games, so
    # equal, nested and crossing faces all turn up
    rng = random.Random(8383)
    seen = set()
    for _ in range(30):
        lat = sm.build_lattice(random_poset(rng, rng.randint(2, 6)))
        pool = rng.sample(lat.elements[1:], min(3, len(lat.elements) - 1))

        def combo():
            g = random_modular(rng, lat)
            for a in pool:
                if rng.random() < 0.5:
                    g = g + random_fraction(rng, 1, 3) * sm.unanimity(lat, a)
            return g

        for _ in range(4):
            v, w = combo(), combo()
            relation = sm.face_compare(v, w)
            assert relation == oracle_face_compare(v, w)
            seen.add(relation)
    assert seen == {"equal", "below", "above", "incomparable"}


def test_tight_structure_determines_equality_pairs(hier4, hier4_rays):
    # two supermodular games sit in the same relative-interior face exactly
    # when their equality-pair families coincide
    games = list(hier4_rays) + [3 * hier4_rays[0], hier4_rays[0] + hier4_rays[1]]
    for v in games:
        for w in games:
            same_tight = core_structure(v).tight == core_structure(w).tight
            same_pairs = set(equality_pairs(v)) == set(equality_pairs(w))
            assert same_tight == same_pairs



def test_a_cone_without_rays_searches_no_automorphism(single1, chain3, chain1200, monkeypatch):
    # a chain's cone is {0}: double description returns no generator, so
    # the automorphism search (backtracking once per player) never runs,
    # and a 1,200-player chain under a raised cap gives [] at once
    def refuse(poset):
        raise AssertionError("automorphisms computed")

    monkeypatch.setattr(cone, "_automorphisms", refuse)
    for lat in (single1, chain3, chain1200):
        assert sm.cone_dimension(lat) == 0
        assert sm.extreme_rays(lat, max_elements=5000) == []
    monkeypatch.undo()
    assert len(sm.extreme_rays(sm.build_lattice(sm.poset_from_covers(2, [])))) == 1


def test_a_long_fork_has_its_one_ray():
    # 1 < 2 < ... < 1198 with 1199 and 1200 above 1198: 1,202 down-sets, a
    # cone of dimension one whose ray is worth 1 on the full set, and two
    # automorphisms, found without a call per player
    n = 1200
    covers = [(i, i + 1) for i in range(1, n - 2)] + [(n - 2, n - 1), (n - 2, n)]
    p = sm.poset_from_covers(n, covers)
    identity = tuple(range(1, n + 1))
    assert _automorphisms(p) == [identity, identity[:-2] + (n, n - 1)]
    lat = sm.build_lattice(p)
    assert len(lat.elements) == n + 2 and sm.cone_dimension(lat) == 1
    assert [g.to_mapping() for g in sm.extreme_rays(lat, max_elements=5000)] == [{lat.top: 1}]
