"""Acceptance suite: one test per published claim, each with its runtime cap.

Every check is exact (rational arithmetic, zero tolerance).  Expected values
are frozen literals recomputed by independent oracles where one exists:
brute-force subset scans, linear-extension filtering, and active-set vertex
solving live in conftest and share no code with the library paths they
check.  Run with -v to get one pass/fail line per criterion.
"""

import random
from fractions import Fraction
from time import perf_counter

import supermod as sm
from supermod import cli

from conftest import (
    HIER4_GENERATORS,
    brute_linear_extensions,
    core_structure,
    equality_pairs,
    game_from_table,
    games_extreme,
    marginal_set,
    oracle_core_vertices,
    oracle_mobius,
    oracle_supermodular,
    random_conic,
    random_game,
    random_modular,
    random_supermodular,
)


def hierarchy4():
    return sm.poset_from_covers(4, [(2, 1), (3, 1)])


def boolean(n):
    return sm.poset_from_covers(n, [])


def done(name, t0, cap=None):
    dt = perf_counter() - t0
    print(f"{name}: PASS ({dt:.2f}s)")
    if cap is not None:
        assert dt < cap, f"{name} took {dt:.2f}s, cap {cap}s"


def test_criterion_01_hierarchy_lattice_and_join_irreducibles():
    t0 = perf_counter()
    lat = sm.build_lattice(hierarchy4())
    assert [sm.players_from_mask(a) for a in lat.elements] == [
        [], [2], [3], [4], [2, 3], [2, 4], [3, 4], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4],
    ]
    assert [sm.players_from_mask(a) for a in lat.join_irreducibles] == [
        [2], [3], [4], [1, 2, 3],
    ]
    done("criterion 01 (hierarchy lattice)", t0, cap=1.0)


def test_criterion_02_compatible_permutations_are_the_linear_extensions():
    t0 = perf_counter()
    p = hierarchy4()
    lat = sm.build_lattice(p)
    chains = lat.maximal_chains()
    assert len(chains) == 8
    assert [c.perm for c in chains] == brute_linear_extensions(p)
    done("criterion 02 (compatible permutations)", t0)


def test_criterion_03_detailed_ray_marginals_and_tight_families():
    t0 = perf_counter()
    lat = sm.build_lattice(hierarchy4())
    v1 = game_from_table(lat, HIER4_GENERATORS[0])
    low_perms = {(2, 3, 1, 4), (2, 3, 4, 1), (2, 4, 3, 1), (3, 2, 1, 4), (3, 2, 4, 1)}
    high_perms = {(3, 4, 2, 1), (4, 2, 3, 1), (4, 3, 2, 1)}
    low_tight = {
        sm.mask_from_players(s, 4)
        for s in ([], [2], [3], [2, 3], [2, 4], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4])
    }
    high_tight = {
        sm.mask_from_players(s, 4)
        for s in ([], [3], [4], [2, 4], [3, 4], [2, 3, 4], [1, 2, 3, 4])
    }
    for chain in lat.maximal_chains():
        x = sm.marginal_vector(v1, chain)
        tight = sm.tight_sets(v1, chain)
        if chain.perm in low_perms:
            assert x == (0, 0, 0, 1)
            assert tight == low_tight
        else:
            assert chain.perm in high_perms
            assert x == (0, 1, 0, 0)
            assert tight == high_tight
    done("criterion 03 (detailed ray marginals)", t0, cap=1.0)


def test_criterion_04_extremality_of_generators_sums_and_combinations():
    t0 = perf_counter()
    lat = sm.build_lattice(hierarchy4())
    gens = [game_from_table(lat, t) for t in HIER4_GENERATORS]
    for g in gens:
        assert sm.is_extreme(g) and games_extreme(g)
    for i in range(6):
        for j in range(i + 1, 6):
            s = gens[i] + gens[j]
            assert not sm.is_extreme(s) and not games_extreme(s)
    rng = random.Random(20260819)
    for _ in range(100):
        v = random_conic(rng, gens, min_nonzero=2)
        assert not sm.is_extreme(v) and not games_extreme(v)
    done("criterion 04 (extremality)", t0, cap=5.0)


def test_criterion_05_ray_enumeration_recovers_the_generator_tables():
    t0 = perf_counter()
    lat = sm.build_lattice(hierarchy4())
    rays = sm.extreme_rays(lat)
    expected = sorted(
        (game_from_table(lat, t) for t in HIER4_GENERATORS), key=lambda g: g.values
    )
    assert rays == expected
    assert sm.cone_dimension(lat) == 5
    assert len(lat.elements) - 1 == 9
    done("criterion 05 (ray enumeration)", t0, cap=5.0)


def test_criterion_06_boolean_four_player_facets_and_rays():
    t0 = perf_counter()
    lat = sm.build_lattice(boolean(4))
    assert len(sm.facet_triples(lat)) == 24
    assert len(sm.extreme_rays(lat)) == 37
    done("criterion 06 (Boolean n=4)", t0, cap=60.0)


def test_criterion_07_hierarchy_facets_render_exactly():
    t0 = perf_counter()
    lat = sm.build_lattice(hierarchy4())
    assert [t.render() for t in sm.facet_triples(lat)] == [
        "v(23) >= v(2) + v(3)",
        "v(24) >= v(2) + v(4)",
        "v(34) >= v(3) + v(4)",
        "v(234) + v(2) >= v(23) + v(24)",
        "v(234) + v(3) >= v(23) + v(34)",
        "v(234) + v(4) >= v(24) + v(34)",
        "v(1234) + v(23) >= v(123) + v(234)",
    ]
    done("criterion 07 (hierarchy facets)", t0, cap=1.0)


def test_criterion_08_four_characterizations_agree_on_500_games():
    t0 = perf_counter()
    rng = random.Random(4814)
    for covers in ([(2, 1), (3, 1)], []):
        n = 4 if covers else 3
        lat = sm.build_lattice(sm.poset_from_covers(n, covers))
        rays = sm.extreme_rays(lat)
        chains = lat.maximal_chains()
        samples = [random_game(rng, lat) for _ in range(170)]
        samples += [random_supermodular(rng, lat, rays) for _ in range(50)]
        samples += [random_modular(rng, lat) for _ in range(30)]
        assert len(samples) == 250
        for v in samples:
            super_scan = oracle_supermodular(v)
            marginals_in_core = all(
                sm.core_contains(v, sm.marginal_vector(v, c)) for c in chains
            )
            vertices_are_marginals = oracle_core_vertices(v) == marginal_set(v)
            envelope_matches = all(
                sm.lower_envelope(v, a) == v.value(a) for a in lat.elements
            )
            assert (
                super_scan
                == marginals_in_core
                == vertices_are_marginals
                == envelope_matches
            )
    done("criterion 08 (four characterizations)", t0, cap=30.0)


def test_criterion_09_moebius_roundtrip_and_recursion_agreement():
    t0 = perf_counter()
    rng = random.Random(5915)
    for covers in ([(2, 1), (3, 1)], []):
        n = 4 if covers else 3
        lat = sm.build_lattice(sm.poset_from_covers(n, covers))
        for _ in range(500):
            v = random_game(rng, lat)
            assert sm.mobius_inverse(sm.mobius_transform(v)) == v
        mu = oracle_mobius(lat)
        for x in lat.elements:
            for y in lat.elements:
                assert lat.mobius(x, y) == mu[x, y]
    done("criterion 09 (Moebius roundtrip)", t0, cap=10.0)


def test_criterion_10_zero_normalization_split_and_positivity():
    t0 = perf_counter()
    rng = random.Random(6016)
    for covers in ([(2, 1), (3, 1)], []):
        n = 4 if covers else 3
        lat = sm.build_lattice(sm.poset_from_covers(n, covers))
        rays = sm.extreme_rays(lat)
        for _ in range(250):
            v = random_game(rng, lat)
            w, m = sm.zero_normalize(v)
            assert w + m == v
            assert sm.is_modular(m)
            what = sm.mobius_transform(w)
            for a in lat.join_irreducibles:
                assert what.value(a) == 0
                assert w.value(a) == w.value(lat.join_irreducible_predecessor(a))
        # sampled members of the cone of 0-normalized supermodular games
        for _ in range(40):
            g = random_conic(rng, rays)
            assert sm.is_monotone(g) and sm.is_nonnegative(g)
            w, _ = sm.zero_normalize(random_supermodular(rng, lat, rays))
            assert sm.is_monotone(w) and sm.is_nonnegative(w)
    done("criterion 10 (0-normalization)", t0, cap=10.0)


def test_criterion_11_core_recession_witnesses():
    t0 = perf_counter()
    non_flat = [
        hierarchy4(),
        sm.poset_from_covers(3, [(1, 2), (2, 3)]),
        sm.poset_from_covers(4, [(1, 2), (2, 3), (3, 4)]),
        sm.poset_from_covers(5, [(1, 3), (2, 3), (4, 5)]),
    ]
    for p in non_flat:
        lat = sm.build_lattice(p)
        y = sm.unboundedness_witness(lat)
        assert y is not None and any(y)
        assert sum(y) == 0
        assert all(sm.payoff(y, a) >= 0 for a in lat.elements)
    for n in (1, 3, 4):
        lat = sm.build_lattice(boolean(n))
        assert sm.unboundedness_witness(lat) is None
    done("criterion 11 (core recession witnesses)", t0, cap=1.0)


def test_criterion_12_facet_witnesses_on_boolean_lattices():
    # Non-redundancy of the facet description: each witness violates only its own facet.
    t0 = perf_counter()
    for n in (3, 4):
        lat = sm.build_lattice(boolean(n))
        triples = sm.facet_triples(lat)
        for t in triples:
            w = sm.facet_witness(lat, t, eps=Fraction(1))
            for s in triples:
                if s is t:
                    assert s.value(w) < 0
                else:
                    assert s.value(w) >= 0
    done("criterion 12 (facet witnesses)", t0, cap=30.0)


def test_criterion_13_face_comparison_mirrors_tight_structure():
    t0 = perf_counter()
    lat = sm.build_lattice(hierarchy4())
    rays = sm.extreme_rays(lat)
    v1 = game_from_table(lat, HIER4_GENERATORS[0])
    v2 = game_from_table(lat, HIER4_GENERATORS[1])
    assert sm.face_compare(v1, 2 * v1) == "equal"
    assert sm.face_compare(v1, v1 + v2) == "below"
    assert sm.face_compare(v1, v2) == "incomparable"
    for v in rays:
        for w in rays:
            same_tight = core_structure(v).tight == core_structure(w).tight
            same_pairs = equality_pairs(v) == equality_pairs(w)
            assert same_tight == same_pairs
            assert same_tight == (v == w)
    done("criterion 13 (face comparison)", t0, cap=10.0)


def test_criterion_14_reference_reproduction_passes(capsys):
    t0 = perf_counter()
    code = cli.main(["reproduce-paper", "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "14/14 checks passed" in out
    done("criterion 14 (reference reproduction)", t0, cap=120.0)
