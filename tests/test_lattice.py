import functools
import random
import re
import signal

import pytest

import supermod as sm
from conftest import (
    LADDER,
    brute_downsets,
    brute_linear_extensions,
    interval,
    lower_covers,
    oracle_addable,
    oracle_covering_steps,
    oracle_join_irreducibles,
    oracle_mobius,
    random_poset,
    upper_covers,
)
from supermod.lattice import _all_down_sets, _covering_steps


def players(mask):
    return sm.players_from_mask(mask)


def random_lattices(seed, count=25, max_n=5):
    rng = random.Random(seed)
    return [sm.build_lattice(random_poset(rng, rng.randint(1, max_n))) for _ in range(count)]


def test_hierarchy_elements_match_brute_force(hier4):
    p = hier4.poset
    assert list(hier4.elements) == brute_downsets(p)
    assert len(hier4.elements) == 10
    assert [players(a) for a in hier4.elements] == [
        [],
        [2],
        [3],
        [4],
        [2, 3],
        [2, 4],
        [3, 4],
        [1, 2, 3],
        [2, 3, 4],
        [1, 2, 3, 4],
    ]


def test_canonical_element_order(hier4, flat4, mixed5, wedge_chain5):
    for lat in (hier4, flat4, mixed5, wedge_chain5):
        keys = [(a.bit_count(), a) for a in lat.elements]
        assert keys == sorted(keys)
        assert lat.elements[0] == 0
        assert lat.elements[-1] == lat.top


def test_flat_lattice_is_the_power_set(flat4):
    assert len(flat4.elements) == 16
    assert sorted(flat4.elements) == list(range(16))


def test_join_irreducibles(hier4):
    assert [players(a) for a in hier4.join_irreducibles] == [
        [2],
        [3],
        [4],
        [1, 2, 3],
    ]
    # unique lower cover: drop the top player of the principal down-set
    pred = {
        tuple(players(a)): players(hier4.join_irreducible_predecessor(a))
        for a in hier4.join_irreducibles
    }
    assert pred == {(2,): [], (3,): [], (4,): [], (1, 2, 3): [2, 3]}
    with pytest.raises(ValueError):
        hier4.join_irreducible_predecessor(sm.mask_from_players([2, 3], 4))
    # a hand-built table whose principal down-sets coincide (a 2-cycle, or
    # a player missing from its own down-set) is refused by the build
    for down in [(3, 3), (1, 1)]:
        with pytest.raises(RuntimeError, match="^principal down-sets are not pairwise distinct$"):
            sm.DownSetLattice(sm.Poset(2, down))


def test_principal_down_set_map_is_an_order_isomorphism(hier4, chain4, mixed5, wedge_chain5):
    for lat in (hier4, chain4, mixed5, wedge_chain5):
        p = lat.poset
        assert len(lat.join_irreducibles) == p.n
        for i in range(1, p.n + 1):
            for j in range(1, p.n + 1):
                di, dj = p.principal_down_set(i), p.principal_down_set(j)
                assert p.leq(i, j) == (di & ~dj == 0)


def birkhoff_map(lat, a):
    """The join-irreducible elements below a, canonically ordered."""
    return tuple(j for j in lat.join_irreducibles if not j & ~a)


def test_birkhoff_map(hier4):
    n = hier4.poset.n
    m = sm.mask_from_players
    assert birkhoff_map(hier4, m([2, 3, 4], n)) == (m([2], n), m([3], n), m([4], n))
    assert birkhoff_map(hier4, hier4.top) == hier4.join_irreducibles
    assert birkhoff_map(hier4, m([1, 2, 3], n)) == (m([2], n), m([3], n), m([1, 2, 3], n))


def test_birkhoff_map_is_injective_and_preserves_meets_joins(hier4, flat3):
    for lat in (hier4, flat3, *random_lattices(3559)):
        images = {a: set(birkhoff_map(lat, a)) for a in lat.elements}
        seen = set()
        for a, img in images.items():
            # every element is the union of the join-irreducibles below it
            assert functools.reduce(int.__or__, img, 0) == a
            key = frozenset(img)
            assert key not in seen
            seen.add(key)
        for a in lat.elements:
            for b in lat.elements:
                assert images[a | b] == images[a] | images[b]
                assert images[a & b] == images[a] & images[b]


def test_union_intersection_stay_in_lattice(hier4, mixed5, wedge_chain5):
    for lat in (hier4, mixed5, wedge_chain5):
        for a in lat.elements:
            for b in lat.elements:
                assert a | b in lat
                assert a & b in lat


def test_interval_and_boolean_intervals(hier4):
    # mobius is nonzero exactly on the Boolean intervals
    n = 4
    m = sm.mask_from_players
    empty = 0
    assert hier4.mobius(empty, m([2, 3], n)) == 1
    assert hier4.mobius(empty, m([1, 2, 3], n)) == 0
    assert len(interval(hier4, empty, m([1, 2, 3], n))) == 5  # not 2^3
    with pytest.raises(ValueError, match="not a down-set"):
        hier4.mobius(empty, m([1], n))  # {1} is not a down-set
    with pytest.raises(ValueError, match="not a down-set"):
        hier4.mobius(m([1], n), hier4.top)


def test_boolean_interval_matches_incomparability_of_added_players(hier4, chain3):
    # [a, b] is Boolean exactly when the players of b minus a are pairwise
    # incomparable in the underlying order
    for lat in (hier4, chain3, *random_lattices(3571)):
        p = lat.poset
        for a in lat.elements:
            for b in lat.elements:
                if a & ~b:
                    continue
                added = players(b & ~a)
                expected = all(
                    not p.comparable(i, j)
                    for k, i in enumerate(added)
                    for j in added[k + 1 :]
                )
                assert (lat.mobius(a, b) != 0) == expected


def test_mobius_examples(hier4):
    n = 4
    m = sm.mask_from_players
    assert hier4.mobius(0, m([2, 3], n)) == 1
    assert hier4.mobius(0, m([1, 2, 3], n)) == 0
    assert hier4.mobius(0, m([2], n)) == -1
    for a in hier4.elements:
        assert hier4.mobius(a, a) == 1
    # not below: zero by definition
    assert hier4.mobius(m([2], n), m([3, 4], n)) == 0


def test_mobius_fast_path_equals_recursion(hier4, flat3):
    for lat in (hier4, flat3, *random_lattices(3581)):
        mu = oracle_mobius(lat)
        for x in lat.elements:
            for y in lat.elements:
                assert lat.mobius(x, y) == mu[x, y]


def test_mobius_row_sums_vanish(hier4, flat3, chain4):
    # summing mu(x, b) over the interval [x, y] gives zero whenever x < y
    for lat in (hier4, flat3, chain4):
        for x in lat.elements:
            for y in lat.elements:
                if x == y or x & ~y:
                    continue
                total = sum(lat.mobius(x, b) for b in interval(lat, x, y))
                assert total == 0


def test_maximal_chains_hierarchy(hier4):
    chains = hier4.maximal_chains()
    assert len(chains) == 8
    perms = [c.perm for c in chains]
    assert perms == [
        (2, 3, 1, 4),
        (2, 3, 4, 1),
        (2, 4, 3, 1),
        (3, 2, 1, 4),
        (3, 2, 4, 1),
        (3, 4, 2, 1),
        (4, 2, 3, 1),
        (4, 3, 2, 1),
    ]
    assert perms == sorted(perms)
    assert perms == brute_linear_extensions(hier4.poset)


def test_chain_counts_match_linear_extensions(flat3, chain4, mixed5, wedge_chain5):
    # the same permutations in the same order, on four fixed posets and on
    # 40 seeded random ones
    rng = random.Random(5521)
    lattices = [flat3, chain4, mixed5, wedge_chain5]
    lattices += [sm.build_lattice(random_poset(rng, rng.randint(1, 6))) for _ in range(40)]
    for lat in lattices:
        perms = [c.perm for c in lat.maximal_chains()]
        assert perms == brute_linear_extensions(lat.poset)


def test_chain_structure(hier4):
    for c in hier4.maximal_chains():
        assert len(c.sets) == hier4.poset.n + 1
        assert c.sets[0] == 0 and c.sets[-1] == hier4.top
        for step, player in enumerate(c.perm, start=1):
            assert c.sets[step] == c.sets[step - 1] | (1 << (player - 1))
            assert c.sets[step] in hier4
        assert sorted(c.perm) == [1, 2, 3, 4]


def test_chain_from_perm(hier4, flat3):
    chains = hier4.maximal_chains()
    for c in chains:
        assert hier4.chain_from_perm(c.perm) == c
    with pytest.raises(ValueError):
        hier4.chain_from_perm((1, 2, 3, 4))  # player 1 needs 2 and 3 first
    with pytest.raises(ValueError):
        hier4.chain_from_perm((2, 3, 1))
    with pytest.raises(ValueError):
        hier4.chain_from_perm((2, 2, 3, 4))
    # every entry must be a plain int: a bool or a float is no player
    for perm in [(True, 2, 3), (1.0, 2, 3)]:
        with pytest.raises(ValueError, match=r"is not a permutation of 1\.\.3"):
            flat3.chain_from_perm(perm)


def test_single_player_chain(single1):
    chains = single1.maximal_chains()
    assert len(chains) == 1
    assert chains[0].sets == (0, 1)
    assert chains[0].perm == (1,)


def test_size_caps():
    p = sm.poset_from_covers(4, [(2, 1), (3, 1)])
    with pytest.raises(sm.SizeError):
        sm.build_lattice(p, max_elements=5)
    flat = sm.build_lattice(sm.poset_from_covers(4, []))
    with pytest.raises(sm.SizeError):
        flat.maximal_chains(max_chains=10)
    assert len(flat.maximal_chains(max_chains=24)) == 24


def test_the_build_refuses_an_element_the_down_set_test_rejects(monkeypatch):
    # the doubling reads strict_down_set and the guard principal_down_set:
    # hiding the players below 1 from the doubling makes it yield {1}, {1,2},
    # {1,3} and {1,2,3}, which are not down-sets, and the guard refuses them
    p = sm.poset_from_covers(4, [(2, 1), (3, 1)])
    strict = sm.Poset.strict_down_set
    monkeypatch.setattr(
        sm.Poset, "strict_down_set", lambda self, i: 0 if i == 1 else strict(self, i)
    )
    with pytest.raises(RuntimeError, match="non-down-set"):
        sm.build_lattice(p)
    monkeypatch.undo()
    lat = sm.build_lattice(p)
    assert sm.mask_from_players([1], 4) not in lat
    assert sm.mask_from_players([1, 2, 3], 4) in lat
    # the player-major guard accepts exactly the masks the poset's
    # is_down_set accepts, one mask at a time
    rng = random.Random(25)
    for q in [p] + [random_poset(rng, rng.randint(1, 7)) for _ in range(20)]:
        for mask in range(1 << q.n):
            assert _all_down_sets(q, [mask]) == q.is_down_set(mask), (q, mask)
    assert not _all_down_sets(p, [0, 1 << 4]) and not _all_down_sets(p, [0, -1])


def assert_lattice_matches_the_oracles(p, lat):
    assert list(lat.elements) == brute_downsets(p)
    assert lat.index == {a: k for k, a in enumerate(lat.elements)}
    assert lat._addable == tuple(oracle_addable(p, a) for a in lat.elements)
    assert list(lat.join_irreducibles) == oracle_join_irreducibles(p)


def test_the_doubling_build_matches_the_oracles_on_random_posets():
    rng = random.Random(2311)
    sizes = set()
    for _ in range(80):
        p = random_poset(rng, rng.randint(1, 9))
        lat = sm.build_lattice(p)
        assert_lattice_matches_the_oracles(p, lat)
        sizes.add(p.n)
    assert sizes == set(range(1, 10))


def test_the_doubling_build_on_chains_and_a_forest():
    # a 30-player chain: each down-set but the top adds exactly its next player
    chain = sm.poset_from_covers(30, [(i, i + 1) for i in range(1, 30)])
    lat = sm.build_lattice(chain)
    assert lat.elements == tuple((1 << k) - 1 for k in range(31))
    assert lat._addable == tuple(1 << k for k in range(30)) + (0,)
    assert lat.join_irreducibles == lat.elements[1:]
    # two 8-chains, 1 < ... < 8 and 9 < ... < 16: 9 x 9 down-sets
    two = sm.poset_from_covers(16, [(i, i + 1) for i in (*range(1, 8), *range(9, 16))])
    lat = sm.build_lattice(two)
    assert len(lat) == 81
    expected = {
        (1 << x) - 1 | ((1 << y) - 1) << 8: (1 << x if x < 8 else 0) | (1 << 8 + y if y < 8 else 0)
        for x in range(9)
        for y in range(9)
    }
    assert dict(zip(lat.elements, lat._addable)) == expected
    assert lat.elements == tuple(sorted(expected, key=lambda m: (m.bit_count(), m)))
    # the benchmark's forest10
    forest = sm.poset_from_covers(10, [(2, 1), (3, 1), (5, 4), (6, 4), (8, 7)])
    lat = sm.build_lattice(forest)
    assert len(lat) == 300
    assert_lattice_matches_the_oracles(forest, lat)


@pytest.mark.parametrize("name", ["hier4", "flat4", "one-rel5", "chain5"])
def test_the_cap_refuses_exactly_the_lattices_above_it(name):
    # every cap from 0 to L: the doubling steps of flat4 end at 1, 2, 4, 8
    # and 16 elements, so caps such as 11 fall inside a step
    n, covers = {**LADDER, "chain5": (5, [(1, 2), (2, 3), (3, 4), (4, 5)])}[name]
    p = sm.poset_from_covers(n, covers)
    size = len(brute_downsets(p))
    for cap in range(size + 1):
        if cap < size:
            with pytest.raises(sm.SizeError) as info:
                sm.build_lattice(p, max_elements=cap)
            # the error names the count the build reached, past the cap
            # and at most L
            count = int(re.match(r"lattice holds at least (\d+) elements,", str(info.value))[1])
            assert cap < count <= size
            assert str(info.value) == (
                f"lattice holds at least {count} elements, over the cap of {cap} elements;"
                " raise it with --max-lattice or max_elements"
            )
        else:
            assert len(sm.build_lattice(p, max_elements=cap)) == size


def test_lattice_type_equality_and_repr(hier4):
    with pytest.raises(TypeError, match="^poset required$"):
        sm.DownSetLattice(4)
    assert hier4 == sm.build_lattice(sm.poset_from_covers(4, [(2, 1), (3, 1)]))
    assert hier4.__eq__(hier4.poset) is NotImplemented and hier4 != hier4.poset
    assert repr(hier4) == "DownSetLattice(n=4, size=10)"


def test_position_and_membership(hier4):
    n = 4
    m = sm.mask_from_players
    assert hier4.position(0) == 0
    assert hier4.position(hier4.top) == 9
    assert m([1, 2], n) not in hier4
    with pytest.raises(ValueError):
        hier4.position(m([1, 2], n))


def test_negative_masks_are_refused(hier4):
    # -mask & mask never clears the sign bit, so players_from_mask, which
    # spells the error of each lookup below, must refuse a negative mask
    # rather than loop; the alarm turns such a loop into a failure
    def hang(signum, frame):
        raise AssertionError("a negative mask looped")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="coalition mask -1 is negative"):
            sm.players_from_mask(-1)
        for lookup, mask in (
            (hier4.position, -1),
            (sm.Game(hier4, [0] * len(hier4)).value, -1),
            (lambda a: sm.unanimity(hier4, a), -2),
            (hier4.addable_mask, -3),
            (hier4.join_irreducible_predecessor, -1),
        ):
            with pytest.raises(ValueError, match=f"coalition mask {mask} is negative"):
                lookup(mask)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_addable_masks_match_brute_force_on_random_posets():
    rng = random.Random(6007)
    refused = 0
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 6))
        lat = sm.build_lattice(p)
        for a in lat.elements:
            assert lat.addable_mask(a) == oracle_addable(p, a)
        for mask in range(1 << p.n):
            if mask not in lat:
                refused += 1
                with pytest.raises(ValueError):
                    lat.addable_mask(mask)
    assert refused


def test_covering_steps_match_the_oracle():
    # the ladder, then 40 random posets
    rng = random.Random(3407)
    posets = [sm.poset_from_covers(n, covers) for n, covers in LADDER.values()]
    posets += [random_poset(rng, rng.randint(1, 7)) for _ in range(40)]
    for p in posets:
        assert _covering_steps(sm.build_lattice(p)) == oracle_covering_steps(p)


def test_upper_and_lower_covers(hier4):
    n = 4
    m = sm.mask_from_players
    assert sorted(upper_covers(hier4, 0)) == sorted([m([2], n), m([3], n), m([4], n)])
    assert sorted(upper_covers(hier4, m([2, 3], n))) == sorted(
        [m([1, 2, 3], n), m([2, 3, 4], n)]
    )
    assert sorted(lower_covers(hier4, m([1, 2, 3], n))) == [m([2, 3], n)]
    assert sorted(lower_covers(hier4, m([2, 3, 4], n))) == sorted(
        [m([2, 3], n), m([2, 4], n), m([3, 4], n)]
    )



def _sets_of(perm):
    sets = [0]
    for p in perm:
        sets.append(sets[-1] | 1 << (p - 1))
    return tuple(sets)


def test_maximal_chains_of_deep_lattices(chain1200):
    # the walk nests no call per player: a 1,200-player chain has its one
    # chain, and a 1,000-player chain plus one free player has the 1,001
    # chains that insert the free player at each place, in lexicographic
    # order (the later the free player, the smaller the permutation)
    perm = tuple(range(1, 1201))
    assert chain1200.maximal_chains() == (sm.MaximalChain(_sets_of(perm), perm),)
    lat = sm.build_lattice(sm.poset_from_covers(1001, [(i, i + 1) for i in range(1, 1000)]))
    chain = list(range(1, 1001))
    perms = [tuple(chain[:k] + [1001] + chain[k:]) for k in range(1000, -1, -1)]
    assert perms == sorted(perms)
    want = tuple(sm.MaximalChain(_sets_of(p), p) for p in perms)
    assert lat.maximal_chains(max_chains=1001) == want
    with pytest.raises(sm.SizeError, match="the lattice has 1001"):
        lat.maximal_chains(max_chains=1000)
