import random
from time import perf_counter

import pytest

import supermod as sm
from supermod.poset import _automorphisms

from conftest import (
    LADDER,
    brute_downsets,
    oracle_automorphisms,
    oracle_covers,
    oracle_order,
    random_poset,
)


def test_mask_player_convention():
    assert sm.mask_from_players([2, 4], 4) == 0b1010
    assert sm.mask_from_players([], 4) == 0
    assert sm.players_from_mask(0b1010) == [2, 4]
    assert sm.players_from_mask(0) == []
    with pytest.raises(IndexError):
        sm.mask_from_players([5], 4)
    with pytest.raises(IndexError):
        sm.mask_from_players([0], 4)


def test_hierarchy_closure():
    p = sm.poset_from_covers(4, [(2, 1), (3, 1)])
    assert p.leq(2, 1) and p.leq(3, 1)
    assert not p.leq(1, 2) and not p.leq(4, 1)
    assert all(p.leq(i, i) for i in range(1, 5))
    assert p.comparable(2, 1) and not p.comparable(2, 3)
    assert p.principal_down_set(1) == sm.mask_from_players([1, 2, 3], 4)
    assert p.strict_down_set(1) == sm.mask_from_players([2, 3], 4)
    assert p.principal_down_set(4) == sm.mask_from_players([4], 4)
    assert p.strict_down_set(4) == 0
    for i, j in ((0, 1), (1, 5)):
        with pytest.raises(IndexError, match=r"^player \d out of range 1\.\.4$"):
            p.leq(i, j)


def test_transitivity_of_closure():
    p = sm.poset_from_covers(3, [(1, 2), (2, 3)])
    assert p.leq(1, 3)
    assert p.principal_down_set(3) == 0b111


def test_flat_poset_everything_is_a_down_set():
    p = sm.poset_from_covers(4, [])
    assert all(p.is_down_set(s) for s in range(1 << 4))
    assert not any(p.leq(i, j) for i in range(1, 5) for j in range(1, 5) if i != j)


def test_cycles_rejected():
    with pytest.raises(sm.CycleError):
        sm.poset_from_covers(2, [(1, 2), (2, 1)])
    with pytest.raises(sm.CycleError):
        sm.poset_from_covers(2, [(1, 1)])
    # the message names the first pair related both ways, in the order of
    # (lower-numbered player, higher-numbered player), the higher one first
    for n, covers, pair in (
        (3, [(1, 2), (2, 3), (3, 1)], "2 and 1"),
        (4, [(2, 4), (4, 2)], "4 and 2"),
    ):
        with pytest.raises(sm.CycleError) as exc:
            sm.poset_from_covers(n, covers)
        assert str(exc.value) == f"players {pair} lie below each other"


def test_a_flat_poset_closes_in_time_linear_in_its_players():
    # the closure skips players with nothing below them and reads only the
    # related pairs, so 20,000 players with no relation close at once
    t0 = perf_counter()
    p = sm.poset_from_covers(20_000, [])
    assert perf_counter() - t0 < 1.0
    assert p.strict_down_set(20_000) == 0 and p.covers() == []


def test_out_of_range_players_rejected():
    with pytest.raises(IndexError):
        sm.poset_from_covers(3, [(0, 1)])
    with pytest.raises(IndexError):
        sm.poset_from_covers(3, [(1, 4)])
    with pytest.raises(ValueError):
        sm.poset_from_covers(0, [])


def test_is_down_set_examples():
    p = sm.poset_from_covers(4, [(2, 1), (3, 1)])
    assert p.is_down_set(sm.mask_from_players([1, 2, 3], 4))
    assert not p.is_down_set(sm.mask_from_players([1, 2], 4))
    assert p.is_down_set(0)
    assert p.is_down_set(0b1111)
    for mask in (-1, 1 << 4):
        with pytest.raises(ValueError, match=f"^coalition mask {mask} does not fit 4 players$"):
            p.is_down_set(mask)


def test_principal_down_sets_are_down_sets():
    for p in (
        sm.poset_from_covers(4, [(2, 1), (3, 1)]),
        sm.poset_from_covers(3, [(1, 2), (2, 3)]),
        sm.poset_from_covers(5, [(1, 3), (2, 3), (4, 5)]),
    ):
        for i in range(1, p.n + 1):
            assert p.is_down_set(p.principal_down_set(i))
            assert p.is_down_set(p.strict_down_set(i))


def test_down_sets_closed_under_union_and_intersection():
    p = sm.poset_from_covers(4, [(2, 1), (3, 1)])
    downs = brute_downsets(p)
    for a in downs:
        for b in downs:
            assert p.is_down_set(a | b)
            assert p.is_down_set(a & b)


def test_covers_roundtrip_on_reduced_input():
    covers = [(2, 1), (3, 1)]
    p = sm.poset_from_covers(4, covers)
    assert p.covers() == sorted(covers)
    chain = [(1, 2), (2, 3), (3, 4)]
    q = sm.poset_from_covers(4, chain)
    assert q.covers() == chain
    # a transitive consequence in the input disappears from the reduction
    r = sm.poset_from_covers(3, [(1, 2), (2, 3), (1, 3)])
    assert r.covers() == [(1, 2), (2, 3)]


def test_dict_roundtrip():
    p = sm.poset_from_covers(4, [(2, 1), (3, 1)])
    d = sm.poset_to_dict(p)
    assert d == {"n": 4, "covers": [[2, 1], [3, 1]]}
    assert sm.poset_from_dict(d) == p
    # tuples are accepted as well as lists
    assert sm.poset_from_dict({"n": 2, "covers": ((1, 2),)}) == sm.poset_from_covers(2, [(1, 2)])
    for data in (
        {"covers": []},
        5,
        [3],
        {"n": [3]},
        {"n": 3.5},
        {"n": True},
        {"n": "4"},
        {"n": 3, "covers": [1]},
        {"n": 3, "covers": [[1, 2, 3]]},
        {"n": 3, "covers": 7},
        {"n": 3, "covers": "12"},
    ):
        with pytest.raises(ValueError):
            sm.poset_from_dict(data)
    with pytest.raises(IndexError):
        sm.poset_from_dict({"n": 3, "covers": [[True, 2]]})


def test_closure_matches_reachability_on_random_cover_lists():
    # numbered against the order, with repeated and transitively implied
    # covers, and now and then a back edge that may close a cycle
    rng = random.Random(7321)
    outcomes = {"acyclic": 0, "cyclic": 0}
    for _ in range(400):
        n = rng.randint(1, 8)
        label = rng.sample(range(1, n + 1), n)
        covers = [
            (label[x], label[y])
            for x in range(n)
            for y in range(x + 1, n)
            if rng.random() < 0.3
        ]
        covers += [(a, d) for a, b in covers for c, d in covers if b == c and rng.random() < 0.5]
        covers += rng.sample(covers, len(covers) // 3)
        if n > 1 and rng.random() < 0.3:
            x, y = sorted(rng.sample(range(n), 2))
            covers.append((label[y], label[x]))
        rng.shuffle(covers)
        try:
            expected = oracle_order(n, covers)
        except sm.CycleError:
            with pytest.raises(sm.CycleError):
                sm.poset_from_covers(n, covers)
            outcomes["cyclic"] += 1
            continue
        p = sm.poset_from_covers(n, covers)
        got = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if p.leq(i, j)}
        assert got == expected, (n, covers)
        outcomes["acyclic"] += 1
    assert min(outcomes.values()) >= 30, outcomes


def test_poset_equality_and_repr():
    p = sm.poset_from_covers(2, [(1, 2)])
    q = sm.poset_from_covers(2, [(1, 2)])
    assert p == q and hash(p) == hash(q)
    assert "covers" in repr(p)
    assert p.__eq__("poset") is NotImplemented and p != "poset"


def test_covers_match_the_definition_on_random_posets():
    rng = random.Random(4409)
    sizes = set()
    for _ in range(300):
        p = random_poset(rng, rng.randint(1, 9))
        covers = p.covers()
        assert covers == oracle_covers(p)
        assert sm.poset_from_covers(p.n, covers) == p
        sizes.add(len(covers))
    assert 0 in sizes and max(sizes) >= 8


def test_automorphisms_match_the_permutation_oracle(chain3, chain4, dd_random_lattices):
    # every order-preserving permutation, in lexicographic order, as all n!
    # permutations filtered by leq give them: on the ladder (group orders 2,
    # 24, 4 and 6), on two chains (the identity alone) and on the 40 random
    # lattices of the double-description tests
    ladder = {name: sm.poset_from_covers(n, covers) for name, (n, covers) in LADDER.items()}
    orders = {name: len(_automorphisms(p)) for name, p in ladder.items()}
    assert orders == {"hier4": 2, "flat4": 24, "mixed5": 4, "one-rel5": 6}
    for lat in (chain3, chain4):
        assert _automorphisms(lat.poset) == [tuple(range(1, lat.poset.n + 1))]
    posets = [*ladder.values(), chain3.poset, chain4.poset]
    posets += [lat.poset for lat, *_ in dd_random_lattices]
    for p in posets:
        assert _automorphisms(p) == oracle_automorphisms(p)
