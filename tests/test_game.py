import argparse
import json
import random
from fractions import Fraction
from math import gcd

import pytest

import supermod as sm
from supermod import cli, game
from supermod.game import _scaled_values

from conftest import (
    HIER4_GENERATORS,
    game_from_table,
    oracle_mobius,
    oracle_mobius_inverse,
    oracle_mobius_transform,
    oracle_modular_part,
    oracle_modular,
    oracle_monotone,
    oracle_rank,
    oracle_supermodular,
    random_fraction,
    random_game,
    random_modular,
    random_poset,
)


def test_game_construction(hier4):
    g = sm.Game.from_values(hier4, {hier4.top: Fraction(3, 2)})
    assert g.value(hier4.top) == Fraction(3, 2)
    assert g.value(0) == 0
    assert g[sm.mask_from_players([2, 4], 4)] == 0
    assert g.to_mapping() == {hier4.top: Fraction(3, 2)}
    with pytest.raises(ValueError):
        sm.Game(hier4, [1] * len(hier4.elements))  # nonzero at the bottom
    with pytest.raises(ValueError):
        sm.Game(hier4, [0, 1])  # wrong length
    with pytest.raises(TypeError, match="^lattice required$"):
        sm.Game(hier4.poset, [0] * len(hier4.elements))  # a poset, not its lattice
    with pytest.raises(ValueError):
        sm.Game.from_values(hier4, {sm.mask_from_players([1, 2], 4): 1})
    # values are stored as integers over one denominator and read back as
    # plain Fractions, a subclass's too; a float, even inside a subclass,
    # is refused
    half = Fraction(1, 2)
    got = sm.Game.from_values(hier4, {hier4.top: half}).value(hier4.top)
    assert got == half and type(got) is Fraction

    class Ratio(Fraction):
        pass

    class Real(float):
        pass

    g = sm.Game.from_values(hier4, {hier4.top: Ratio(3, 2), sm.mask_from_players([2], 4): 1})
    assert g.value(hier4.top) == Fraction(3, 2)
    assert all(type(x) is Fraction for x in g.values)
    with pytest.raises(TypeError, match="float"):
        sm.Game.from_values(hier4, {hier4.top: Real(1.5)})


def test_game_algebra(hier4, flat4):
    a = sm.Game.from_values(hier4, {hier4.top: 2})
    b = sm.Game.from_values(hier4, {hier4.top: 1, sm.mask_from_players([2], 4): 1})
    assert (a + b).value(hier4.top) == 3
    assert (a - b).value(hier4.top) == 1
    assert (-a).value(hier4.top) == -2
    assert (3 * a).value(hier4.top) == 6
    assert (a * Fraction(1, 2)).value(hier4.top) == 1
    assert a != b and a == sm.Game.from_values(hier4, {hier4.top: 2})
    assert a.__eq__(2) is NotImplemented and a != 2
    assert repr(b) == "Game({[2]: 1, [1, 2, 3, 4]: 1})"
    assert repr(a * Fraction(3, 4)) == "Game({[1, 2, 3, 4]: 3/2})"
    assert repr(sm.zero_game(hier4)) == "Game({})"
    other = sm.Game.from_values(flat4, {flat4.top: 2})
    with pytest.raises(sm.LatticeMismatchError):
        a + other


def test_floats_are_refused():
    # 0.1 is stored as 3602879701896397/36028797018963968, so a float game
    # would silently stop being modular; exact values and scalars still work
    flat2 = sm.build_lattice(sm.poset_from_covers(2, []))
    exact = sm.Game(flat2, [0, Fraction(1, 10), Fraction(2, 10), Fraction(3, 10)])
    assert sm.is_modular(exact)
    assert sm.is_modular(sm.Game(flat2, [0, 1, 2, 3]) * Fraction(1, 10))
    # one rule refuses them all, each message naming what was refused
    def refused(what):
        return pytest.raises(TypeError, match=rf"^{what} must be exact \(int or Fraction\), not float$")

    with refused("game values"):
        sm.Game(flat2, [0, 0.1, 0.2, 0.3])
    with refused("game values"):
        sm.Game.from_values(flat2, {flat2.top: 0.5})
    with refused("a game scalar"):
        exact * 0.1
    with refused("a game scalar"):
        0.1 * exact
    with refused("targets"):
        sm.modular_from_irreducibles(flat2, {1: 0.1, 2: 0.2})
    assert sm.modular_from_irreducibles(flat2, {1: Fraction(1, 10), 2: Fraction(2, 10)}) == exact


def test_unanimity_games(hier4):
    n = 4
    m = sm.mask_from_players
    top_only = sm.unanimity(hier4, hier4.top)
    assert top_only.to_mapping() == {hier4.top: 1}
    u24 = sm.unanimity(hier4, m([2, 4], n))
    assert sorted(u24.to_mapping()) == sorted(
        [m([2, 4], n), m([2, 3, 4], n), hier4.top]
    )
    # {2} sits inside six of the ten down-sets
    u2 = sm.unanimity(hier4, m([2], n))
    assert len(u2.to_mapping()) == 6
    with pytest.raises(sm.EmptyCoalitionError):
        sm.unanimity(hier4, 0)
    with pytest.raises(ValueError):
        sm.unanimity(hier4, m([1, 2], n))


def test_mobius_transform_of_unanimity_is_an_indicator(hier4, flat3):
    for lat in (hier4, flat3):
        for a in lat.elements[1:]:
            t = sm.mobius_transform(sm.unanimity(lat, a))
            assert t.to_mapping() == {a: 1}


def test_mobius_transform_zero_game(hier4):
    assert sm.mobius_transform(sm.zero_game(hier4)).is_zero()


def test_mobius_transform_detailed_generator(hier4):
    v1 = game_from_table(hier4, HIER4_GENERATORS[0])
    t_fast = sm.mobius_transform(v1)
    t_rec = oracle_mobius_transform(v1)
    assert t_fast == t_rec
    assert t_fast.to_mapping() == {sm.mask_from_players([2, 4], 4): 1}
    assert sm.mobius_inverse(t_fast) == v1


def test_mobius_roundtrip_random(hier4, flat3):
    rng = random.Random(9041)
    for lat in (hier4, flat3):
        mu = oracle_mobius(lat)
        for _ in range(60):
            v = random_game(rng, lat)
            vhat = sm.mobius_transform(v)
            assert sm.mobius_inverse(vhat) == v
            assert oracle_mobius_transform(v, mu) == vhat


def test_mobius_transform_matches_the_recursion_on_random_posets():
    # the inverse zeta pass against sum mu(c, b) v(c) with mu from the
    # defining recursion, on posets with and without relations
    rng = random.Random(6607)
    for _ in range(30):
        lat = sm.build_lattice(random_poset(rng, rng.randint(1, 6)))
        mu = oracle_mobius(lat)
        for _ in range(2):
            v = random_game(rng, lat)
            assert sm.mobius_transform(v) == oracle_mobius_transform(v, mu)


def _zeta_test_posets():
    """Chains, hierarchies and seeded random posets with relations, n <= 6:
    the orders on which the zeta passes must visit each player before the
    players below it."""
    posets = [sm.poset_from_covers(n, [(i, i + 1) for i in range(1, n)]) for n in (2, 3, 4, 6)]
    posets += [
        sm.poset_from_covers(4, [(2, 1), (3, 1)]),
        sm.poset_from_covers(6, [(2, 1), (3, 1)]),
        sm.poset_from_covers(6, [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3)]),
        sm.poset_from_covers(6, [(1, 4), (2, 4), (3, 5), (4, 6), (5, 6)]),
        sm.poset_from_covers(5, [(1, 3), (2, 3), (4, 5)]),
    ]
    rng = random.Random(4409)
    while len(posets) < 40:
        p = random_poset(rng, rng.randint(2, 6))
        if p.covers():
            posets.append(p)
    return posets


def _huge_fraction(rng):
    """A numerator near 10**30 over a denominator in 2..13, so one game mixes
    coprime denominators whose common one reaches 360360."""
    return Fraction(rng.choice((-1, 1)) * (10**30 + rng.randint(0, 10**6)), rng.randint(2, 13))


def _exact_games(*games):
    """The games, after checking every value is a plain Fraction."""
    for g in games:
        assert all(type(x) is Fraction for x in g.values)
    return games


def test_zeta_passes_match_the_pair_oracles_on_posets_with_relations():
    # the zeta passes run on integers over a common denominator: small
    # integer games and games of huge numerators over coprime denominators
    rng = random.Random(2251)
    for p in _zeta_test_posets():
        lat = sm.build_lattice(p)
        mu = oracle_mobius(lat)
        huge = sm.Game(lat, [0] + [_huge_fraction(rng) for _ in lat.elements[1:]])
        for v in (random_game(rng, lat), random_game(rng, lat), huge):
            vhat, = _exact_games(sm.mobius_transform(v))
            assert vhat == oracle_mobius_transform(v, mu)
            assert _exact_games(sm.mobius_inverse(vhat)) == (v,)
            assert _exact_games(sm.mobius_inverse(v)) == (oracle_mobius_inverse(v),)
            w, m = _exact_games(*sm.zero_normalize(v))
            assert m == oracle_modular_part(v)
            assert w + m == v
        # a modular game is the additive extension of per-player weights
        for draw in (lambda: rng.randint(-5, 5), lambda: _huge_fraction(rng)):
            weight = {i: draw() for i in range(1, p.n + 1)}
            m = sm.Game(lat, [
                sum((weight[i] for i in sm.players_from_mask(a)), Fraction(0))
                for a in lat.elements
            ])
            targets = {i: m.value(p.principal_down_set(i)) for i in weight}
            assert _exact_games(sm.modular_from_irreducibles(lat, targets)) == (m,)


def test_supermodular_predicates(hier4, flat4, hier4_games):
    for lat in (hier4, flat4):
        for a in lat.elements[1:]:
            assert sm.is_supermodular(sm.unanimity(lat, a))
    for g in hier4_games:
        assert sm.is_supermodular(g)
        w, m = sm.zero_normalize(g)
        assert m.is_zero() and w == g  # the generators are 0-normalized
    bad = sm.Game.from_values(hier4, {sm.mask_from_players([2], 4): 1})
    assert not sm.is_supermodular(bad)


def test_cardinality_game_is_modular(hier4, flat4, chain4):
    for lat in (hier4, flat4, chain4):
        card = sm.Game(lat, [a.bit_count() for a in lat.elements])
        assert sm.is_modular(card)
        assert sm.is_supermodular(card)
        assert sm.is_monotone(card)
        assert sm.is_nonnegative(card)


def test_modular_iff_both_directions_supermodular(hier4):
    rng = random.Random(5117)
    for _ in range(40):
        v = random_game(rng, hier4, -3, 3)
        assert sm.is_modular(v) == (sm.is_supermodular(v) and sm.is_supermodular(-v))


def test_supermodular_matches_independent_oracle(hier4, flat3):
    rng = random.Random(6211)
    for lat in (hier4, flat3):
        for _ in range(60):
            v = random_game(rng, lat, -2, 2)
            assert sm.is_supermodular(v) == oracle_supermodular(v)


def test_reduced_supermodularity_check_agrees(hier4, flat4):
    # the covering-square check against the all-pairs scan
    rng = random.Random(7331)
    for lat in (hier4, flat4):
        for _ in range(60):
            v = random_game(rng, lat, -2, 2)
            assert sm.is_supermodular(v) == oracle_supermodular(v)


def varied_games(rng, lat):
    """Games that fall on both sides of the supermodular, modular and
    monotone predicates: a nonnegative unanimity combination plus a
    nonnegative modular game, the same game with one value moved by 1, a
    modular game with mixed signs and a random game.  When the lattice has
    a covering square, two rational games follow: a modular game with
    denominators 2, 3 and 4 plus 1/12 times the unanimity game of the
    square's top, which has slack exactly 1/12 on that square, and the same
    modular game minus it, at -1/12 there."""
    base = random_modular(rng, lat, 0, 2)
    for a in rng.sample(lat.elements[1:], min(3, len(lat.elements) - 1)):
        base = base + rng.randint(0, 2) * sm.unanimity(lat, a)
    bump = [0] * len(lat.elements)
    bump[rng.randrange(1, len(lat.elements))] = rng.choice((-1, 1))
    games = [base, base + sm.Game(lat, bump), random_modular(rng, lat), random_game(rng, lat, -2, 2)]
    triples = sm.facet_triples(lat)
    if triples:
        t = rng.choice(triples)
        m = sm.modular_from_irreducibles(
            lat, {i: random_fraction(rng) for i in range(1, lat.poset.n + 1)}
        )
        u = Fraction(1, 12) * sm.unanimity(lat, t.masks()[0])
        for v, slack in ((m + u, Fraction(1, 12)), (m - u, Fraction(-1, 12))):
            assert t.value(v) == slack
            games.append(v)
    return games


def test_local_predicates_match_all_pairs_oracles_on_random_posets():
    rng = random.Random(4242)
    checks = {
        sm.is_supermodular: oracle_supermodular,
        sm.is_modular: oracle_modular,
        sm.is_monotone: oracle_monotone,
    }
    verdicts = {check: set() for check in checks}
    for _ in range(40):
        lat = sm.build_lattice(random_poset(rng, rng.randint(1, 6)))
        for v in varied_games(rng, lat):
            for check, oracle in checks.items():
                verdict = check(v)
                assert verdict == oracle(v)
                verdicts[check].add(verdict)
    assert all(seen == {True, False} for seen in verdicts.values())


def test_the_predicates_stop_at_the_first_deciding_square(monkeypatch):
    # the bottom square {1,2}, {1}, {2}, {} of flat12 comes first; a game
    # with v({1,2}) = -1 and 0 elsewhere is neither modular nor
    # supermodular there, so each predicate pulls that one of the 67,584
    # squares from the walk, which stays a lazy generator
    lat = sm.build_lattice(sm.poset_from_covers(12, []))
    v = sm.Game.from_values(lat, {0b11: Fraction(-1)})
    walk = game._square_corners
    pulled = []

    def counted(lat):
        for corner in walk(lat):
            pulled.append(corner)
            yield corner

    monkeypatch.setattr(game, "_square_corners", counted)
    for predicate in (sm.is_modular, sm.is_supermodular):
        pulled.clear()
        assert not predicate(v)
        assert pulled == [(lat.index[0b11], 0, lat.index[0b1], lat.index[0b10])]


def test_monotone_and_nonnegative():
    lat = sm.build_lattice(sm.poset_from_covers(2, []))
    m = sm.mask_from_players
    g = sm.Game.from_values(lat, {m([1], 2): 1, m([2], 2): 1, m([1, 2], 2): 1})
    assert sm.is_monotone(g) and sm.is_nonnegative(g)
    drop = sm.Game.from_values(lat, {m([1], 2): 2, m([1, 2], 2): 1})
    assert not sm.is_monotone(drop) and sm.is_nonnegative(drop)
    neg = sm.Game.from_values(lat, {m([1], 2): -1})
    assert not sm.is_nonnegative(neg)


def test_zero_normalize_splits_exactly(hier4, flat3):
    rng = random.Random(8123)
    for lat in (hier4, flat3):
        for _ in range(60):
            v = random_game(rng, lat)
            w, m = sm.zero_normalize(v)
            assert w + m == v
            assert sm.is_modular(m)
            # both characterizations of the 0-normalized part
            what = sm.mobius_transform(w)
            for a in lat.join_irreducibles:
                assert what.value(a) == 0
                assert w.value(a) == w.value(lat.join_irreducible_predecessor(a))


def test_zero_normalize_of_special_games(hier4):
    # unanimity at a join-irreducible element is purely modular
    for a in hier4.join_irreducibles:
        w, m = sm.zero_normalize(sm.unanimity(hier4, a))
        assert w.is_zero()
        assert m == sm.unanimity(hier4, a)
    card = sm.Game(hier4, [a.bit_count() for a in hier4.elements])
    w, m = sm.zero_normalize(card)
    assert w.is_zero() and m == card
    ones = sm.Game(hier4, [0] + [1] * (len(hier4.elements) - 1))
    w, m = sm.zero_normalize(ones)
    assert w + m == ones and sm.is_modular(m)
    assert all(
        w.value(a) == w.value(hier4.join_irreducible_predecessor(a))
        for a in hier4.join_irreducibles
    )


def test_modular_games_form_an_n_dimensional_space(hier4):
    n = hier4.poset.n
    # modular games from unit targets on the principal down-sets span rank n
    basis = []
    for i in range(1, n + 1):
        targets = {j: Fraction(1 if j == i else 0) for j in range(1, n + 1)}
        basis.append(sm.modular_from_irreducibles(hier4, targets))
    assert oracle_rank([g.values for g in basis]) == n
    # a modular game is pinned down by its values on the join-irreducibles
    rng = random.Random(3310)
    for _ in range(20):
        m1 = random_modular(rng, hier4)
        targets = {
            i: m1.value(hier4.poset.principal_down_set(i)) for i in range(1, n + 1)
        }
        assert sm.modular_from_irreducibles(hier4, targets) == m1


def test_modular_from_irreducibles_validates_targets(hier4):
    with pytest.raises(ValueError):
        sm.modular_from_irreducibles(hier4, {1: 1})


def _assert_stored_as(g, fracs):
    """g holds canonical integers over one denominator and reads back, by
    every accessor, as the plain Fraction tuple fracs."""
    num, den = _scaled_values(g)
    els = g.lattice.elements
    # canonical: a tuple of ints by position over a positive denominator
    # coprime to them, so a kernel that writes into it raises
    assert type(num) is tuple and len(num) == len(els)
    assert all(type(x) is int for x in num) and type(den) is int
    assert den > 0 and gcd(den, *num) == 1
    with pytest.raises(TypeError):
        num[0] = 0
    assert g.values == fracs and all(type(x) is Fraction for x in g.values)
    assert [g.value(a) for a in els] == list(fracs)
    assert g.to_mapping() == {a: x for a, x in zip(els, fracs) if x}
    assert g.is_zero() == (not any(fracs))


def test_the_integer_store_agrees_with_a_fraction_oracle(tmp_path):
    # games built four ways, each against a tuple of plain Fractions worked
    # out on its own: from Fractions, from a game file of unreduced
    # spellings over large denominators, by + - * and neg, and by every
    # transform
    rng = random.Random(2520)
    args = argparse.Namespace(max_lattice=None)
    dens = (1, 2, 3, 12, 360360, 10**9 + 7, 2**61 - 1)

    def fraction():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-10**12, 10**12), rng.choice(dens))

    def spelled(x):
        # x as an unreduced "p/q" with leading zeros, or a zero spelled
        # one of several ways
        k = rng.randint(1, 40)
        p, q = x.numerator * k, x.denominator * k
        if not p:
            return rng.choice(("0", "-0/7", "0/360360", 0))
        sign = "-" if p < 0 else ""
        return f"{sign}{'0' * rng.randint(0, 2)}{abs(p)}/{q}"

    def modular(lat, targets):
        # the modular game with the targets at the principal down-sets:
        # player weights in Fractions, summed over every element
        p = lat.poset
        w = {}
        for i in sorted(targets, key=lambda i: p.principal_down_set(i).bit_count()):
            w[i] = targets[i] - sum(w[j] for j in sm.players_from_mask(p.strict_down_set(i)))
        return tuple(sum((w[i] for i in sm.players_from_mask(a)), Fraction(0)) for a in lat.elements)

    for k in range(25):
        p = random_poset(rng, rng.randint(1, 6))
        lat = sm.build_lattice(p)
        a, b = ((Fraction(0),) + tuple(fraction() for _ in lat.elements[1:]) for _ in "ab")
        ga = sm.Game(lat, a)
        path = tmp_path / f"g{k}.json"
        path.write_text(json.dumps({"poset": sm.poset_to_dict(p), "values": {
            cli.coalition_key(m): spelled(x) for m, x in zip(lat.elements, b) if x or rng.random() < 0.5
        }}))
        gb, _ = cli.load_game(str(path), args)
        assert gb.lattice == lat
        c = rng.choice((Fraction(-3, 7), Fraction(0), 2, Fraction(10**9 + 7, 360360)))
        targets = {i: fraction() for i in range(1, p.n + 1)}
        built = [
            (ga, a),
            (gb, b),
            (ga + gb, tuple(x + y for x, y in zip(a, b))),
            (ga - gb, tuple(x - y for x, y in zip(a, b))),
            (-gb, tuple(-y for y in b)),
            (c * ga, tuple(c * x for x in a)),
            (gb * c, tuple(y * c for y in b)),
            (sm.modular_from_irreducibles(lat, targets), modular(lat, targets)),
        ]
        for g, vals in [(ga, a), (gb, b)]:
            mod = tuple(oracle_modular_part(g).values)
            w, m = sm.zero_normalize(g)
            built += [
                (sm.mobius_transform(g), oracle_mobius_transform(g).values),
                (sm.mobius_inverse(g), oracle_mobius_inverse(g).values),
                (w, tuple(x - y for x, y in zip(vals, mod))),
                (m, mod),
            ]
        for g, vals in built:
            _assert_stored_as(g, tuple(vals))
            assert sm.mobius_inverse(sm.mobius_transform(g)) == g
        # games are equal exactly when their Fraction tuples are, whatever
        # route built them
        for g, x in built:
            for h, y in built:
                assert (g == h) == (tuple(x) == tuple(y))
        assert ga + gb - gb == ga and -(-gb) == gb
        assert _scaled_values(ga) == _scaled_values(sm.Game(lat, a))
