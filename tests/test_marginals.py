import random
from decimal import Decimal
from fractions import Fraction

import pytest

import supermod as sm
from supermod.game import _scaled_values
from supermod.lattice import _covering_steps
from supermod.marginals import _chain_increments, _vertex_walk

from conftest import (
    HIER4_GENERATORS,
    game_from_table,
    marginal_set,
    oracle_core_vertices,
    oracle_face_compare,
    oracle_lower_envelope,
    oracle_tight_family,
    random_fraction,
    random_game,
    random_poset,
    random_supermodular,
    random_unanimity_sum,
    tight_family,
)


@pytest.fixture(scope="module")
def v1(hier4):
    return game_from_table(hier4, HIER4_GENERATORS[0])


def test_payoff_totals():
    x = (Fraction(1), Fraction(2), Fraction(3))
    assert sm.payoff(x, 0) == 0
    assert sm.payoff(x, 0b101) == 4
    assert sm.payoff(x, 0b111) == 6


def test_payoff_refuses_a_player_past_the_vector(flat3):
    assert sm.payoff((1, 2, 3), flat3.top) == 6
    with pytest.raises(ValueError, match="player 3, the vector has 1 entries"):
        sm.payoff((1,), flat3.top)
    with pytest.raises(ValueError, match="player 3, the vector has 2 entries"):
        sm.payoff((1, 2), 0b100)
    with pytest.raises(ValueError, match="^coalition mask -1 is negative$"):
        sm.payoff((1, 2, 3, 4), -1)


def test_marginal_vectors_of_the_detailed_generator(hier4, v1):
    by_perm = {
        c.perm: sm.marginal_vector(v1, c) for c in hier4.maximal_chains()
    }
    low = (0, 0, 0, 1)
    high = (0, 1, 0, 0)
    expected = {
        (2, 3, 1, 4): low,
        (2, 3, 4, 1): low,
        (2, 4, 3, 1): low,
        (3, 2, 1, 4): low,
        (3, 2, 4, 1): low,
        (3, 4, 2, 1): high,
        (4, 2, 3, 1): high,
        (4, 3, 2, 1): high,
    }
    assert by_perm == expected


def test_marginal_vector_of_zero_game(hier4):
    zero = sm.zero_game(hier4)
    for c in hier4.maximal_chains():
        assert sm.marginal_vector(zero, c) == (0, 0, 0, 0)


def test_marginals_recover_chain_values(hier4):
    # integer games on hier4, then games with denominators 2, 3 and 4 on 30
    # seeded random posets: marginal_vector and the integer chain kernel it
    # reads are the Fraction differences of Game.value along every maximal
    # chain, and recover the values of the chain
    rng = random.Random(4190)
    games = [random_game(rng, hier4) for _ in range(30)]
    for _ in range(30):
        lat = sm.build_lattice(random_poset(rng, rng.randint(1, 5)))
        games.append(sm.Game(lat, [0] + [random_fraction(rng, -2, 2) for _ in lat.elements[1:]]))
    dens = set()
    for v in games:
        _, den = _scaled_values(v)
        dens.add(den)
        for c in v.lattice.maximal_chains():
            want = [None] * v.lattice.poset.n
            for below, a, player in zip(c.sets, c.sets[1:], c.perm):
                want[player - 1] = v.value(a) - v.value(below)
            x = sm.marginal_vector(v, c)
            assert x == tuple(want)
            assert _chain_increments(v, c) == [t * den for t in want]
            for a in c.sets:
                assert sm.payoff(x, a) == v.value(a)
    assert len(dens) > 2


def test_tight_sets_of_the_detailed_generator(hier4, v1):
    n = 4
    m = sm.mask_from_players
    fam_low = frozenset(
        m(t, n)
        for t in [[], [2], [3], [2, 3], [2, 4], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4]]
    )
    fam_high = frozenset(
        m(t, n) for t in [[], [3], [4], [2, 4], [3, 4], [2, 3, 4], [1, 2, 3, 4]]
    )
    low_perms = {(2, 3, 1, 4), (2, 3, 4, 1), (2, 4, 3, 1), (3, 2, 1, 4), (3, 2, 4, 1)}
    for c in hier4.maximal_chains():
        tight = sm.tight_sets(v1, c)
        zeros = sm.zero_coords(v1, c)
        if c.perm in low_perms:
            assert tight == fam_low
            assert zeros == frozenset({1, 2, 3})
        else:
            assert tight == fam_high
            assert zeros == frozenset({1, 3, 4})


def test_tight_family_aggregates_all_chains(hier4, v1):
    fam = tight_family(v1)
    assert set(fam.perms) == {c.perm for c in hier4.maximal_chains()}
    for c in hier4.maximal_chains():
        assert fam.tight[c.perm] == sm.tight_sets(v1, c)
        assert fam.zeros[c.perm] == sm.zero_coords(v1, c)


def test_tight_sets_of_zero_game(hier4):
    zero = sm.zero_game(hier4)
    for c in hier4.maximal_chains():
        assert sm.tight_sets(zero, c) == frozenset(hier4.elements)
        assert sm.zero_coords(zero, c) == frozenset({1, 2, 3, 4})


def test_tight_family_matches_fraction_oracle_on_random_posets():
    # a supermodular unanimity sum and an arbitrary game, both with
    # denominators 2, 3 and 4, on each of 30 posets with at most 5 players
    rng = random.Random(8123)
    off_chain = 0
    for _ in range(30):
        lat = sm.build_lattice(random_poset(rng, rng.randint(1, 5)))
        arbitrary = sm.Game(lat, [0] + [random_fraction(rng, -2, 2) for _ in lat.elements[1:]])
        for v in (random_unanimity_sum(rng, lat), arbitrary):
            tight, zeros = oracle_tight_family(v)
            _, den = _scaled_values(v)
            fam = tight_family(v)
            assert fam.tight == tight and fam.zeros == zeros
            assert fam.perms == tuple(c.perm for c in lat.maximal_chains())
            for c in lat.maximal_chains():
                assert sm.tight_sets(v, c) == tight[c.perm]
                assert sm.zero_coords(v, c) == zeros[c.perm]
                x = _chain_increments(v, c)
                met = {a for a in lat.elements if sm.payoff(x, a) == v.value(a) * den}
                assert met == tight[c.perm]
                off_chain += len(tight[c.perm] - set(c.sets))
    assert off_chain > 0


def test_chain_is_always_tight_and_supermodular_families_are_sublattices(hier4, hier4_rays):
    rng = random.Random(5512)
    for _ in range(25):
        v = random_supermodular(rng, hier4, hier4_rays)
        for c in hier4.maximal_chains():
            tight = sm.tight_sets(v, c)
            assert set(c.sets) <= tight
            for a in tight:
                for b in tight:
                    assert a | b in tight and a & b in tight


def test_core_contains(hier4, v1):
    assert sm.core_contains(v1, (0, 0, 0, 1))
    assert sm.core_contains(v1, (0, 1, 0, 0))
    assert not sm.core_contains(v1, (1, 0, 0, 0))
    assert not sm.core_contains(v1, (0, 0, 0, 2))  # not efficient
    assert sm.core_contains(sm.zero_game(hier4), (0, 0, 0, 0))
    # exact entries of any kind are read as Fractions, from any iterable
    assert sm.core_contains(v1, ("0", "1/2", Decimal(0), Decimal("0.5")))
    assert sm.core_contains(v1, iter((0, 0, 0, 1)))
    # one entry per player, neither more nor fewer
    for x, got in (((0, 0, 0, 1, 5), 5), ((0, 1), 2)):
        with pytest.raises(ValueError, match=f"vector must have 4 entries, got {got}"):
            sm.core_contains(v1, x)


def test_core_contains_is_efficiency_and_domination_coalition_by_coalition():
    # the definition, one payoff and one value per element, against the
    # integer totals pass, on core vertices, their midpoints and vectors
    # moved off them, in and out of the core
    rng = random.Random(6113)
    seen = set()
    for _ in range(30):
        lat = sm.build_lattice(random_poset(rng, rng.randint(1, 5)))
        v = random_unanimity_sum(rng, lat)
        verts = sm.core_vertices(v)
        for _ in range(8):
            x, y = rng.choice(verts), rng.choice(verts)
            x = [(s + t) / 2 for s, t in zip(x, y)]
            i, j = rng.randrange(len(x)), rng.randrange(len(x))
            shift = random_fraction(rng)
            x[i] += shift
            x[j] -= shift * rng.choice((0, 1, 1))
            want = sm.payoff(x, lat.top) == v.value(lat.top) and all(
                sm.payoff(x, a) >= v.value(a) for a in lat.elements
            )
            assert sm.core_contains(v, x) == want
            seen.add(want)
    assert seen == {True, False}


def _float_configuration(lat, v):
    return {p: tuple(map(float, x)) for p, x in sm.point_configuration(v).items()}


@pytest.mark.parametrize(
    "call",
    [
        lambda lat: sm.core_contains(sm.unanimity(lat, 0b11), (0.1, 0.9)),
        lambda lat: sm.payoff((0.5, 0.5), 0b11),
        lambda lat: sm.game_from_configuration(lat, _float_configuration(lat, sm.unanimity(lat, 0b11))),
    ],
    ids=["core_contains", "payoff", "game_from_configuration"],
)
def test_payoff_vectors_refuse_floats(call):
    # 0.1 + 0.9 is not 1 in binary, and 0.5 + 0.5 would come back a float:
    # a float payoff is refused with TypeError, as a float game value is
    flat2 = sm.build_lattice(sm.poset_from_covers(2, []))
    with pytest.raises(TypeError, match=r"^payoffs must be exact \(int or Fraction\), not float$"):
        call(flat2)


def test_core_vertices_examples(hier4, v1, hier4_games):
    assert sm.core_vertices(v1) == [(0, 0, 0, 1), (0, 1, 0, 0)]
    assert sm.core_vertices(sm.zero_game(hier4)) == [(0, 0, 0, 0)]
    for x in sm.core_vertices(hier4_games[4]):
        assert sm.core_contains(hier4_games[4], x)
    bad = sm.Game.from_values(hier4, {sm.mask_from_players([2], 4): 1})
    with pytest.raises(sm.NotSupermodularError):
        sm.core_vertices(bad)


def test_core_vertices_match_active_set_oracle(hier4, flat3, hier4_rays, flat3_rays):
    rng = random.Random(6610)
    for lat, rays in ((hier4, hier4_rays), (flat3, flat3_rays)):
        for _ in range(12):
            v = random_supermodular(rng, lat, rays)
            assert sm.core_vertices(v) == oracle_core_vertices(v)


def test_lower_envelope(hier4, v1):
    n = 4
    m = sm.mask_from_players
    assert sm.lower_envelope(v1, m([3, 4], n)) == 0
    assert sm.lower_envelope(v1, hier4.top) == v1.value(hier4.top)
    rng = random.Random(7208)
    v = random_game(rng, hier4)
    assert sm.lower_envelope(v, hier4.top) == v.value(hier4.top)
    # inflating one value above its chain increments opens a strict gap
    bumped = dict(zip(hier4.elements, v.values))
    bumped[m([2, 3], n)] = Fraction(99)
    w = sm.Game(hier4, [bumped[a] for a in hier4.elements])
    assert sm.lower_envelope(w, m([2, 3], n)) < w.value(m([2, 3], n))


def test_core_vertices_match_marginal_set_on_random_posets():
    rng = random.Random(5150)
    dens = set()
    for _ in range(40):
        lat = sm.build_lattice(random_poset(rng, rng.randint(1, 6)))
        for _ in range(2):
            v = random_unanimity_sum(rng, lat)
            dens.update(x.denominator for x in v.values)
            assert sm.core_vertices(v) == marginal_set(v)
    assert {2, 3, 4} <= dens


def test_vertex_walk_is_the_set_of_chain_marginal_vectors():
    # on 40 seeded random posets, for a random supermodular game and an
    # arbitrary one, the walk's integer vectors are the Fraction marginal
    # vectors of every maximal chain scaled by the common denominator
    rng = random.Random(2719)
    merged = 0
    for _ in range(40):
        lat = sm.build_lattice(random_poset(rng, rng.randint(1, 6)))
        chains = lat.maximal_chains()
        steps = _covering_steps(lat)
        arbitrary = sm.Game(lat, [0] + [random_fraction(rng, -2, 2) for _ in lat.elements[1:]])
        for v in (random_unanimity_sum(rng, lat), arbitrary):
            val, den = _scaled_values(v)
            want = {tuple(int(t * den) for t in sm.marginal_vector(v, c)) for c in chains}
            assert _vertex_walk(lat, steps, val, len(chains)) == want
            merged += len(chains) - len(want)
    assert merged > 0


def test_lower_envelope_matches_chain_minimum_on_random_posets():
    rng = random.Random(6161)
    supermodular = set()
    for _ in range(25):
        lat = sm.build_lattice(random_poset(rng, rng.randint(1, 6)))
        v = sm.Game(lat, [0] + [random_fraction(rng) for _ in lat.elements[1:]])
        supermodular.add(sm.is_supermodular(v))
        for a in lat.elements:
            assert sm.lower_envelope(v, a) == oracle_lower_envelope(v, a)
    assert False in supermodular


def test_core_questions_on_edge_cases(single1, mixed5, wedge_chain5):
    one = sm.Game(single1, [0, Fraction(3, 2)])
    assert sm.core_vertices(one) == [(Fraction(3, 2),)]
    assert sm.lower_envelope(one, 0) == 0
    assert sm.lower_envelope(one, single1.top) == Fraction(3, 2)
    assert sm.face_compare(one, 2 * one) == "equal"

    for lat in (mixed5, wedge_chain5):
        zero = sm.zero_game(lat)
        assert sm.core_vertices(zero) == [(0,) * 5]
        assert all(sm.lower_envelope(zero, a) == 0 for a in lat.elements)
        v = random_unanimity_sum(random.Random(7272), lat)
        assert sm.face_compare(zero, v) == oracle_face_compare(zero, v)

    # a generic game on five free players: all 5! marginal vectors differ
    flat5 = sm.build_lattice(sm.poset_from_covers(5, []))
    weights = (2, 3, 5, 7, 11)
    generic = sm.Game(flat5, [
        sum((Fraction(w, 7) for k, w in enumerate(weights) if a >> k & 1), Fraction(0)) ** 2
        for a in flat5.elements
    ])
    verts = sm.core_vertices(generic)
    assert len(verts) == 120
    assert verts == marginal_set(generic)


def test_core_questions_build_no_chain(monkeypatch, v1, hier4_games):
    def refuse(self, max_chains=None):
        raise AssertionError("maximal chains walked")

    monkeypatch.setattr(sm.DownSetLattice, "maximal_chains", refuse)
    assert sm.core_vertices(v1) == [(0, 0, 0, 1), (0, 1, 0, 0)]
    assert sm.lower_envelope(v1, sm.mask_from_players([3, 4], 4)) == 0
    assert sm.face_compare(v1, v1 + hier4_games[1]) == "below"


def test_payoff_array_is_linear(hier4):
    rng = random.Random(8305)
    for _ in range(20):
        v = random_game(rng, hier4)
        w = random_game(rng, hier4)
        for c in hier4.maximal_chains():
            xv = sm.marginal_vector(v, c)
            xw = sm.marginal_vector(w, c)
            xs = sm.marginal_vector(v + w, c)
            assert xs == tuple(a + b for a, b in zip(xv, xw))
            x3 = sm.marginal_vector(3 * v, c)
            assert x3 == tuple(3 * a for a in xv)


def test_point_configuration_roundtrip(hier4, v1):
    cfg = sm.point_configuration(v1)
    assert sm.game_from_configuration(hier4, cfg) == v1
    rng = random.Random(9406)
    for _ in range(20):
        w, _ = sm.zero_normalize(random_game(rng, hier4))
        cfg = sm.point_configuration(w)
        assert sm.game_from_configuration(hier4, cfg) == w


def test_configuration_errors(hier4, v1):
    cfg = sm.point_configuration(v1)
    # a lone perturbed total breaks agreement on a shared coalition
    bad = {p: list(x) for p, x in cfg.items()}
    first = next(iter(bad))
    bad[first][3] += 1
    with pytest.raises(sm.ConsistencyError) as exc:
        sm.game_from_configuration(hier4, {p: tuple(x) for p, x in bad.items()})
    assert exc.value.kind == "shared-element"
    # marginals of a game that is not 0-normalized put a nonzero coordinate
    # at a principal down-set
    u2 = sm.unanimity(hier4, sm.mask_from_players([2], 4))
    with pytest.raises(sm.ConsistencyError) as exc:
        sm.game_from_configuration(hier4, sm.point_configuration(u2))
    assert exc.value.kind == "zero-coordinate"
    # wrong domain
    with pytest.raises(ValueError):
        sm.game_from_configuration(hier4, {(2, 3, 1, 4): (0, 0, 0, 0)})
    # a vector of the wrong length
    short = dict(cfg)
    short[first] = cfg[first][:3]
    with pytest.raises(ValueError, match=f"^vector for {''.join(map(str, first))} must have 4 entries$"):
        sm.game_from_configuration(hier4, short)


def test_payoff_array_injectivity(hier4):
    rng = random.Random(1507)
    for _ in range(15):
        v, _ = sm.zero_normalize(random_game(rng, hier4))
        w, _ = sm.zero_normalize(random_game(rng, hier4))
        if v == w:
            continue
        assert sm.point_configuration(v) != sm.point_configuration(w)


def test_unboundedness_witness(
    hier4, chain3, chain4, mixed5, wedge_chain5, flat3, flat4, single1
):
    for lat in (hier4, chain3, chain4, mixed5, wedge_chain5):
        x = sm.unboundedness_witness(lat)
        assert x is not None and any(x)
        assert sum(x) == 0
        for a in lat.elements:
            assert sm.payoff(x, a) >= 0
    assert sm.unboundedness_witness(hier4) == (-1, 1, 0, 0)
    assert sm.unboundedness_witness(chain3) == (1, -1, 0)
    for lat in (flat3, flat4, single1):
        assert sm.unboundedness_witness(lat) is None


def test_witness_is_a_recession_direction(hier4, v1):
    x = sm.core_vertices(v1)[0]
    d = sm.unboundedness_witness(hier4)
    for t in (1, 5, 1000):
        moved = tuple(a + t * b for a, b in zip(x, d))
        assert sm.core_contains(v1, moved)
