import random
from fractions import Fraction

import pytest

import supermod as sm
from supermod import cone, qlin
from supermod.game import _scaled_values
from conftest import (
    HIER4_GENERATORS,
    LADDER,
    ZeroVectorError,
    dense_rows,
    game_equality_system,
    game_from_table,
    normalize_ray,
    nullspace,
    oracle_payoff_system,
    oracle_rank,
    payoff_equality_system,
    solve_unique,
    sparse_rows,
)


def test_rank_examples():
    # rows are maps of their nonzero int entries: an empty map is a zero
    # row, and a column a row does not name holds zero
    assert qlin.rank([{0: 1}, {1: 1}], at_most=2) == 2
    assert qlin.rank([{}, {}, {}], at_most=0) == 0
    assert qlin.rank(sparse_rows([[1, 1, 0], [0, 1, 1], [1, 2, 1]]), at_most=2) == 2
    assert qlin.rank([], at_most=0) == 0
    assert qlin.rank([{7: 1}, {3: -2, 9: 1}, {3: 4, 9: -2}, {1000: -5}], at_most=3) == 3
    assert qlin.rank([{5: 2, 2: 1}, {2: 1, 5: 2}], at_most=1) == 1  # key order is free


def test_rank_requires_a_bound():
    with pytest.raises(TypeError):
        qlin.rank([{0: 1}, {1: 1}])


def test_rank_refuses_fraction_entries():
    # a Fraction, even an integral one, a float or a str is refused rather
    # than ranked, wherever it sits in its row: after rows that already
    # reach the bound, and on rows that would take the rational elimination
    for entry in (Fraction(1, 2), Fraction(2), 0.5, 1.0, "1"):
        with pytest.raises(TypeError):
            qlin.rank([{0: 1}, {1: entry}], at_most=2)
        with pytest.raises(TypeError):
            qlin.rank([{0: 1}, {0: entry}], at_most=1)
        for bad in ({2: entry, 0: 1}, {0: 1, 2: entry}):
            with pytest.raises(TypeError):
                qlin.rank([{0: 1}, {1: 1}, bad], at_most=2)
            with pytest.raises(TypeError):
                qlin.rank([{0: 2, 1: 2}, {1: 2}, bad], at_most=3)


def gf2_rank(rows):
    """Rank over GF(2) from the size of the span of the odd-column masks."""
    span = {0}
    for row in rows:
        m = sum(1 << c for c, x in row.items() if x % 2)
        span |= {s ^ m for s in span}
    return len(span).bit_length() - 1


def test_odd_masks_of_signed_and_large_entries():
    # entries 2, -2, -1, 3 and 2**70 + 1 in shuffled key order: the GF(2)
    # pass reads -1, 3 and 2**70 + 1 as odd and +-2 as even, and rank
    # agrees with the oracle whether the GF(2) rank reaches the bound or
    # the rational elimination decides
    rng = random.Random(7027)
    entries = (2, -2, -1, 3, 2**70 + 1)
    paths = set()
    for _ in range(300):
        ncols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 6)):
            cols = rng.sample(range(ncols), rng.randint(0, ncols))
            rows.append({c: rng.choice(entries) for c in cols})
        low = qlin._rank_mod2(rows)
        assert low == gf2_rank(rows)
        full = oracle_rank(dense_rows(rows, ncols))
        paths.add(low == full)
        assert qlin.rank(rows, at_most=full) == full
        shuffled = [dict(rng.sample(list(row.items()), len(row))) for row in rows]
        assert qlin._rank_mod2(shuffled) == low
        assert qlin.rank(shuffled, at_most=full) == full
    assert paths == {True, False}
    assert qlin._rank_mod2([{3: 2**70 + 1, 0: -2}, {0: -1, 3: 3}, {0: 2, 3: -2}]) == 2


def test_rank_leaves_its_rows_unchanged():
    # elimination works on copies: the pivots and reduced rows never alias
    # the caller's maps, whose entries and key order stay as they were; the
    # GF(2) rank 3 certifies at_most=3, and at_most=4 takes the elimination
    rows = [{0: 2, 1: 4}, {0: 3, 1: 1, 2: 1}, {2: 1, 0: 1}, {}, {1: 1, 2: -1}]
    before = [list(row.items()) for row in rows]
    for bound in (3, 4, 3, 4):
        assert qlin.rank(rows, at_most=bound) == 3
        assert [list(row.items()) for row in rows] == before


def test_rank_matches_bareiss_oracle_on_random_matrices():
    # zero rows and repeated rows (scaled copies included) must not count;
    # the row count bounds the rank, so both paths of rank are taken
    rng = random.Random(4431)
    ranks = set()
    for k in range(120):
        ncols = rng.randint(1, 9)
        rows = []
        for _ in range(rng.randint(1, 10)):
            pick = rng.random()
            if pick < 0.15:
                rows.append([0] * ncols)
            elif pick < 0.35 and rows:
                rows.append([3 * x for x in rng.choice(rows)])
            elif k % 2:
                rows.append([rng.randint(-24, 24) for _ in range(ncols)])
            else:
                rows.append([rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(ncols)])
        rng.shuffle(rows)
        expected = oracle_rank(rows)
        assert qlin.rank(sparse_rows(rows), at_most=min(len(rows), ncols)) == expected
        assert qlin._eliminate(sparse_rows(rows)) == expected
        ranks.add(expected)
    assert len(ranks) > 5


def test_rank_matches_bareiss_oracle_on_random_sparse_systems():
    # a few entries per row over many columns, like the equality systems:
    # +-1 entries, larger ints, empty maps and rows that share their
    # support; every system is ranked twice to catch aliasing
    rng = random.Random(8821)
    ranks = set()
    for _ in range(150):
        ncols = rng.randint(1, 40)
        rows = []
        for _ in range(rng.randint(0, 30)):
            if rng.random() < 0.1:
                rows.append({})
                continue
            if rows and rng.random() < 0.2:
                # a combination of two earlier rows on the same columns
                a, b = rng.choice(rows), rng.choice(rows)
                row = {j: 2 * a.get(j, 0) - b.get(j, 0) for j in set(a) | set(b)}
                rows.append({j: x for j, x in row.items() if x})
                continue
            row = {}
            for j in rng.sample(range(ncols), rng.randint(1, min(ncols, 5))):
                pick = rng.random()
                if pick < 0.6:
                    row[j] = rng.choice((1, -1))
                elif pick < 0.85:
                    row[j] = rng.choice((-1, 1)) * rng.randint(2, 9)
                else:
                    row[j] = rng.choice((-1, 1)) * rng.randint(10, 60)
            rows.append(row)
        copies = [dict(row) for row in rows]
        bound = min(len(rows), ncols)
        k = qlin.rank(rows, at_most=bound)
        assert k == qlin.rank(rows, at_most=bound) == oracle_rank(dense_rows(rows, ncols))
        assert rows == copies
        ranks.add(k)
    assert len(ranks) > 10


def test_rank_with_growing_non_unit_pivots():
    # the scaled Hilbert matrix has no +-1 pivot, so every step cross-
    # multiplies by gcds; it is nonsingular, and an integer combination of
    # its rows adds nothing
    scaled = [[720720 // (i + j + 1) for j in range(8)] for i in range(8)]
    assert qlin.rank(sparse_rows(scaled), at_most=8) == oracle_rank(scaled) == 8
    assert qlin._eliminate(sparse_rows(scaled)) == 8
    combo = [sum((k + 1) * row[j] for k, row in enumerate(scaled[:5])) for j in range(8)]
    assert qlin._eliminate(sparse_rows(scaled[:5] + [combo])) == 5
    assert oracle_rank(scaled[:5] + [combo]) == 5
    assert qlin._eliminate(sparse_rows(row[:6] for row in scaled)) == 6


def test_rank_matches_bareiss_oracle_on_one_rel5_systems(one_rel5_rays):
    # both extremality systems of the rays (rank ncols - 1), certified mod 2
    # and eliminated over Q, and of sums of two rays, whose solution spaces
    # are larger; Bareiss takes 68 s for the payoff systems of all 241 rays,
    # so it sees a seeded sample of them
    for r in one_rel5_rays:
        rows, d = game_equality_system(r)
        assert qlin.rank(rows, at_most=d - 1) == oracle_rank(dense_rows(rows, d)) == d - 1
        assert qlin._eliminate(map(dict, rows)) == d - 1
        rows, ncols = payoff_equality_system(r)
        assert qlin.rank(rows, at_most=ncols - 1) == ncols - 1
        assert qlin._eliminate(map(dict, rows)) == ncols - 1
    rng = random.Random(7301)
    for r in rng.sample(one_rel5_rays, 6):
        rows, ncols = payoff_equality_system(r)
        assert oracle_rank(dense_rows(rows, ncols)) == ncols - 1
    nullities = set()
    for _ in range(8):
        a, b = rng.sample(one_rel5_rays, 2)
        for rows, ncols in (payoff_equality_system(a + b), game_equality_system(a + b)):
            k = qlin.rank(rows, at_most=ncols - 1)
            assert k == oracle_rank(dense_rows(rows, ncols))
            nullities.add(ncols - k)
    assert min(nullities) == 2 and max(nullities) > 2


@pytest.fixture
def rational_path(monkeypatch):
    """The rows of every call that reaches the rational elimination."""
    calls = []
    eliminate = qlin._eliminate
    monkeypatch.setattr(qlin, "_eliminate", lambda rows: calls.append(rows) or eliminate(rows))
    return calls


def test_rank_certified_by_a_proven_bound(rational_path):
    # a GF(2) rank that reaches at_most is returned with no rational step
    assert qlin.rank([{0: 1}, {1: 1}], at_most=2) == 2
    assert qlin.rank([{0: 1, 1: 1}, {1: 1, 2: -1}, {0: 1, 2: 1}], at_most=2) == 2
    assert qlin.rank([{0: 3, 1: 2}, {0: 6, 1: 4}], at_most=1) == 1
    assert qlin.rank([], at_most=0) == 0
    assert qlin.rank([{}], at_most=0) == 0
    assert rational_path == []
    # GF(2) falls short and the rational elimination reaches the bound:
    # (1, 1) and (1, -1) coincide mod 2, and all-even rows vanish there
    assert qlin.rank([{0: 1, 1: 1}, {0: 1, 1: -1}], at_most=2) == 2
    assert qlin.rank([{0: 2, 1: 4}, {1: 6}], at_most=2) == 2
    assert qlin.rank([{0: 2}, {0: 1, 1: 1}], at_most=2) == 2
    assert qlin.rank([{0: 1, 1: 3}, {0: 1, 1: 5}], at_most=2) == 2
    assert qlin.rank([{0: 2, 1: 4}, {1: 3}], at_most=2) == 2
    assert len(rational_path) == 5
    # a bound that holds but is not reached is no certificate either
    assert qlin.rank([{0: 1, 1: 1}, {0: 2, 1: 2}], at_most=2) == 1
    assert qlin.rank([{0: 2, 1: 2}], at_most=1) == 1
    assert len(rational_path) == 7
    # rows given once, as an iterator, are read by both passes
    assert qlin.rank(iter([{0: 1, 1: 1}, {0: 1, 1: -1}]), at_most=2) == 2
    assert qlin.rank(sparse_rows([[2, 0], [0, 2]]), at_most=2) == 2


def test_rank_refuses_a_bound_below_the_gf2_rank(rational_path):
    # more independent rows mod 2 than at_most disproves the caller's bound
    with pytest.raises(ValueError, match="above at_most=1"):
        qlin.rank([{0: 1}, {1: 1}], at_most=1)
    with pytest.raises(ValueError, match="above at_most=-1"):
        qlin.rank([{3: 1}], at_most=-1)
    # a bound below the rational rank alone is not always caught: the rows
    # are then ranked over Q, and the bound is ignored
    assert qlin.rank([{0: 2}, {1: 2}], at_most=1) == 2
    assert len(rational_path) == 1


def test_certified_rank_matches_the_oracle_on_planted_kernels(rational_path):
    # seeded matrices with a planted nonzero kernel vector z, so rank <=
    # ncols - 1 is proven: each row is random off column t, and its entry at
    # t (where z is 1) cancels the rest.  Small entries and even and odd
    # scalings give both GF(2) certificates and rational fallbacks.
    rng = random.Random(9377)
    certified = fallbacks = 0
    for k in range(200):
        ncols = rng.randint(1, 9)
        t = rng.randrange(ncols)
        z = [rng.choice((0, 1, -1, 2, 3)) for _ in range(ncols)]
        z[t] = 1
        rows = []
        for _ in range(rng.randint(0, ncols + 3)):
            row = [rng.choice((0, 0, 1, -1, 2, rng.randint(-6, 6))) for _ in range(ncols)]
            row[t] = 0
            row[t] = -sum(x * y for x, y in zip(row, z))
            if rng.random() < 0.2:
                row = [2 * x for x in row]
            elif k % 3 == 0:
                w = rng.randint(3, 7)
                row = [w * x for x in row]
            rows.append(row)
        assert all(sum(x * y for x, y in zip(row, z)) == 0 for row in rows)
        expected = oracle_rank(rows) if rows else 0
        before = len(rational_path)
        assert qlin.rank(sparse_rows(rows), at_most=ncols - 1) == expected
        if len(rational_path) == before:
            certified += 1
        else:
            fallbacks += 1
        assert qlin._eliminate(sparse_rows(rows)) == expected
    assert certified > 40 and fallbacks > 40


def test_criteria_take_the_rational_path_only_off_the_rays(one_rel5_rays, rational_path):
    # on the ladder every enumerated ray is certified mod 2 by both
    # criteria, while the systems of a sum of two rays (solution space of
    # dimension at least 2) fall short of the bound and are ranked over Q
    rng = random.Random(6121)
    for name in LADDER:
        if name == "one-rel5":
            rays = one_rel5_rays
        else:
            rays = sm.extreme_rays(sm.build_lattice(sm.poset_from_covers(*LADDER[name])))
        plan = cone._Plan(rays[0].lattice)
        rational_path.clear()
        for g in rays:
            val = _scaled_values(g)[0]
            assert cone._payoff_extreme(plan, val) and cone._games_extreme(plan, val)
        assert rational_path == []
        for _ in range(3):
            a, b = rng.sample(rays, 2)
            rational_path.clear()
            val = _scaled_values(a + b)[0]
            assert not cone._payoff_extreme(plan, val)
            assert not cone._games_extreme(plan, val)
            assert len(rational_path) == 2


def test_nullspace_examples():
    assert nullspace([[1, -1]]) == [(1, 1)]
    assert nullspace([[1, 0], [0, 1]]) == []
    with pytest.raises(ValueError):
        nullspace([])
    assert nullspace([], cols=2) == [(1, 0), (0, 1)]


def test_nullspace_vectors_satisfy_system_exactly():
    rng = random.Random(1105)
    for _ in range(50):
        rows = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(rng.randint(1, 5))]
        basis = nullspace(rows)
        assert qlin.rank(sparse_rows(rows), at_most=len(rows)) + len(basis) == 6
        for b in basis:
            for row in rows:
                assert sum(x * y for x, y in zip(row, b)) == 0


def test_payoff_system_of_the_detailed_generator_has_a_line_of_solutions(hier4):
    # the full (unreduced) equality system of the first generator leaves a
    # one-dimensional solution space spanned by its own payoff array
    v1 = game_from_table(hier4, HIER4_GENERATORS[0])
    rows, ncols = oracle_payoff_system(v1)
    basis = nullspace(rows, cols=ncols)
    assert len(basis) == 1
    stacked = []
    for c in hier4.maximal_chains():
        stacked.extend(sm.marginal_vector(v1, c))
    assert basis[0] == normalize_ray(stacked)


def test_solve_unique():
    x = solve_unique([[1, 1], [1, -1]], [3, 1])
    assert x == (2, 1)
    assert solve_unique([[1, 1]], [3]) is None  # free variable
    assert solve_unique([[1, 1], [2, 2]], [3, 7]) is None  # inconsistent
    x = solve_unique([[2, 0], [0, 3], [2, 3]], [1, 1, 2])
    assert x == (Fraction(1, 2), Fraction(1, 3))


def test_normalize_ray_examples():
    assert normalize_ray((Fraction(1, 2), Fraction(1, 3), 0)) == (3, 2, 0)
    assert normalize_ray((-2, -4)) == (1, 2)
    assert normalize_ray((5,)) == (1,)
    with pytest.raises(ZeroVectorError):
        normalize_ray((0, 0))


def test_normalize_ray_idempotent_and_scale_invariant():
    rng = random.Random(2207)
    for _ in range(100):
        vec = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(5)]
        if not any(vec):
            vec[0] = Fraction(1)
        base = normalize_ray(vec)
        assert normalize_ray(base) == base
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert normalize_ray([q * x for x in vec]) == base
        assert base[next(k for k, x in enumerate(base) if x)] > 0
