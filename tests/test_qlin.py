import random
from fractions import Fraction

import pytest

import supermod as sm
from supermod import qlin
from conftest import (
    HIER4_GENERATORS,
    ZeroVectorError,
    game_equality_system,
    game_from_table,
    normalize_ray,
    nullspace,
    oracle_payoff_system,
    oracle_rank,
    payoff_equality_system,
    solve_unique,
)


def test_rank_examples():
    assert qlin.rank([[1, 0], [0, 1]]) == 2
    assert qlin.rank([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]) == 0
    assert qlin.rank([[1, 1, 0], [0, 1, 1], [1, 2, 1]]) == 2
    assert qlin.rank([]) == 0
    assert qlin.rank([[Fraction(1, 2), Fraction(1, 3)]]) == 1


def test_rank_matches_bareiss_oracle_on_random_matrices():
    # zero rows and repeated rows (scaled copies included) must not count
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
                rows.append([Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(ncols)])
            else:
                rows.append([rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(ncols)])
        rng.shuffle(rows)
        assert qlin.rank(rows) == oracle_rank(rows)
        ranks.add(qlin.rank(rows))
    assert len(ranks) > 5


def test_rank_with_growing_non_unit_pivots():
    # the scaled Hilbert matrix has no +-1 pivot, so every step cross-
    # multiplies by gcds; it is nonsingular, and a combination of its rows
    # (with Fraction weights) adds nothing
    hilbert = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]
    scaled = [[x * 720720 for x in row] for row in hilbert]
    assert qlin.rank(scaled) == oracle_rank(scaled) == 8
    assert qlin.rank(hilbert) == 8
    combo = [sum(Fraction(k + 1, 7) * row[j] for k, row in enumerate(hilbert[:5])) for j in range(8)]
    assert qlin.rank(hilbert[:5] + [combo]) == oracle_rank(hilbert[:5] + [combo]) == 5
    assert qlin.rank([row[:6] for row in scaled]) == 6


def test_rank_matches_bareiss_oracle_on_one_rel5_systems(one_rel5_rays):
    # both extremality systems of the rays (rank ncols - 1) and of sums of
    # two rays, whose solution spaces are larger; Bareiss takes 68 s for
    # the payoff systems of all 241 rays, so it sees a seeded sample of them
    for r in one_rel5_rays:
        rows, d = game_equality_system(r)
        assert qlin.rank(rows) == oracle_rank(rows) == d - 1
        rows, ncols = payoff_equality_system(r)
        assert qlin.rank(rows) == ncols - 1
    rng = random.Random(7301)
    for r in rng.sample(one_rel5_rays, 6):
        rows, ncols = payoff_equality_system(r)
        assert oracle_rank(rows) == ncols - 1
    nullities = set()
    for _ in range(8):
        a, b = rng.sample(one_rel5_rays, 2)
        for rows, ncols in (payoff_equality_system(a + b), game_equality_system(a + b)):
            k = qlin.rank(rows)
            assert k == oracle_rank(rows)
            nullities.add(ncols - k)
    assert min(nullities) == 2 and max(nullities) > 2


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
        assert qlin.rank(rows) + len(basis) == 6
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
