import random
from fractions import Fraction

import pytest

import supermod as sm
from supermod import qlin
from conftest import (
    HIER4_GENERATORS,
    game_from_table,
    normalize_ray,
    nullspace,
    oracle_payoff_system,
    solve_unique,
)


def test_rank_examples():
    assert qlin.rank([[1, 0], [0, 1]]) == 2
    assert qlin.rank([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]) == 0
    assert qlin.rank([[1, 1, 0], [0, 1, 1], [1, 2, 1]]) == 2
    assert qlin.rank([]) == 0
    assert qlin.rank([[Fraction(1, 2), Fraction(1, 3)]]) == 1


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
    with pytest.raises(sm.ZeroVectorError):
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
