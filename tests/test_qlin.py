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
    signed_pairs,
    signed_rows,
    solve_unique,
    sparse_rows,
)


def test_rank_examples():
    # a row is a pair (plus, minus) of disjoint column bitmasks: (0, 0) is
    # a zero row, and a column neither mask holds is zero
    assert qlin.rank([(1, 0), (2, 0)], at_most=2) == 2
    assert qlin.rank([(0, 0), (0, 0), (0, 0)], at_most=0) == 0
    assert qlin.rank(signed_pairs(sparse_rows([[1, 1, 0], [0, 1, 1], [1, 0, -1]])), at_most=2) == 2
    assert qlin.rank([], at_most=0) == 0
    assert qlin.rank([(1 << 7, 0), (1 << 9, 1 << 3), (1 << 3, 1 << 9), (0, 1 << 1000)], at_most=3) == 3
    # modulo 2 a row is plus | minus, over Q its signs count
    assert qlin.rank([(0b11, 0), (0b01, 0b10)], at_most=2) == 2


def test_rank_requires_a_bound():
    with pytest.raises(TypeError):
        qlin.rank([(1, 0), (2, 0)])


def test_rank_refuses_fraction_entries():
    # a Fraction, even an integral one, a float, a str or None is refused
    # rather than ranked, as plus, as minus or as both: after rows that
    # already reach the bound, and among rows that would take the rational
    # elimination
    for mask in (Fraction(1, 2), Fraction(2), 0.5, 1.0, "1", None):
        for bad in ((mask, 0), (0, mask), (mask, mask)):
            with pytest.raises(TypeError):
                qlin.rank([(1, 0), (2, 0), bad], at_most=2)
            with pytest.raises(TypeError):
                qlin.rank([(0b11, 0), bad, (0b01, 0b10)], at_most=2)


def test_rank_refuses_overlapping_and_negative_masks(rational_path):
    # a column that is both +1 and -1, or a negative mask, which has
    # infinitely many set bits, is no signed row; it is refused wherever it
    # sits, before any rank is returned
    for bad in ((1, 1), (0b110, 0b011), (-1, 0), (0, -4), (-2, 1), (-1, -1)):
        for rows in ([bad], [(1, 0), (2, 0), bad], [bad, (0b11, 0), (0b01, 0b10)]):
            with pytest.raises(ValueError, match="not a pair of disjoint nonnegative masks"):
                qlin.rank(rows, at_most=2)
    assert rational_path == []


def gf2_rank(rows):
    """Rank over GF(2) from the size of the span of the masks plus | minus."""
    span = {0}
    for plus, minus in rows:
        m = sum(1 << j for j in signed_rows([(plus, minus)])[0])
        span |= {s ^ m for s in span}
    return len(span).bit_length() - 1


def test_large_entries_and_far_columns():
    # entries 2, -2, -1, 3 and 2**70 + 1 in shuffled key order are ranked by
    # the rational elimination as by the oracle; and the GF(2) pass of
    # signed rows, some of them on columns past 2**70, agrees with a span
    # oracle, both when it reaches the rational rank and when it does not
    rng = random.Random(7027)
    entries = (2, -2, -1, 3, 2**70 + 1)
    paths = set()
    for _ in range(300):
        ncols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 6)):
            cols = rng.sample(range(ncols), rng.randint(0, ncols))
            rows.append({c: rng.choice(entries) for c in cols})
        full = oracle_rank(dense_rows(rows, ncols))
        shuffled = [dict(rng.sample(list(row.items()), len(row))) for row in rows]
        assert qlin._eliminate(map(dict, rows)) == qlin._eliminate(shuffled) == full
        cols = [rng.choice((c, 70 + c, 1000 + c)) for c in range(ncols)]
        pairs = signed_pairs(
            {cols[c]: rng.choice((1, -1)) for c in rng.sample(range(ncols), rng.randint(0, ncols))}
            for _ in rows
        )
        low = qlin._rank_mod2(pairs)
        assert low == gf2_rank(pairs)
        paths.add(low == oracle_rank(dense_rows(signed_rows(pairs), 1001 + ncols)))
    assert paths == {True, False}
    assert qlin._eliminate([{3: 2**70 + 1, 0: -2}, {0: -1, 3: 3}, {0: 2, 3: -2}]) == 2


def test_rank_leaves_its_rows_unchanged():
    # the caller's list is only read: the GF(2) rank 3 certifies
    # at_most=3, and at_most=4 takes the elimination of expanded copies
    rows = [(0b011, 0), (0b101, 0b010), (0b001, 0b100), (0, 0), (0b110, 0)]
    before = list(rows)
    for bound in (3, 4, 3, 4):
        assert qlin.rank(rows, at_most=bound) == 3
        assert rows == before


def test_rank_matches_bareiss_oracle_on_random_matrices(rational_path):
    # zero rows and repeated rows (scaled or negated copies) must not
    # count; the row count bounds the rank.  The +-1 systems are ranked by
    # rank, by both of its paths, and every system by the elimination
    rng = random.Random(4431)
    ranks = set()
    paths = set()
    for k in range(120):
        ncols = rng.randint(1, 9)
        rows = []
        for _ in range(rng.randint(1, 10)):
            pick = rng.random()
            if pick < 0.15:
                rows.append([0] * ncols)
            elif pick < 0.35 and rows:
                rows.append([(3 if k % 2 else -1) * x for x in rng.choice(rows)])
            elif k % 2:
                rows.append([rng.randint(-24, 24) for _ in range(ncols)])
            else:
                rows.append([rng.choice((0, 0, 1, -1)) for _ in range(ncols)])
        rng.shuffle(rows)
        expected = oracle_rank(rows)
        assert qlin._eliminate(sparse_rows(rows)) == expected
        if k % 2 == 0:
            before = len(rational_path)
            pairs = signed_pairs(sparse_rows(rows))
            assert qlin.rank(pairs, at_most=min(len(rows), ncols)) == expected
            paths.add(len(rational_path) == before)
        ranks.add(expected)
    assert len(ranks) > 5
    assert paths == {True, False}


def test_rank_matches_bareiss_oracle_on_random_sparse_systems():
    # a few +-1 entries per row over many columns, like the equality
    # systems, with zero rows, repeated and negated rows, and sums of two
    # rows on disjoint columns; every system is ranked twice, once from
    # an iterator, and the caller's list is left as it was
    rng = random.Random(8821)
    ranks = set()
    for _ in range(150):
        ncols = rng.randint(1, 40)
        rows = []
        for _ in range(rng.randint(0, 30)):
            pick = rng.random()
            if pick < 0.1:
                rows.append((0, 0))
            elif rows and pick < 0.2:
                plus, minus = rng.choice(rows)
                rows.append(rng.choice(((plus, minus), (minus, plus))))
            elif rows and pick < 0.3:
                (a, b), (c, e) = rng.choice(rows), rng.choice(rows)
                if not (a | b) & (c | e):
                    rows.append((a | c, b | e))
            else:
                plus = minus = 0
                for j in rng.sample(range(ncols), rng.randint(1, min(ncols, 5))):
                    if rng.random() < 0.5:
                        plus |= 1 << j
                    else:
                        minus |= 1 << j
                rows.append((plus, minus))
        copies = list(rows)
        bound = min(len(rows), ncols)
        k = qlin.rank(rows, at_most=bound)
        assert k == qlin.rank(iter(rows), at_most=bound)
        assert k == oracle_rank(dense_rows(signed_rows(rows), ncols))
        assert rows == copies
        ranks.add(k)
    assert len(ranks) > 10


def test_rank_with_growing_non_unit_pivots():
    # the scaled Hilbert matrix has no +-1 pivot, so every step cross-
    # multiplies by gcds; it is nonsingular, and an integer combination of
    # its rows adds nothing
    scaled = [[720720 // (i + j + 1) for j in range(8)] for i in range(8)]
    assert qlin._eliminate(sparse_rows(scaled)) == oracle_rank(scaled) == 8
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
        assert qlin.rank(signed_pairs(rows), at_most=d - 1) == d - 1
        assert oracle_rank(dense_rows(rows, d)) == d - 1
        assert qlin._eliminate(map(dict, rows)) == d - 1
        rows, ncols = payoff_equality_system(r)
        assert qlin.rank(signed_pairs(rows), at_most=ncols - 1) == ncols - 1
        assert qlin._eliminate(map(dict, rows)) == ncols - 1
    rng = random.Random(7301)
    for r in rng.sample(one_rel5_rays, 6):
        rows, ncols = payoff_equality_system(r)
        assert oracle_rank(dense_rows(rows, ncols)) == ncols - 1
    nullities = set()
    for _ in range(8):
        a, b = rng.sample(one_rel5_rays, 2)
        for rows, ncols in (payoff_equality_system(a + b), game_equality_system(a + b)):
            k = qlin.rank(signed_pairs(rows), at_most=ncols - 1)
            assert k == oracle_rank(dense_rows(rows, ncols))
            nullities.add(ncols - k)
    assert min(nullities) == 2 and max(nullities) > 2


@pytest.fixture
def rational_path(monkeypatch):
    """The rows of every call that reaches the rational elimination, as a
    list of copies of the rows it was given."""
    calls = []
    eliminate = qlin._eliminate

    def record(rows):
        rows = list(rows)
        calls.append([dict(row) for row in rows])
        return eliminate(rows)

    monkeypatch.setattr(qlin, "_eliminate", record)
    return calls


def test_rank_certified_by_a_proven_bound(rational_path):
    # a GF(2) rank that reaches at_most is returned with no rational step
    assert qlin.rank([(1, 0), (2, 0)], at_most=2) == 2
    assert qlin.rank([(0b011, 0), (0b010, 0b100), (0b101, 0)], at_most=2) == 2
    assert qlin.rank([(0b11, 0), (0, 0b11)], at_most=1) == 1
    assert qlin.rank([], at_most=0) == 0
    assert qlin.rank([(0, 0)], at_most=0) == 0
    assert rational_path == []
    # GF(2) falls short and the rational elimination reaches the bound:
    # (1, 1) and (1, -1) coincide mod 2, and so do the rows of the odd
    # cycle e0 + e1, e1 + e2, e0 + e2 modulo their sum
    assert qlin.rank([(0b11, 0), (0b01, 0b10)], at_most=2) == 2
    assert qlin.rank([(0b111, 0), (0b001, 0b110)], at_most=2) == 2
    assert qlin.rank([(0b011, 0), (0b110, 0), (0b101, 0)], at_most=3) == 3
    assert rational_path == [
        [{0: 1, 1: 1}, {0: 1, 1: -1}],
        [{0: 1, 1: 1, 2: 1}, {0: 1, 1: -1, 2: -1}],
        [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}],
    ]
    # a bound that holds but is not reached is no certificate either
    assert qlin.rank([(0b11, 0), (0, 0b11)], at_most=2) == 1
    assert qlin.rank([(0, 0), (0b01, 0b10), (0b10, 0b01)], at_most=2) == 1
    assert len(rational_path) == 5
    # rows given once, as an iterator, are read by both passes
    assert qlin.rank(iter([(0b11, 0), (0b01, 0b10)]), at_most=2) == 2


def test_rank_refuses_a_bound_below_the_gf2_rank(rational_path):
    # more independent rows mod 2 than at_most disproves the caller's bound
    with pytest.raises(ValueError, match="above at_most=1"):
        qlin.rank([(1, 0), (2, 0)], at_most=1)
    with pytest.raises(ValueError, match="above at_most=-1"):
        qlin.rank([(1 << 3, 0)], at_most=-1)
    # a bound below the rational rank alone is not always caught: these
    # rows are all 0b111 mod 2 and have rank 3 over Q, so they are ranked
    # over Q, and the bound is ignored
    assert qlin.rank([(0b111, 0), (0b001, 0b110), (0b010, 0b101)], at_most=2) == 3
    assert len(rational_path) == 1


def test_certified_rank_matches_the_oracle_on_planted_kernels(rational_path):
    # seeded +-1 matrices with a planted nonzero kernel vector z, so rank
    # <= ncols - 1 is proven: each row is random off column t, where z is
    # 1, and is kept when its entry at t can cancel the rest with 0 or +-1.
    # Both GF(2) certificates and rational fallbacks occur.
    rng = random.Random(9377)
    certified = fallbacks = 0
    for k in range(200):
        ncols = rng.randint(1, 9)
        t = rng.randrange(ncols)
        z = [rng.choice((0, 1, -1, 2, 3)) for _ in range(ncols)]
        z[t] = 1
        rows = []
        count = rng.randint(0, ncols + 3)
        while len(rows) < count:
            row = [rng.choice((0, 0, 1, -1)) for _ in range(ncols)]
            row[t] = 0
            row[t] = -sum(x * y for x, y in zip(row, z))
            if row[t] in (0, 1, -1):
                rows.append(row)
        assert all(sum(x * y for x, y in zip(row, z)) == 0 for row in rows)
        expected = oracle_rank(rows) if rows else 0
        before = len(rational_path)
        assert qlin.rank(signed_pairs(sparse_rows(rows)), at_most=ncols - 1) == expected
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
        assert qlin._eliminate(sparse_rows(rows)) + len(basis) == 6
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
