"""Shared fixtures and independent oracles for the test suite.

The oracles recompute expected values by a different route than the library
(subset scans, brute-force permutation filtering, active-set vertex solving)
so the tests do not simply mirror the implementation.
"""

import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm

import pytest

import supermod as sm
from supermod import cone, qlin
from supermod.cone import _reduce
from supermod.game import _scaled_values
from supermod.lattice import _split
from supermod.marginals import _chain_increments, _tight

# The six minimal integer generators of the supermodular cone on the
# 4-player hierarchy lattice (players 2 and 3 below player 1, player 4
# isolated), keyed by player tuples.  Index 0 is the generator whose
# marginals and tight sets are pinned down in detail by the unit tests.
HIER4_GENERATORS = (
    {(2, 4): 1, (2, 3, 4): 1, (1, 2, 3, 4): 1},
    {(3, 4): 1, (2, 3, 4): 1, (1, 2, 3, 4): 1},
    {(2, 3): 1, (1, 2, 3): 1, (2, 3, 4): 1, (1, 2, 3, 4): 1},
    {(2, 3, 4): 1, (1, 2, 3, 4): 1},
    {(2, 3): 1, (2, 4): 1, (3, 4): 1, (1, 2, 3): 1, (2, 3, 4): 2, (1, 2, 3, 4): 2},
    {(1, 2, 3, 4): 1},
)


# The benchmark's fixed poset ladder, as (n, covers).
LADDER = {
    "hier4": (4, [(2, 1), (3, 1)]),
    "flat4": (4, []),
    "mixed5": (5, [(2, 1), (3, 1)]),
    "one-rel5": (5, [(1, 2)]),
}


def game_from_table(lat, table):
    n = lat.poset.n
    return sm.Game.from_values(
        lat, {sm.mask_from_players(k, n): Fraction(v) for k, v in table.items()}
    )


def oracle_parse_coalition(text, n):
    """A game file's coalition key read by json.loads, one call per key: a
    JSON list of player ints, or a run of digits, or "" and "{}" for the
    empty coalition."""
    t = text.strip()
    if t.startswith("["):
        players = json.loads(t)
        if not isinstance(players, list) or not all(
            isinstance(p, int) and not isinstance(p, bool) for p in players
        ):
            raise ValueError(f"cannot parse coalition {text!r}")
    elif t in ("", "{}"):
        players = []
    elif t.isdigit():
        players = [int(ch) for ch in t]
    else:
        raise ValueError(f"cannot parse coalition {text!r}")
    return sm.mask_from_players(players, n)


def oracle_parse_value(val):
    """A game file's value read by Fraction alone: an int, or any string
    the running interpreter's Fraction accepts, save one ending in an "e"
    or "E", an int of digits and underscores larger in magnitude than the
    digit limit of int-string conversion (when that is nonzero), and
    optional whitespace."""
    if isinstance(val, bool):
        raise ValueError("game values must be integers or 'p/q' strings")
    if isinstance(val, int):
        return Fraction(val)
    if isinstance(val, str):
        limit = sys.get_int_max_str_digits()
        exp = re.fullmatch(r".*[eE]([-+]?\d+(?:_\d+)*)\s*", val, re.DOTALL)
        if limit and exp and abs(int(exp[1])) > limit:
            raise ValueError(f"game value {val!r} has an exponent beyond the limit of {limit}")
        try:
            return Fraction(val)
        except ZeroDivisionError:
            raise ValueError(f"game value {val!r} has a zero denominator") from None
    raise ValueError(f"game values must be integers or 'p/q' strings, got {val!r}")


def oracle_parse_values(table, n):
    """{mask: Fraction} from a "values" table by the two parsers above;
    ValueError when two keys name one coalition."""
    if not isinstance(table, dict):
        raise ValueError(f'"values" must be a JSON object, got {table!r}')
    mapping = {}
    keys = {}
    for key, val in table.items():
        mask = oracle_parse_coalition(key, n)
        if mask in keys:
            raise ValueError(
                f"coalition {json.dumps(sm.players_from_mask(mask), separators=(',', ':'))}"
                f" is given twice, as {keys[mask]!r} and as {key!r}"
            )
        keys[mask] = key
        mapping[mask] = oracle_parse_value(val)
    return mapping


def oracle_game_values(table, n):
    """The nonzero values of oracle_parse_values, or ValueError for a
    nonzero value on the empty coalition, as a game refuses one."""
    mapping = oracle_parse_values(table, n)
    if mapping.get(0):
        raise ValueError("a game must vanish on the empty coalition")
    return {a: x for a, x in mapping.items() if x}


def outcome(fn):
    """fn() as ("ok", result), or as (exception type, message)."""
    try:
        return "ok", fn()
    except Exception as exc:
        return type(exc), str(exc)


def oracle_order(n, covers):
    """The order a cover list generates, as the set of pairs (i, j) with
    i <= j, found by walking the cover edges from every player; CycleError
    when some player reaches itself along one or more edges."""
    reach = {}
    for start in range(1, n + 1):
        seen, stack = set(), [start]
        while stack:
            i = stack.pop()
            for a, b in covers:
                if a == i and b not in seen:
                    seen.add(b)
                    stack.append(b)
        if start in seen:
            raise sm.CycleError(f"player {start} lies strictly below itself")
        reach[start] = seen
    return {(i, i) for i in reach} | {(i, j) for i in reach for j in reach[i]}


def brute_downsets(p):
    """All down-sets found by scanning every subset, in (size, mask) order."""
    out = [s for s in range(1 << p.n) if p.is_down_set(s)]
    out.sort(key=lambda m: (bin(m).count("1"), m))
    return out


def oracle_addable(p, a):
    """Mask of the players i outside a whose principal down-set lies inside
    a + i, tested player by player."""
    out = 0
    for i in range(1, p.n + 1):
        bit = 1 << (i - 1)
        if not a & bit and not p.principal_down_set(i) & ~(a | bit):
            out |= bit
    return out


def oracle_covering_steps(p):
    """By element a, in brute_downsets order, the pairs (k, position of
    a + player k+1) over every k in 0..n-1 for which player k+1 is outside
    a and a + player k+1 is a down-set, k ascending."""
    downs = brute_downsets(p)
    pos = {a: k for k, a in enumerate(downs)}
    return [
        [
            (i, pos[a | 1 << i])
            for i in range(p.n)
            if not a >> i & 1 and p.is_down_set(a | 1 << i)
        ]
        for a in downs
    ]


def oracle_join_irreducibles(p):
    """The down-sets with exactly one lower cover among all down-sets, by a
    subset scan, in (size, mask) order."""
    downs = brute_downsets(p)
    members = set(downs)
    return [
        a for a in downs
        if sum(a >> k & 1 and a & ~(1 << k) in members for k in range(p.n)) == 1
    ]


def oracle_covers(p):
    """Cover pairs by definition: i < j with no k strictly between them."""
    n = range(1, p.n + 1)
    return [
        (i, j)
        for i in n
        for j in n
        if i != j
        and p.leq(i, j)
        and not any(k not in (i, j) and p.leq(i, k) and p.leq(k, j) for k in n)
    ]


def brute_linear_extensions(p):
    """Order-preserving player sequences, filtered out of all n! of them."""
    exts = []
    for perm in permutations(range(1, p.n + 1)):
        pos = {player: k for k, player in enumerate(perm)}
        if all(
            pos[i] <= pos[j]
            for i in range(1, p.n + 1)
            for j in range(1, p.n + 1)
            if p.leq(i, j)
        ):
            exts.append(perm)
    return sorted(exts)


def oracle_facet_triples(p):
    """Every down-set a with every pair i < j of players outside a such
    that a+i and a+j are down-sets, as (a, i, j), a in (size, mask) order:
    a scan of every subset and pair, with no addable-player table."""
    return [
        (a, i, j)
        for a in brute_downsets(p)
        for i, j in combinations(range(1, p.n + 1), 2)
        if not a & (1 << (i - 1) | 1 << (j - 1))
        and p.is_down_set(a | 1 << (i - 1))
        and p.is_down_set(a | 1 << (j - 1))
    ]


def oracle_supermodular(v):
    """All-pairs supermodularity scan written directly on set algebra."""
    val = dict(zip(v.lattice.elements, v.values))
    for a in val:
        for b in val:
            if val[a | b] + val[a & b] < val[a] + val[b]:
                return False
    return True


def oracle_modular(v):
    """All-pairs modularity scan: equality on every pair of elements."""
    val = dict(zip(v.lattice.elements, v.values))
    return all(val[a | b] + val[a & b] == val[a] + val[b] for a in val for b in val)


def oracle_monotone(v):
    """All-pairs monotonicity scan over every comparable pair a <= b."""
    val = dict(zip(v.lattice.elements, v.values))
    return all(val[a] <= val[b] for a in val for b in val if not a & ~b)


def oracle_incomparable_pairs(lat):
    """Unordered incomparable pairs (a, b), a before b in element order."""
    els = lat.elements
    return [
        (a, b)
        for k, a in enumerate(els)
        for b in els[k + 1 :]
        if a & ~b and b & ~a
    ]


def oracle_mobius(lat):
    """Moebius values of every ordered pair, keyed (x, y), by the defining
    recursion: mu(x, x) = 1 and mu(x, y) = -(sum of mu(x, z) over
    x <= z < y), 0 when x is not below y.  Element order extends inclusion,
    so every mu(x, z) is known before mu(x, y)."""
    els = lat.elements
    mu = {}
    for x in els:
        for y in els:
            if x & ~y:
                mu[x, y] = 0
            elif x == y:
                mu[x, y] = 1
            else:
                mu[x, y] = -sum(
                    mu[x, z] for z in els if z != y and not (x & ~z or z & ~y)
                )
    return mu


def oracle_mobius_transform(v, mu=None):
    """vhat(b) = sum of mu(c, b) v(c) over every pair, mu by recursion."""
    lat = v.lattice
    mu = oracle_mobius(lat) if mu is None else mu
    return sm.Game(
        lat,
        [
            sum((mu[c, b] * x for c, x in zip(lat.elements, v.values)), Fraction(0))
            for b in lat.elements
        ],
    )


def oracle_mobius_inverse(vhat):
    """v(b) = sum of vhat(c) over every element c below b, by a scan over
    all pairs of elements."""
    lat = vhat.lattice
    return sm.Game(
        lat,
        [
            sum((x for c, x in zip(lat.elements, vhat.values) if not c & ~b), Fraction(0))
            for b in lat.elements
        ],
    )


def oracle_modular_part(v):
    """The modular part of the 0-normalization as a unanimity combination:
    at every element b, the sum of v(a) - v(a less its top player) over the
    join-irreducible elements a below b."""
    lat = v.lattice
    coeff = {
        a: v.value(a) - v.value(lat.join_irreducible_predecessor(a))
        for a in lat.join_irreducibles
    }
    return sm.Game(
        lat,
        [
            sum((c for a, c in coeff.items() if not a & ~b), Fraction(0))
            for b in lat.elements
        ],
    )


def oracle_payoff_system(v):
    """The unreduced payoff system of a supermodular game; returns
    (rows, ncols).

    Column k*n + (i-1) is player i under the k-th maximal chain.  For every
    element, each pair of chains whose marginal vectors (of the
    0-normalized game) are tight there gets a row equating the coalition
    totals; then every zero marginal coordinate gets a row pinning it.
    """
    w, _ = sm.zero_normalize(v)
    lat = w.lattice
    n = lat.poset.n
    margs = [sm.marginal_vector(w, c) for c in lat.maximal_chains()]
    ncols = n * len(margs)
    rows = []
    for a in lat.elements[1:]:
        ks = [k for k, x in enumerate(margs) if sm.payoff(x, a) == w.value(a)]
        for k, l in combinations(ks, 2):
            row = [0] * ncols
            for p in sm.players_from_mask(a):
                row[k * n + p - 1] += 1
                row[l * n + p - 1] -= 1
            rows.append(row)
    for k, x in enumerate(margs):
        for i, val in enumerate(x):
            if not val:
                rows.append([1 if col == k * n + i else 0 for col in range(ncols)])
    return rows, ncols


def oracle_tight_family(v):
    """Tight elements and zero-increment players along every maximal chain,
    keyed by permutation, from the Fraction marginal vectors and their
    coalition totals; returns (tight, zeros)."""
    tight = {}
    zeros = {}
    for c in v.lattice.maximal_chains():
        x = sm.marginal_vector(v, c)
        tight[c.perm] = frozenset(
            a for a in v.lattice.elements if v.value(a) == sm.payoff(x, a)
        )
        zeros[c.perm] = frozenset(i + 1 for i, val in enumerate(x) if not val)
    return tight, zeros


def _int_rows(rows):
    """Integer copies of the rows, each scaled by its denominator lcm."""
    out = []
    for row in rows:
        den = 1
        for x in row:
            if isinstance(x, Fraction):
                den = lcm(den, x.denominator)
        if den == 1:
            out.append([int(x) for x in row])
        else:
            out.append([int(x * den) for x in row])
    return out


def _echelon(m):
    """In-place fraction-free (Bareiss) row echelon form of a dense integer
    matrix; returns the pivot columns."""
    if not m:
        return []
    nrows = len(m)
    ncols = len(m[0])
    piv_cols = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        pivot = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nrows):
            row_i = m[i]
            f = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = (pivot * row_i[j] - f * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return piv_cols


def oracle_rank(rows):
    """Rank over the rationals by dense Bareiss elimination of the
    integer-scaled rows."""
    m = [row for row in _int_rows(rows) if any(row)]
    return len(_echelon(m))


def sparse_rows(dense):
    """Dense rows (lists of entries) as the {column: entry} maps of their
    nonzero entries that qlin.rank and double_description read."""
    return [{j: x for j, x in enumerate(row) if x} for row in dense]


def dense_rows(rows, ncols):
    """Sparse {column: entry} rows as lists of ncols entries, for the
    dense oracles."""
    out = []
    for row in rows:
        dense = [0] * ncols
        for j, x in row.items():
            dense[j] = x
        out.append(dense)
    return out


def signed_pairs(rows):
    """Sparse rows of +-1 entries as the signed (plus, minus) column
    bitmask pairs that qlin.rank reads; ValueError on any other entry."""
    out = []
    for row in rows:
        plus = minus = 0
        for j, x in row.items():
            if x == 1:
                plus |= 1 << j
            elif x == -1:
                minus |= 1 << j
            else:
                raise ValueError(f"entry {x} is not +-1")
        out.append((plus, minus))
    return out


def signed_rows(pairs):
    """Signed (plus, minus) bitmask pairs as the sparse {column: +-1} maps
    of their nonzero entries, read off the binary digits of each mask."""
    out = []
    for plus, minus in pairs:
        row = {}
        for m, sign in ((plus, 1), (minus, -1)):
            for j, digit in enumerate(reversed(bin(m)[2:])):
                if digit == "1":
                    row[j] = sign
        out.append(row)
    return out


def nullspace(rows, cols=None):
    """Canonical integer basis of the right nullspace.

    One basis vector per free column, in column order, each normalized via
    normalize_ray.  cols is required when rows is empty.
    """
    rows = [row for row in rows]
    if cols is None:
        if not rows:
            raise ValueError("cols is required for an empty matrix")
        cols = len(rows[0])
    if cols == 0:
        return []
    m = _int_rows(rows)
    m = [row for row in m if any(row)]
    piv = _echelon(m)
    pivset = set(piv)
    basis = []
    for f in (c for c in range(cols) if c not in pivset):
        x = [Fraction(0)] * cols
        x[f] = Fraction(1)
        for r in reversed(range(len(piv))):
            c = piv[r]
            s = sum(m[r][j] * x[j] for j in range(c + 1, cols) if x[j])
            x[c] = Fraction(-s, m[r][c])
        basis.append(normalize_ray(x))
    return basis


def solve_unique(rows, rhs):
    """The unique rational solution of rows * x = rhs, or None.

    None covers both an inconsistent system and one with a free variable;
    callers that must tell the two apart should inspect ranks directly.
    """
    rows = [list(row) for row in rows]
    if not rows:
        return None
    cols = len(rows[0])
    aug = _int_rows([row + [b] for row, b in zip(rows, rhs)])
    piv = _echelon(aug)
    if cols in piv:
        return None  # pivot in the rhs column: inconsistent
    if len(piv) < cols:
        return None
    x = [Fraction(0)] * cols
    for r in reversed(range(cols)):
        c = piv[r]
        s = sum(aug[r][j] * x[j] for j in range(c + 1, cols) if x[j])
        x[c] = Fraction(aug[r][cols] - s, aug[r][c])
    return tuple(x)


class ZeroVectorError(sm.SupermodError, ValueError):
    """A nonzero vector was required."""


def normalize_ray(vec):
    """Scale to coprime integers with the first nonzero entry positive."""
    fracs = [x if isinstance(x, Fraction) else Fraction(x) for x in vec]
    if not any(fracs):
        raise ZeroVectorError("cannot normalize the zero vector")
    den = 1
    for x in fracs:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    first = next(x for x in ints if x)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def upper_covers(lat, a):
    """The elements of lat that cover the down-set a: a plus one player."""
    lat.position(a)
    return [c for c in lat.elements if c & a == a and (c ^ a).bit_count() == 1]


def interval(lat, a, b):
    """The elements c of lat with a <= c <= b, canonically ordered."""
    return [c for c in lat.elements if not (a & ~c or c & ~b)]


def lower_covers(lat, a):
    """The elements of lat covered by the down-set a: a less one player
    that has no player above it in a."""
    lat.position(a)
    p = lat.poset
    players = sm.players_from_mask(a)
    return [
        a & ~(1 << (i - 1))
        for i in players
        if not any(p.leq(i, j) for j in players if j != i)
    ]


@dataclass(frozen=True, order=True)
class EqualityPair:
    """Unordered incomparable pair on which a game happens to be modular.

    a precedes b in the canonical (cardinality, mask) element order.
    """

    a: int
    b: int


def equality_pairs(v):
    """All incomparable pairs where v is modular, canonically ordered, by an
    O(L^2) scan."""
    els = v.lattice.elements
    val = dict(zip(els, v.values))
    return [
        EqualityPair(a, b)
        for k, a in enumerate(els)
        for b in els[k + 1 :]
        if a & ~b and b & ~a and val[a | b] + val[a & b] == val[a] + val[b]
    ]


@dataclass(frozen=True)
class TightFamily:
    """Per permutation: the tight elements and the zero-increment players."""

    perms: tuple
    tight: dict
    zeros: dict


def tight_family(v):
    """TightFamily of v over all maximal chains, from the package's chain
    kernel (_chain_increments) and one call of its tight kernel on the
    integer marginal vectors of every chain (tight_sets and zero_coords
    are its one-chain case), with the tight positions it yields read back
    as element masks."""
    lat = v.lattice
    val, _ = _scaled_values(v)
    chains = lat.maximal_chains()
    vectors = [_chain_increments(v, c) for c in chains]
    perms = tuple(c.perm for c in chains)
    split = _split(lat)
    tight = [frozenset(map(lat.elements.__getitem__, t)) for t in _tight(lat, split, val, vectors)]
    zeros = [frozenset(i for i, t in enumerate(x, start=1) if not t) for x in vectors]
    return TightFamily(perms, dict(zip(perms, tight)), dict(zip(perms, zeros)))


def core_structure(v):
    """TightFamily of a supermodular game."""
    if not sm.is_supermodular(v):
        raise sm.NotSupermodularError("core structure needs a supermodular game")
    return tight_family(v)


def payoff_equality_system(v):
    """The payoff system that is_extreme ranks, for any supermodular game,
    as sparse {column: +-1} rows; returns (rows, ncols) (dense_rows turns
    the rows into the lists oracle_rank reads).

    The criterion's column k*n + i (player i+1 under vertex k) is
    renumbered to the count of smaller columns that some row holds.  That
    is oracle_vertex_rows' numbering, vertex by vertex and player by
    player, whenever every unpinned column occurs in a row, as it does
    with two vertices or more: the rows of the grand coalition hold them
    all.
    """
    pairs, ncols = cone._payoff_rows(cone._Plan(v.lattice), _scaled_values(v)[0])
    rows = signed_rows(pairs)
    col = {j: k for k, j in enumerate(sorted({j for row in rows for j in row}))}
    return [{col[j]: x for j, x in row.items()} for row in rows], ncols


def game_equality_system(v):
    """The tight facet rows that the games criterion of is_extreme
    (cone._games_extreme) ranks, for any supermodular game; returns
    (rows, d) with sparse rows, as above."""
    plan = cone._Plan(v.lattice)
    return signed_rows(cone._game_rows(plan, _scaled_values(v)[0])), plan.d


def games_extreme(v):
    """The games criterion of is_extreme alone, on a fresh plan of its own,
    so a test can hold it against is_extreme, which runs both criteria."""
    return cone._games_extreme(cone._Plan(v.lattice), _scaled_values(v)[0])


def oracle_facet_rows(lat):
    """The inequality of every covering square over the free coordinates
    of lat, in oracle_facet_triples order, as the {coordinate: entry} map
    of its nonzero entries, with the number of join-irreducible sides of
    the square; returns (rows, sides).

    A join-irreducible element (oracle_join_irreducibles) is worth what
    its one lower cover is worth, so a corner's value sits at the element
    reached by stepping down to lower covers while the element is
    join-irreducible: none for the empty set, and otherwise a free
    coordinate, numbered in element order.  Each corner adds its sign, +1
    at base+i+j and at base and -1 at base+i and at base+j, to the count
    of its coordinate, and the nonzero counts are the row.
    """
    p = lat.poset
    ji = set(oracle_join_irreducibles(p))
    col = {a: k for k, a in enumerate(a for a in lat.elements if a and a not in ji)}

    def coordinate(a):
        while a in ji:
            (a,) = lower_covers(lat, a)
        return col.get(a)

    rows, sides = [], []
    for base, i, j in oracle_facet_triples(p):
        wi, wj = base | 1 << (i - 1), base | 1 << (j - 1)
        count = {}
        for a, sign in ((wi | wj, 1), (base, 1), (wi, -1), (wj, -1)):
            c = coordinate(a)
            if c is not None:
                count[c] = count.get(c, 0) + sign
        rows.append({c: x for c, x in count.items() if x})
        sides.append((wi in ji) + (wj in ji))
    return rows, sides


def oracle_payoff_rows(w):
    """The payoff system of a 0-normalized supermodular game w built
    densely, one list of ncols entries per row; returns (rows, ncols).

    Columns are keyed by (chain index, player) in permutation-major order,
    less the players with a zero increment along the chain.  For every
    element, each pair of consecutive chains tight there gets a row
    equating their coalition totals; zero rows and repeated rows are
    dropped.
    """
    lat = w.lattice
    n = lat.poset.n
    fam = tight_family(w)
    col = {}
    by_element = {}
    for k, p in enumerate(fam.perms):
        for i in range(1, n + 1):
            if i not in fam.zeros[p]:
                col[k, i] = len(col)
        for a in fam.tight[p]:
            by_element.setdefault(a, []).append(k)
    rows = []
    seen = set()
    for a in lat.elements[1:]:
        ks = by_element[a]
        for k, l in zip(ks, ks[1:]):
            row = [0] * len(col)
            for i in sm.players_from_mask(a):
                if (k, i) in col:
                    row[col[k, i]] += 1
                if (l, i) in col:
                    row[col[l, i]] -= 1
            if any(row) and tuple(row) not in seen:
                seen.add(tuple(row))
                rows.append(row)
    return rows, len(col)


def oracle_vertex_rows(w):
    """The payoff system of a 0-normalized supermodular game w with one
    block per core vertex, built from Fraction payoffs with column lists;
    returns (rows, ncols), the rows and their order as _payoff_rows gives
    them.

    Blocks follow core_vertices order and hold each vertex's nonzero
    coordinates.  For every element, in element order, each pair of
    consecutive vertices tight there gets a row that is 1 on the element's
    columns under the first and -1 under the second; empty and repeated
    rows are dropped.
    """
    verts = sm.core_vertices(w)
    cols = []
    ncols = 0
    for x in verts:
        cols.append({})
        for i, t in enumerate(x, start=1):
            if t:
                cols[-1][i] = ncols
                ncols += 1
    rows = []
    seen = set()
    for a in w.lattice.elements[1:]:
        members = sm.players_from_mask(a)
        ks = [k for k, x in enumerate(verts) if sm.payoff(x, a) == w.value(a)]
        for k, l in zip(ks, ks[1:]):
            row = {cols[k][i]: 1 for i in members if i in cols[k]}
            row.update({cols[l][i]: -1 for i in members if i in cols[l]})
            if row and frozenset(row.items()) not in seen:
                seen.add(frozenset(row.items()))
                rows.append(row)
    return rows, ncols


def _dense_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def oracle_double_description(rows, dim):
    """Extreme rays of the pointed cone {z in Q^dim : row . z >= 0}.

    Insertion algorithm over exact integers.  A basis of the ambient space
    acts as the initial lineality: a constraint that meets it pivots one
    basis vector out and turns it into a ray; once orthogonal to the
    remaining lineality, constraints split the rays by sign and adjacent
    plus/minus pairs are combined.  Adjacency is the algebraic test: the
    constraints processed so far that are tight at both rays must have rank
    dim - |lineality| - 2.  Raises ValueError if a lineality direction
    survives every constraint (non-pointed input).

    Rows are sparse {column: entry} maps, as double_description reads
    them; they are densified once, and only the rank test reads the maps.
    """
    lin = [[1 if k == t else 0 for k in range(dim)] for t in range(dim)]
    rays = []
    processed = []
    for a, sparse in zip(dense_rows(rows, dim), rows):
        sdots = [_dense_dot(a, b) for b in lin]
        pivot = next((t for t, s in enumerate(sdots) if s), None)
        if pivot is not None:
            b0 = lin.pop(pivot)
            s0 = sdots.pop(pivot)
            lin = [
                list(_reduce([s0 * x - sb * y for x, y in zip(b, b0)]))
                for b, sb in zip(lin, sdots)
            ]
            sign = 1 if s0 > 0 else -1
            new_rays = []
            for r in rays:
                t = _dense_dot(a, r)
                new_rays.append(
                    _reduce([abs(s0) * x - sign * t * y for x, y in zip(r, b0)])
                )
            if sign < 0:
                b0 = [-x for x in b0]
            new_rays.append(_reduce(b0))
            rays = new_rays
        else:
            dots = [_dense_dot(a, r) for r in rays]
            plus = [(r, t) for r, t in zip(rays, dots) if t > 0]
            zero = [r for r, t in zip(rays, dots) if t == 0]
            minus = [(r, t) for r, t in zip(rays, dots) if t < 0]
            if minus:
                target = dim - len(lin) - 2

                def tight_mask(r):
                    mask = 0
                    for idx, (p, _) in enumerate(processed):
                        if _dense_dot(p, r) == 0:
                            mask |= 1 << idx
                    return mask

                plus_masks = [tight_mask(r) for r, _ in plus]
                minus_masks = [tight_mask(r) for r, _ in minus]
                combos = []
                for (rp, tp), zp in zip(plus, plus_masks):
                    for (rm, tm), zm in zip(minus, minus_masks):
                        common = zp & zm
                        if common.bit_count() < target:
                            continue
                        zrows = [
                            processed[idx][1]
                            for idx in range(len(processed))
                            if common >> idx & 1
                        ]
                        if qlin._eliminate(map(dict, zrows)) == target:
                            combos.append(
                                _reduce([tp * xm - tm * xp for xp, xm in zip(rp, rm)])
                            )
                rays = [r for r, _ in plus] + zero + combos
        processed.append((a, sparse))
    if lin:
        raise ValueError("the inequality system leaves a lineality space")
    return rays


def oracle_automorphisms(p):
    """Every permutation of the players under which i <= j exactly when
    their images are, as tuples whose entry i-1 is the image of player i,
    found by trying all n! permutations in lexicographic order."""
    players = range(1, p.n + 1)
    return [
        perm
        for perm in permutations(players)
        if all(p.leq(i, j) == p.leq(perm[i - 1], perm[j - 1]) for i in players for j in players)
    ]


def oracle_orbit(v):
    """The value tuples of the games A -> v(image of A) over every
    permutation of oracle_automorphisms, which moves a coalition player by
    player."""
    lat = v.lattice
    n = lat.poset.n
    return {
        tuple(
            v.value(sm.mask_from_players([perm[i - 1] for i in sm.players_from_mask(a)], n))
            for a in lat.elements
        )
        for perm in oracle_automorphisms(lat.poset)
    }


def oracle_core_vertices(v):
    """Core vertices by brute force over active-constraint subsets.

    A vertex solves n tight constraints at once: the efficiency row plus
    n-1 proper coalition rows.  Keep the unique solutions that lie in the
    core; this never looks at marginal vectors.
    """
    lat = v.lattice
    n = lat.poset.n
    proper = [a for a in lat.elements if a not in (0, lat.top)]

    def row(mask):
        return [1 if mask >> k & 1 else 0 for k in range(n)]

    verts = set()
    for combo in combinations(proper, n - 1):
        rows = [row(a) for a in combo] + [row(lat.top)]
        rhs = [v.value(a) for a in combo] + [v.value(lat.top)]
        x = solve_unique(rows, rhs)
        if x is not None and sm.core_contains(v, x):
            verts.add(x)
    return sorted(verts)


def marginal_set(v):
    return sorted({sm.marginal_vector(v, c) for c in v.lattice.maximal_chains()})


def oracle_lower_envelope(v, mask):
    """Least total on mask over the marginal vectors of every maximal chain."""
    return min(
        sm.payoff(sm.marginal_vector(v, c), mask) for c in v.lattice.maximal_chains()
    )


def oracle_face_compare(v, w):
    """Face relation read off the tight families of all maximal chains: a
    smaller face has larger tight sets along every chain."""
    tv = tight_family(v).tight
    tw = tight_family(w).tight
    w_inside_v = all(tw[p] <= tv[p] for p in tv)
    v_inside_w = all(tv[p] <= tw[p] for p in tv)
    if w_inside_v and v_inside_w:
        return "equal"
    if w_inside_v:
        return "below"
    if v_inside_w:
        return "above"
    return "incomparable"


def random_poset(rng, n):
    """Poset on 1..n: the players are put in a random order and each one
    lies below each later one with probability 1/3 (before closure)."""
    label = rng.sample(range(1, n + 1), n)
    covers = [
        (label[x], label[y])
        for x in range(n)
        for y in range(x + 1, n)
        if rng.random() < 1 / 3
    ]
    return sm.poset_from_covers(n, covers)


def random_game(rng, lat, lo=-5, hi=5):
    vals = [0] + [rng.randint(lo, hi) for _ in lat.elements[1:]]
    return sm.Game(lat, vals)


def random_modular(rng, lat, lo=-5, hi=5):
    targets = {i: rng.randint(lo, hi) for i in range(1, lat.poset.n + 1)}
    return sm.modular_from_irreducibles(lat, targets)


def random_fraction(rng, lo=-5, hi=5):
    """A rational with denominator 2, 3 or 4 (before reduction)."""
    return Fraction(rng.randint(lo, hi), rng.choice((2, 3, 4)))


def random_unanimity_sum(rng, lat, terms=3):
    """Supermodular: a positive rational combination of a few unanimity
    games of nonempty down-sets, plus a modular game, all with
    denominators 2, 3 and 4."""
    g = sm.modular_from_irreducibles(
        lat, {i: random_fraction(rng) for i in range(1, lat.poset.n + 1)}
    )
    for a in rng.sample(lat.elements[1:], min(terms, len(lat.elements) - 1)):
        g = g + random_fraction(rng, 1, 5) * sm.unanimity(lat, a)
    return g


def random_conic(rng, rays, hi=3, min_nonzero=0):
    while True:
        coeffs = [rng.randint(0, hi) for _ in rays]
        if sum(1 for c in coeffs if c) >= min_nonzero:
            break
    g = sm.zero_game(rays[0].lattice)
    for c, r in zip(coeffs, rays):
        if c:
            g = g + c * r
    return g


def random_supermodular(rng, lat, rays):
    return random_conic(rng, rays) + random_modular(rng, lat)


@pytest.fixture(scope="session")
def hier4():
    return sm.build_lattice(sm.poset_from_covers(4, [(2, 1), (3, 1)]))


@pytest.fixture(scope="session")
def flat3():
    return sm.build_lattice(sm.poset_from_covers(3, []))


@pytest.fixture(scope="session")
def flat4():
    return sm.build_lattice(sm.poset_from_covers(4, []))


@pytest.fixture(scope="session")
def chain3():
    return sm.build_lattice(sm.poset_from_covers(3, [(1, 2), (2, 3)]))


@pytest.fixture(scope="session")
def chain4():
    return sm.build_lattice(sm.poset_from_covers(4, [(1, 2), (2, 3), (3, 4)]))


@pytest.fixture(scope="session")
def chain1200():
    # deeper than the interpreter's default recursion limit
    return sm.build_lattice(sm.poset_from_covers(1200, [(i, i + 1) for i in range(1, 1200)]))


@pytest.fixture(scope="session")
def single1():
    return sm.build_lattice(sm.poset_from_covers(1, []))


@pytest.fixture(scope="session")
def mixed5():
    return sm.build_lattice(sm.poset_from_covers(*LADDER["mixed5"]))


@pytest.fixture(scope="session")
def wedge_chain5():
    # players 1 and 2 below 3, beside the chain 4 < 5
    return sm.build_lattice(sm.poset_from_covers(5, [(1, 3), (2, 3), (4, 5)]))


@pytest.fixture(scope="session")
def hier4_games(hier4):
    return [game_from_table(hier4, t) for t in HIER4_GENERATORS]


@pytest.fixture(scope="session")
def hier4_rays(hier4):
    return sm.extreme_rays(hier4)


@pytest.fixture(scope="session")
def flat3_rays(flat3):
    return sm.extreme_rays(flat3)


@pytest.fixture(scope="session")
def flat4_rays(flat4):
    return sm.extreme_rays(flat4)


@pytest.fixture(scope="session")
def dd_random_lattices():
    """40 seeded random lattices on 4-6 players with at most 24 elements,
    each as (lattice, facet rows, dimension, the rows in a seeded shuffled
    order), the rows as the {coordinate: entry} maps that
    double_description reads."""
    rng = random.Random(6607)
    out = []
    while len(out) < 40:
        lat = sm.build_lattice(random_poset(rng, rng.randint(4, 6)))
        if len(lat.elements) > 24:
            continue
        _, pairs, d, _ = cone._facet_rows(lat)
        rows = signed_rows(pairs)
        out.append((lat, rows, d, rng.sample(rows, len(rows))))
    return out


@pytest.fixture(scope="session")
def one_rel5_rays():
    """The 241 extreme rays on five players with the one relation 1 < 2."""
    return sm.extreme_rays(sm.build_lattice(sm.poset_from_covers(5, [(1, 2)])))
