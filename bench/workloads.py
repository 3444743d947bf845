"""Seeded inputs and known-answer checks for the three benchmark workloads.

Everything here is independent of the package under test: down-sets,
maximal elements, game values, Moebius coefficients and the expected answer
of every CLI call are derived from how each input was built, so a wrong
answer from the program cannot also be the expected one.

Facts the expected answers rest on (for the lattice of down-sets of a poset):

* u_a, the unanimity game of a down-set a, is supermodular; a nonnegative
  combination of unanimity games plus a modular game is supermodular, and it
  is modular only when every unanimity coefficient sits on a join-irreducible
  (principal) down-set.
* The Moebius transform of sum c_a u_a + sum_i w_i [i in S] is {a: c_a} plus
  {down(i): w_i}.
* Along a compatible permutation the marginal vector of u_a is e_m with m
  the last player of a to enter; every maximal element of a can be last, so
  the core vertices of c u_a + modular(w) are {c e_m + w : m maximal in a},
  and for disjoint a, b every pair of choices occurs together.
* The lower envelope of a supermodular game at a down-set S is v(S).
* Tight families are unchanged by positive scaling and modular shifts, the
  family of c u_a + c' u_b is the intersection of the two, and it is a
  strictly smaller family than that of u_a whenever b is not inside a.
* For non-join-irreducible a, u_a spans an extreme ray; the sum of two such
  games with distinct supports does not.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable

# name -> (n, cover pairs (i, j) read as "i below j")
POSETS = {
    "hier4": (4, [[2, 1], [3, 1]]),
    "flat4": (4, []),
    "mixed5": (5, [[2, 1], [3, 1]]),
    "one-rel5": (5, [[1, 2]]),
    "flat6": (6, []),
    "hier6": (6, [[2, 1], [3, 1]]),
    "flat7": (7, []),
    "hier8": (8, [[2, 1], [3, 1]]),
    "flat8": (8, []),
    "flat9": (9, []),
    "forest10": (10, [[2, 1], [3, 1], [5, 4], [6, 4], [8, 7]]),
}

# Known extreme-ray counts of the fixed ladder, and sha256 digests of the
# canonical JSON printed by `cone rays` on it and of the
# `reproduce-paper --format table` report.  Outputs must stay byte-identical.
RAY_COUNTS = {"hier4": 6, "flat4": 37, "mixed5": 52}
RAYS_SHA256 = {
    "hier4": "d5c104b648eb5cfaae6d573c4db585becdd52ba36f570052a3765657f8281059",
    "flat4": "fea3e7743460c1e4f7af0383b9a7f414ca9b1c07778b0a35005841e2132f1420",
    "mixed5": "5142fc67b1455b85febd07fdf665bc8b221e5ae17955e71c863e7c7761b1fada",
}
REPRODUCE_TABLE_SHA256 = "4fe62e452f237c8c8ddfff47d3b79494bb88869e22f590ea68b18a847e5fbc36"

RAY_LADDER = ("hier4", "flat4", "mixed5")
EXTREME_POSETS = ("hier4", "flat4", "mixed5", "one-rel5")
CLASSIFY_POSETS = ("flat8", "forest10", "flat9")
CORE_POSETS = ("flat7", "hier8", "flat8")
FACE_POSETS = ("flat6", "hier6")
# Each face relation once per batch; face-compare costs the same for all four.
FACE_RELATIONS = {"flat6": ("above", "incomparable"), "hier6": ("equal", "below")}


# -- bench-side order theory ------------------------------------------------------


def bits(mask):
    while mask:
        b = mask & -mask
        yield b
        mask ^= b


def players(mask):
    return [b.bit_length() for b in bits(mask)]


def coalition_key(mask):
    return json.dumps(players(mask), separators=(",", ":"))


class Order:
    """A poset on players 1..n with its down-sets, enumerated by brute force."""

    def __init__(self, name, n, covers):
        self.name = name
        self.n = n
        below = [1 << i for i in range(n)]
        changed = True
        while changed:
            changed = False
            for i, j in covers:
                new = below[j - 1] | below[i - 1]
                if new != below[j - 1]:
                    below[j - 1] = new
                    changed = True
        self.down = below  # down[i - 1]: principal down-set of player i
        self.elements = sorted(
            (s for s in range(1 << n) if all(below[b.bit_length() - 1] & ~s == 0 for b in bits(s))),
            key=lambda s: (s.bit_count(), s),
        )
        principal = set(below)
        self.reducible = [s for s in self.elements if s and s not in principal]

    def maximal(self, a):
        """Players of a that lie below no other player of a."""
        return [
            b.bit_length()
            for b in bits(a)
            if not any(self.down[c.bit_length() - 1] & b for c in bits(a & ~b))
        ]

    def addable(self, s):
        return [
            b for b in (1 << i for i in range(self.n))
            if not s & b and not self.down[b.bit_length() - 1] & ~(s | b)
        ]


# -- games built with a known structure -----------------------------------------


@dataclass
class BenchGame:
    order: Order
    coeffs: dict  # unanimity coefficients {down-set mask: c}
    weights: tuple  # modular part: player i contributes weights[i - 1]
    values: dict = field(default_factory=dict)  # {element: v(element)}
    moebius_known: bool = True
    path: str = ""

    def __post_init__(self):
        if not self.values:
            self.values = {
                s: sum((c for a, c in self.coeffs.items() if not a & ~s), Fraction(0))
                + sum((self.weights[p - 1] for p in players(s)), Fraction(0))
                for s in self.order.elements
            }

    def moebius(self):
        out = {a: c for a, c in self.coeffs.items() if c}
        for i, w in enumerate(self.weights):
            if w:
                out[self.order.down[i]] = out.get(self.order.down[i], 0) + w
        return {a: c for a, c in out.items() if c}

    def payload(self):
        return {
            "poset": self.order.name + ".json",
            "values": {coalition_key(s): str(v) for s, v in self.values.items() if v},
        }


# Denominators are fixed and numerators coprime to them, so the cost of the
# Fraction arithmetic, and the number of nonzero values, vary little by seed.
DENOMINATORS = (2, 3, 4)


def _ratio(rng, q):
    return Fraction(rng.choice([p for p in range(1, 10) if gcd(p, q) == 1]), q)


def _weights(rng, n):
    return tuple(Fraction(rng.choice((-3, -1, 1, 3)), 2) for _ in range(n))


def unanimity_game(rng, order, supports):
    coeffs = {a: _ratio(rng, DENOMINATORS[k % 3]) for k, a in enumerate(supports)}
    return BenchGame(order, coeffs, _weights(rng, order.n))


def violated_game(rng, order, k):
    """A supermodular combination with one covering square pushed below zero.

    The square sits at the bottom of the lattice (base of at most one
    player), so the early exit of a supermodularity scan comes at a similar
    point for every seed.
    """
    g = unanimity_game(rng, order, rng.sample(order.reducible, k))
    squares = [s for s in order.elements if s.bit_count() <= 1 and len(order.addable(s)) >= 2]
    s = rng.choice(squares)
    bi, bj = rng.sample(order.addable(s), 2)
    v = dict(g.values)
    top = s | bi | bj
    slack = v[top] + v[s] - v[s | bi] - v[s | bj]
    v[top] -= slack + _ratio(rng, 2)
    return BenchGame(order, g.coeffs, g.weights, v, moebius_known=False)


def modular_game(rng, order):
    return BenchGame(order, {}, _weights(rng, order.n))


def not_inside(order, a):
    """Non-join-irreducible down-sets b with b not contained in a."""
    return [b for b in order.reducible if b & ~a]


# -- parsing and checking CLI output ---------------------------------------------


def _mask(key):
    m = 0
    for p in json.loads(key):
        m |= 1 << (p - 1)
    return m


def _game_map(payload):
    return {_mask(k): Fraction(v) for k, v in payload.items()}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_rays(name):
    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        count = json.loads(out)["count"]
        if count != RAY_COUNTS[name]:
            return f"{count} rays, expected {RAY_COUNTS[name]}"
        if sha256(out) != RAYS_SHA256[name]:
            return "ray output differs from the recorded bytes"
        return None

    return check


def check_dim(order):
    expected = {"dimension": len(order.elements) - 1 - order.n, "ambient": len(order.elements) - 1}

    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        got = json.loads(out)
        return None if got == expected else f"{got} != {expected}"

    return check


def check_reproduce(rc, out):
    if rc != 0:
        return f"exit {rc}"
    if sha256(out) != REPRODUCE_TABLE_SHA256:
        return "reproduce-paper table differs from the recorded bytes"
    return None


def check_extreme(expected):
    def check(rc, out):
        if rc != (0 if expected else 1):
            return f"exit {rc}"
        got = json.loads(out)
        want = {"extreme": expected, "method": "both", "system": expected, "games": expected}
        return None if got == want else f"{got} != {want}"

    return check


def check_class(cls, expected):
    def check(rc, out):
        if rc != (0 if expected else 1):
            return f"exit {rc}"
        got = json.loads(out)
        want = {"class": cls, "result": expected}
        return None if got == want else f"{got} != {want}"

    return check


def check_moebius(game):
    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        got = _game_map(json.loads(out)["values"])
        if game.moebius_known:
            return None if got == game.moebius() else "Moebius coefficients differ"
        elements = set(game.order.elements)
        if not set(got) <= elements:
            return "Moebius support outside the lattice"
        for s in game.order.elements:
            total = Fraction(0)
            sub = s
            while True:  # zeta re-summation over the subsets of s
                total += got.get(sub, 0)
                if sub == 0:
                    break
                sub = (sub - 1) & s
            if total != game.values[s]:
                return f"zeta re-summation differs at {players(s)}"
        return None

    return check


def check_normalize(game):
    order = game.order

    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        got = json.loads(out)
        w = _game_map(got["zero_normalized"])
        m = _game_map(got["modular"])
        for s in order.elements:
            if w.get(s, 0) + m.get(s, 0) != game.values[s]:
                return f"parts do not add up at {players(s)}"
        step = [m.get(d, 0) - m.get(d & ~(1 << i), 0) for i, d in enumerate(order.down)]
        for s in order.elements:
            if m.get(s, 0) != sum((step[p - 1] for p in players(s)), Fraction(0)):
                return f"modular part is not modular at {players(s)}"
        for i, d in enumerate(order.down):
            if w.get(d, 0) != w.get(d & ~(1 << i), 0):
                return f"0-normalized part moves at the down-set of player {i + 1}"
        return None

    return check


def expected_vertices(game):
    vecs = [list(game.weights)]
    for a, c in game.coeffs.items():
        vecs = [
            [x + (c if p == m else 0) for p, x in enumerate(vec, start=1)]
            for vec in vecs
            for m in game.order.maximal(a)
        ]
    return [[str(x) for x in vec] for vec in sorted(tuple(v) for v in vecs)]


def check_vertices(game):
    want = expected_vertices(game)

    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        got = json.loads(out)
        if got != {"count": len(want), "vertices": want}:
            return f"{got['count']} vertices, expected {len(want)} known ones"
        return None

    return check


def check_envelope(game, s):
    want = {"coalition": players(s), "value": str(game.values[s])}

    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        got = json.loads(out)
        return None if got == want else f"{got} != {want}"

    return check


def check_face(relation):
    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        got = json.loads(out)
        return None if got == {"relation": relation} else f"{got} != {relation}"

    return check


# -- workloads ----------------------------------------------------------------------


@dataclass
class Op:
    """One CLI invocation: the metric it counts toward, its argv and its check."""

    cmd: str
    argv: list
    check: Callable


@dataclass
class Workload:
    name: str
    ops: list
    posets: list  # poset files whose lattices the set-up time builds
    inputs_sha256: str


class _Inputs:
    def __init__(self, workdir):
        self.workdir = workdir
        self.files = {}
        self.orders = {}

    def poset(self, name):
        if name not in self.orders:
            n, covers = POSETS[name]
            self.orders[name] = Order(name, n, covers)
            self._write(name + ".json", {"n": n, "covers": covers})
        return self.orders[name]

    def game(self, label, game):
        game.path = self._write(f"{label}.json", game.payload())
        return game

    def _write(self, name, payload):
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.files[name] = text
        return path

    def path(self, name):
        return os.path.join(self.workdir, name + ".json")

    def digest(self):
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        return h.hexdigest()


def _enumerate(inp, rng):
    ops = []
    for name in RAY_LADDER:
        inp.poset(name)
        ops.append(Op("rays", ["cone", "rays", inp.path(name)], check_rays(name)))
    for name in RAY_LADDER:
        ops.append(Op("dim", ["cone", "dim", inp.path(name)], check_dim(inp.poset(name))))
    ops.append(Op("reproduce", ["reproduce-paper", "--format", "table"], check_reproduce))
    for name in EXTREME_POSETS:
        order = inp.poset(name)
        for k in range(3):
            g = inp.game(f"{name}-ext{k}", unanimity_game(rng, order, [rng.choice(order.reducible)]))
            ops.append(Op("is_extreme", ["cone", "is-extreme", g.path], check_extreme(True)))
            g = inp.game(f"{name}-sum{k}", unanimity_game(rng, order, rng.sample(order.reducible, 2)))
            ops.append(Op("is_extreme", ["cone", "is-extreme", g.path], check_extreme(False)))
    return ops, list(RAY_LADDER) + ["one-rel5"]


def _classify(inp, rng):
    ops = []
    for name in CLASSIFY_POSETS:
        order = inp.poset(name)
        # one two-player support makes the modularity scan exit early for every seed
        pair = rng.choice([a for a in order.reducible if a.bit_count() == 2])
        supports = [pair] + rng.sample([a for a in order.reducible if a != pair], 2)
        games = [
            ("super", unanimity_game(rng, order, supports), True, False),
            ("violated", violated_game(rng, order, 3), False, False),
            ("modular", modular_game(rng, order), True, True),
        ]
        for label, g, sup, mod in games:
            g = inp.game(f"{name}-{label}", g)
            ops += [
                Op("check", ["game", "check", g.path, "--class", "supermodular"],
                   check_class("supermodular", sup)),
                Op("check", ["game", "check", g.path, "--class", "modular"],
                   check_class("modular", mod)),
                Op("moebius", ["game", "moebius", g.path], check_moebius(g)),
                Op("normalize", ["game", "normalize", g.path], check_normalize(g)),
            ]
    return ops, list(CLASSIFY_POSETS)


def _core(inp, rng):
    ops = []
    for name in CORE_POSETS:
        order = inp.poset(name)
        pairs = [(a, b) for a in order.reducible for b in order.reducible if a < b and not a & b]
        a, b = rng.choice(pairs)
        g = inp.game(f"{name}-core", unanimity_game(rng, order, [a, b]))
        ops.append(Op("vertices", ["core", "vertices", g.path], check_vertices(g)))
        s = rng.choice(order.elements[1:])
        ops.append(Op("envelope", ["core", "envelope", g.path, "--coalition", coalition_key(s)],
                      check_envelope(g, s)))
    for name in FACE_POSETS:
        order = inp.poset(name)
        a = rng.choice([a for a in order.reducible if any(a & ~c for c in not_inside(order, a))])
        b = rng.choice(not_inside(order, a))
        c = rng.choice([c for c in not_inside(order, a) if a & ~c])
        pairs = {
            "equal": ([a], [a]),
            "above": ([a, b], [a]),
            "below": ([a], [a, b]),
            "incomparable": ([a], [c]),
        }
        for relation in FACE_RELATIONS[name]:
            s1, s2 = pairs[relation]
            g1 = inp.game(f"{name}-{relation}-1", unanimity_game(rng, order, s1))
            g2 = inp.game(f"{name}-{relation}-2", unanimity_game(rng, order, s2))
            ops.append(Op("face", ["cone", "face-compare", g1.path, g2.path], check_face(relation)))
    return ops, list(CORE_POSETS) + list(FACE_POSETS)


BUILDERS = {"enumerate": _enumerate, "classify": _classify, "core": _core}


def build(name, seed, workdir):
    """Write the inputs of a workload for a seed into workdir; same seed, same bytes."""
    inp = _Inputs(workdir)
    rng = random.Random(f"{name}:{seed}")
    ops, posets = BUILDERS[name](inp, rng)
    return Workload(name, ops, [inp.path(p) for p in posets], inp.digest())
