"""Command line front end.

Every subcommand is a thin adapter around the library: load inputs, call one
or two library functions, serialize.  JSON output is canonical (sorted keys,
rationals as "p/q" strings, coalitions as sorted player lists); table output
uses the compact digit notation for coalitions.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from itertools import islice, repeat
from math import gcd, lcm
from operator import itemgetter, mul

from .cone import (
    DEFAULT_MAX_CONE_ELEMENTS,
    DEFAULT_MAX_DD_RAYS,
    cone_dimension,
    extreme_rays,
    face_compare,
    facet_triples,
    is_extreme,
)
from .errors import CrossCheckError, SupermodError
from .game import (
    Game,
    _scaled_values,
    is_modular,
    is_monotone,
    is_nonnegative,
    is_supermodular,
    mobius_transform,
    zero_normalize,
)
from .lattice import DEFAULT_MAX_CHAINS, DEFAULT_MAX_ELEMENTS, build_lattice
from .marginals import (
    core_vertices,
    lower_envelope,
    marginal_vector,
    tight_sets,
    unboundedness_witness,
    zero_coords,
)
from .poset import (
    format_coalition,
    format_perm,
    mask_from_players,
    players_from_mask,
    poset_from_dict,
    poset_to_dict,
)

GOLDEN_RESOURCE = "data/reference_results.json"


# -- serialization helpers ----------------------------------------------------


def coalition_key(mask):
    """The compact JSON list of the mask's players, such as "[1,2,10]"."""
    return f"[{','.join(map(str, players_from_mask(mask)))}]"


def _table_coalition(key):
    """format_coalition of the mask whose coalition_key is key, written from
    the key: its players run together when the last, highest one has one
    digit, and stand in braces otherwise; "{}" for the key "[]"."""
    if len(key) > 2 and key[-3] in "[,":
        return key[1:-1].replace(",", "")
    return "{" + key[1:-1] + "}"


def coalition_keys(lat):
    """The coalition_key of every element of lat, by position; a command
    spells them once and passes the list to read_game and game_payload.

    In (cardinality, mask) order, a less its highest player top comes
    before a; when that is an element, a's key is its key with ",top]" in
    place of the closing "]".  Only the other elements, where top lies
    below another player of a, are spelled by coalition_key."""
    keys = ["[]"]  # the bottom, the empty coalition, comes first
    append = keys.append
    get = lat.index.get
    tails = [f",{i}]" for i in range(lat.poset.n + 1)]
    for a in islice(lat.elements, 1, None):
        top = a.bit_length()
        k = get(a ^ 1 << top - 1)
        if k:
            append(keys[k][:-1] + tails[top])
        elif k is None:
            append(coalition_key(a))
        else:
            append(f"[{top}]")
    return keys


def parse_perm(text):
    t = text.strip()
    if "," in t:
        return tuple(int(x) for x in t.split(","))
    if t.isdigit():
        return tuple(int(ch) for ch in t)
    raise ValueError(f"cannot parse permutation {text!r}")


def parse_coalition(text, n):
    t = text.strip()
    if t.startswith("["):
        players = _decode_json(t, "coalition")
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
    return mask_from_players(players, n)


# The plain spelling of a game value, that of str(Fraction) and so of
# game_payload: "p" or "p/q", p ASCII digits after an optional "-" and q
# ASCII digits naming a positive int.  A string is plain when all its
# characters are among _PLAIN, int reads each side of its first "/", and
# _plain_denominator takes the side after it.  parse_value tests one value
# by val.strip(_PLAIN) (not translate), which is faster on a short string,
# and _plain_values the joined values by translate (_NOT_PLAIN), which is
# faster on a long one; both ask the same of every character.
_PLAIN = "-/0123456789"
_NOT_PLAIN = str.maketrans("", "", _PLAIN)


def _plain_denominator(slash, den):
    """The denominator of a string of _PLAIN's characters split at its first
    "/" into (numerator, slash, den): 1 when there is no "/", else int(den)
    when that is positive, so den has no "-" and is not zero; ValueError
    otherwise."""
    q = int(den) if slash else 1
    if q > 0:
        return q
    raise ValueError(f"not a positive denominator: {den!r}")


def parse_value(val):
    """A game value as a pair (numerator, denominator) of ints, the
    denominator positive: an int, or a string Fraction reads.

    A plain string (see _PLAIN), the spelling of str(Fraction), is read as
    two ints, as written and not reduced; every other string goes to
    Fraction, whose grammar depends on the Python version, unless it ends
    in an exponent, as Fraction's grammar spells one, larger in magnitude
    than sys.get_int_max_str_digits() (when that is nonzero)."""
    if type(val) is str and not val.strip(_PLAIN):
        num, slash, den = val.partition("/")
        try:
            return int(num), _plain_denominator(slash, den)
        except ValueError:
            pass  # such as "--1" or "1/0": Fraction reads it or says why not
    if isinstance(val, bool):
        raise ValueError("game values must be integers or 'p/q' strings")
    if isinstance(val, int):
        return val, 1
    if isinstance(val, str):
        # Fraction builds 10**e for the exponent e it reads: refuse one past
        # the digit limit of int-string conversion (none before Python
        # 3.10.7), where the value could not be written out
        exp = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", val)
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if exp and limit and abs(int(exp[1])) > limit:
            raise ValueError(f"game value {val!r} has an exponent beyond the limit of {limit}")
        # imported here, not at the top: a plain spelling needs no Fraction
        from fractions import Fraction

        try:
            x = Fraction(val)
        except ZeroDivisionError:
            raise ValueError(f"game value {val!r} has a zero denominator") from None
        return x.numerator, x.denominator
    raise ValueError(f"game values must be integers or 'p/q' strings, got {val!r}")


def _plain_values(values):
    """A list of plain strings (see _PLAIN) read in whole-list passes, as
    (nums, den): den the lcm of their denominators and nums[i] the int
    values[i] * den.  None when some value is not a plain string.

    The passes run over the distinct spellings only, and one dict lookup
    per value maps them back; when every value is distinct they run over
    values itself, in table order, and nothing is mapped back.  The set is
    built only after the join has refused every non-string, since a set
    takes true and 1.0 for 1.  The order of the distinct spellings does not
    matter: any ValueError sends the whole table back to parse_value."""
    try:
        text = "".join(values)
    except TypeError:  # a JSON number, true, null, a list or an object
        return None
    if text.translate(_NOT_PLAIN):
        return None
    seen = set(values)
    distinct = list(seen) if len(seen) < len(values) else values
    parts = list(map(str.partition, distinct, repeat("/")))
    tails = list(map(itemgetter(1, 2), parts))
    try:
        nums = list(map(int, map(itemgetter(0), parts)))
        dens = {t: _plain_denominator(*t) for t in set(tails)}
    except ValueError:
        return None
    den = lcm(*dens.values())
    if den != 1:
        scale = {t: den // q for t, q in dens.items()}
        nums = list(map(mul, nums, map(scale.__getitem__, tails)))
    if distinct is not values:
        nums = list(map(dict(zip(distinct, nums)).__getitem__, values))
    return nums, den


def _over_lcm(pairs):
    """(nums, den) of (numerator, denominator) pairs: den the lcm of the
    denominators and nums the numerators scaled over it."""
    den = lcm(*map(itemgetter(1), pairs))
    return [p * (den // q) for p, q in pairs], den


def read_game(table, lat, keys):
    """The game on lat of a game file's "values" table.  keys holds the
    coalition_keys of lat; the keys' positions among them are gathered at
    once, and which of them are missing picks the read.

    A table whose keys are all among keys, as game_payload writes them, is
    read in whole-table passes.  When every value is a plain string (see
    _PLAIN), _plain_values reads them all: one check of their joined text,
    then, over the distinct spellings only, one partition pass, map(int) on
    the numerators, each distinct denominator spelling parsed once and each
    spelling scaled over the lcm, and, unless every value is distinct, one
    dict lookup per value to map them back.  Else parse_value reads each
    value in table order and _over_lcm scales them.  A canonical key names
    an element and no other canonical key names it, so the first fault of
    such a table is its first faulty value.

    A table with any other key, such as "12" or "[2,1]", is read by
    _read_entries, entry by entry in table order, each key before its
    value: a key among keys is looked up, any other goes to
    parse_coalition; _over_lcm scales the values.  ValueError at the first
    key that names no element or names the coalition of an earlier key,
    such as "12" after "[2,1]"; only after a key outside keys can that
    happen, so only from there on are the keys read so far kept by
    position.

    On a 2-core x86-64 machine under CPython 3.11.7, one call on a table of
    every nonzero value of a classify game at seed 1 (225-486 values in
    14-57 distinct spellings), fresh from json.loads, went from one pass
    over every value to one over each distinct spelling: flat8 0.145 ->
    0.078 ms, forest10 0.158 -> 0.089 ms, flat9 0.269 -> 0.139 ms.  A
    flat9 table of 511 values, all distinct, took 312 -> 329 us in "p/q"
    spellings and 241 -> 261 us as ints, the cost of the set that finds
    them distinct (medians of 8 alternating processes, best of 7 x 200 in
    each)."""
    if not isinstance(table, dict):
        raise ValueError(f'"values" must be a JSON object, got {table!r}')
    canonical = dict(zip(keys, range(len(keys))))
    pos = list(map(canonical.get, table))
    if None in pos:
        pos, pairs = _read_entries(table, lat, keys, canonical)
        nums, den = _over_lcm(pairs)
    else:
        values = list(table.values())
        nums, den = _plain_values(values) or _over_lcm(list(map(parse_value, values)))
    num = [0] * len(keys)
    for k, x in zip(pos, nums):
        num[k] = x
    return Game._from_ints(lat, num, den)


def _read_entries(table, lat, keys, canonical):
    """The positions of a table's keys and the parse_value pairs of its
    values, read entry by entry in table order as read_game says; canonical
    maps keys to positions."""
    n = lat.poset.n
    pos, pairs = [], []
    seen = None
    for key, val in table.items():
        k = canonical.get(key)
        if k is None:
            k = lat.position(parse_coalition(key, n))
            if seen is None:
                seen = dict(zip(pos, table))
        if seen is not None:
            if k in seen:
                raise ValueError(
                    f"coalition {keys[k]} is given twice, as {seen[k]!r} and as {key!r}"
                )
            seen[k] = key
        pairs.append(parse_value(val))
        pos.append(k)
    return pos, pairs


def _ratio_text(x, den):
    """str(Fraction(x, den)) for ints x and den > 0, by one gcd."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def _nonzero_values(game):
    """(position, text) of each nonzero value of game, by position, the
    text written from the stored integers: both output formats use it.
    Each distinct nonzero integer is spelled once, by one gcd."""
    num, den = _scaled_values(game)
    text = {x: _ratio_text(x, den) for x in set(num) if x}
    return ((k, text[x]) for k, x in enumerate(num) if x)


def game_payload(game, keys):
    """Nonzero values keyed by coalition, reusable as a game file "values";
    keys are the coalition_keys of the game's lattice."""
    return {keys[k]: v for k, v in _nonzero_values(game)}


def vector_payload(x):
    return [str(t) for t in x]


def value_lines(game, keys, indent, empty):
    """Table lines of the game's nonzero values, or [empty] for none; keys
    are the coalition_keys of the game's lattice, each coalition written
    from its key."""
    return [
        f"{indent}{_table_coalition(keys[k])}: {v}" for k, v in _nonzero_values(game)
    ] or [empty]


# -- input loading -------------------------------------------------------------


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return _decode_json(fh.read(), path)


def _decode_json(text, name):
    """json.loads(text), with a decoder RecursionError (nesting deeper than
    the interpreter's stack) turned into a ValueError naming the source,
    a file or "coalition"."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{name}: JSON nested too deeply to read") from None


def cap_value(text):
    """A size cap given as text: a nonnegative integer, else
    ArgumentTypeError, which argparse reports under the flag's name."""
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return cap


def lattice_cap(args):
    if args.max_lattice is not None:
        return args.max_lattice
    env = os.environ.get("SUPERMOD_MAX_LATTICE")
    if env:
        try:
            return cap_value(env)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"SUPERMOD_MAX_LATTICE {exc}") from None
    return DEFAULT_MAX_ELEMENTS


def load_poset(path):
    return poset_from_dict(_read_json(path))

def load_lattice(path, args):
    return build_lattice(load_poset(path), max_elements=lattice_cap(args))


def load_game(path, args):
    """The game of a game file and the coalition_keys of its lattice."""
    data = _read_json(path)
    if not isinstance(data, dict) or "poset" not in data:
        raise ValueError(f'{path}: a game file needs a "poset" entry')
    spec = data["poset"]
    if isinstance(spec, str):
        if not os.path.isabs(spec):
            spec = os.path.join(os.path.dirname(os.path.abspath(path)), spec)
        p = load_poset(spec)
    elif isinstance(spec, dict):
        p = poset_from_dict(spec)
    else:
        raise ValueError('"poset" must be a file name or an inline object')
    lat = build_lattice(p, max_elements=lattice_cap(args))
    keys = coalition_keys(lat)
    return read_game(data.get("values", {}), lat, keys), keys


def emit(args, lines, payload):
    """Prints the lines of lines() under --format table, else the JSON of
    payload(): two functions, of which only the one for the format runs."""
    if args.format == "table":
        for line in lines():
            print(line)
    else:
        print(json.dumps(payload(), sort_keys=True, indent=2))


# -- subcommands ----------------------------------------------------------------


def cmd_poset_show(args):
    p = load_poset(args.poset)
    players = range(1, p.n + 1)
    emit(args, lambda: [
        f"n = {p.n}",
        "covers: " + " ".join(f"{i}<{j}" for i, j in p.covers()),
        *(f"down({i}) = {format_coalition(p.principal_down_set(i))}" for i in players),
    ], lambda: {
        "n": p.n,
        "covers": [list(c) for c in p.covers()],
        "leq_pairs": [[i, j] for i in players for j in players if i != j and p.leq(i, j)],
        "principal_down_sets": {
            str(i): players_from_mask(p.principal_down_set(i)) for i in range(1, p.n + 1)
        },
    })
    return 0


def cmd_lattice_downsets(args):
    lat = load_lattice(args.poset, args)
    emit(args, lambda: map(format_coalition, lat.elements), lambda: {
        "count": len(lat.elements),
        "downsets": [players_from_mask(a) for a in lat.elements],
    })
    return 0


def cmd_lattice_chains(args):
    lat = load_lattice(args.poset, args)
    chains = lat.maximal_chains(max_chains=args.max_chains)
    emit(args, lambda: (
        f"{format_perm(c.perm)}: " + " < ".join(format_coalition(a) for a in c.sets)
        for c in chains
    ), lambda: {
        "count": len(chains),
        "chains": [
            {"perm": format_perm(c.perm), "sets": [players_from_mask(a) for a in c.sets]}
            for c in chains
        ],
    })
    return 0


def cmd_lattice_moebius(args):
    lat = load_lattice(args.poset, args)
    x = parse_coalition(args.from_set, lat.poset.n)
    y = parse_coalition(args.to_set, lat.poset.n)
    value = lat.mobius(x, y)
    emit(args, lambda: [f"mu({format_coalition(x)}, {format_coalition(y)}) = {value}"], lambda: {
        "from": players_from_mask(x),
        "to": players_from_mask(y),
        "value": str(value),
    })
    return 0


_CLASS_CHECKS = {
    "supermodular": is_supermodular,
    "modular": is_modular,
    "monotone": is_monotone,
    "nonnegative": is_nonnegative,
}


def cmd_game_check(args):
    g, _ = load_game(args.game, args)
    result = _CLASS_CHECKS[args.cls](g)
    emit(args, lambda: [f"{args.cls}: {'yes' if result else 'no'}"],
         lambda: {"class": args.cls, "result": result})
    return 0 if result else 1


def cmd_game_moebius(args):
    g, keys = load_game(args.game, args)
    t = mobius_transform(g)
    emit(args, lambda: value_lines(t, keys, "", "(zero transform)"),
         lambda: {"values": game_payload(t, keys)})
    return 0


def cmd_game_normalize(args):
    g, keys = load_game(args.game, args)
    w, m = zero_normalize(g)
    emit(args, lambda: [
        "zero-normalized part:", *value_lines(w, keys, "  ", "  0"),
        "modular part:", *value_lines(m, keys, "  ", "  0"),
    ], lambda: {"zero_normalized": game_payload(w, keys), "modular": game_payload(m, keys)})
    return 0


def cmd_core_vertices(args):
    g, _ = load_game(args.game, args)
    verts = core_vertices(g, max_chains=args.max_chains)
    emit(args, lambda: ("(" + ", ".join(str(t) for t in x) + ")" for x in verts),
         lambda: {"count": len(verts), "vertices": [vector_payload(x) for x in verts]})
    return 0


def cmd_core_tight(args):
    g, _ = load_game(args.game, args)
    chain = g.lattice.chain_from_perm(parse_perm(args.perm))
    x = marginal_vector(g, chain)
    tight = list(filter(tight_sets(g, chain).__contains__, g.lattice.elements))
    zero_players = sorted(zero_coords(g, chain))
    emit(args, lambda: [
        f"marginal: (" + ", ".join(str(t) for t in x) + ")",
        "tight: " + " ".join(format_coalition(a) for a in tight),
        "zero players: " + (" ".join(str(i) for i in zero_players) or "none"),
    ], lambda: {
        "perm": format_perm(chain.perm),
        "marginal": vector_payload(x),
        "tight": [players_from_mask(a) for a in tight],
        "zero_players": zero_players,
    })
    return 0


def cmd_core_envelope(args):
    g, _ = load_game(args.game, args)
    mask = parse_coalition(args.coalition, g.lattice.poset.n)
    value = lower_envelope(g, mask)
    emit(args, lambda: [f"min over chains of x({format_coalition(mask)}) = {value}"],
         lambda: {"coalition": players_from_mask(mask), "value": str(value)})
    return 0


def cmd_core_witness(args):
    lat = load_lattice(args.poset, args)
    x = unboundedness_witness(lat)
    emit(args, lambda: [
        "(" + ", ".join(str(t) for t in x) + ")" if x else "no witness: the order is flat"
    ], lambda: {"witness": vector_payload(x) if x else None})
    return 0 if x else 1


def cmd_cone_is_extreme(args):
    g, _ = load_game(args.game, args)
    extreme = is_extreme(g, max_chains=args.max_chains)
    payload = {"extreme": extreme, "method": "both", "system": extreme, "games": extreme}
    # an extreme game is never modular
    if not extreme and is_modular(g):
        payload["note"] = "0-normalized part is zero; non-extreme by convention"

    def lines():
        yield f"extreme: {'yes' if extreme else 'no'}"
        if "note" in payload:
            yield payload["note"]

    emit(args, lines, lambda: payload)
    return 0 if extreme else 1


def cmd_cone_rays(args):
    lat = load_lattice(args.poset, args)
    rays = extreme_rays(lat, max_elements=args.max_cone, max_rays=args.max_dd_rays)
    keys = coalition_keys(lat)
    emit(args, lambda: [
        f"ray {r}: " + ", ".join(
            f"{_table_coalition(keys[k])}={v}" for k, v in _nonzero_values(g)
        )
        for r, g in enumerate(rays, start=1)
    ] or ["(no rays: the cone is trivial)"], lambda: {
        "count": len(rays), "rays": [game_payload(g, keys) for g in rays],
    })
    return 0


def cmd_cone_facets(args):
    lat = load_lattice(args.poset, args)
    triples = facet_triples(lat)
    emit(args, lambda: (t.render() for t in triples), lambda: {
        "count": len(triples),
        "facets": [
            {
                "base": players_from_mask(t.base),
                "i": t.i,
                "j": t.j,
                "inequality": t.render(),
            }
            for t in triples
        ],
    })
    return 0


def cmd_cone_dim(args):
    lat = load_lattice(args.poset, args)
    dim = cone_dimension(lat)
    ambient = len(lat.elements) - 1
    emit(args, lambda: [f"dimension {dim} in ambient {ambient}"],
         lambda: {"dimension": dim, "ambient": ambient})
    return 0


def cmd_cone_face_compare(args):
    g1, _ = load_game(args.game1, args)
    g2, _ = load_game(args.game2, args)
    relation = face_compare(g1, g2)
    emit(args, lambda: [relation], lambda: {"relation": relation})
    return 0


# -- reference reproduction -------------------------------------------------------


def reproduce_paper(
    golden_path=None, max_lattice=DEFAULT_MAX_ELEMENTS, max_rays=DEFAULT_MAX_DD_RAYS
):
    """Recompute the bundled reference results and compare them field by field.

    Returns the report: a dict with the keys command, inputs, results and
    checks.  Each golden field is read inside the check that compares it, so
    a corrupt field fails its check; ValueError if the file or one of its two
    sections is not a JSON object.  max_rays caps each ray enumeration.
    """
    # imported here, not at the top: no other command hashes or reads package data
    import hashlib
    from importlib import resources

    if golden_path is None:
        blob = resources.files("supermod").joinpath(GOLDEN_RESOURCE).read_bytes()
    else:
        with open(golden_path, "rb") as fh:
            blob = fh.read()
    golden = _decode_json(blob, golden_path)
    if not isinstance(golden, dict) or not all(
        isinstance(golden.get(key), dict) for key in ("hierarchy4", "flat4")
    ):
        raise ValueError("a golden file is an object holding the objects hierarchy4 and flat4")
    inputs = {"golden_sha256": hashlib.sha256(blob).hexdigest()}
    checks = []

    def check(claim, expected, got):
        # both sides are thunks: a corrupt golden file must fail, not crash
        row = {"claim": claim, "pass": True}
        for key, fn in (("expected", expected), ("got", got)):
            try:
                row[key] = fn()
            except Exception as exc:
                row[key] = f"error: {type(exc).__name__}: {exc}"
                row["pass"] = False
        row["pass"] = row["pass"] and row["expected"] == row["got"]
        checks.append(row)

    def section(name):
        ref = golden[name]
        poset = poset_from_dict(ref["poset"])
        inputs[f"{name}_poset_sha256"] = hashlib.sha256(
            json.dumps(poset_to_dict(poset), sort_keys=True).encode()
        ).hexdigest()
        lat = build_lattice(poset, max_elements=max_lattice)
        check(f"{name}: down-set count", lambda: ref["lattice_size"], lambda: len(lat.elements))
        return ref, poset, lat

    ref, poset, lat = section("hierarchy4")
    check(
        "hierarchy4: join-irreducible elements",
        lambda: ref["join_irreducibles"],
        lambda: [players_from_mask(a) for a in lat.join_irreducibles],
    )
    chains = lat.maximal_chains()
    check(
        "hierarchy4: compatible permutation count",
        lambda: len(ref["permutations"]),
        lambda: len(chains),
    )
    check(
        "hierarchy4: permutation sequences",
        lambda: ref["permutations"],
        lambda: [format_perm(c.perm) for c in chains],
    )

    keys = coalition_keys(lat)

    def by_permutation(groups, key):
        return {
            perm: grp[key]
            for grp in ref["detailed_ray"][groups]
            for perm in grp["permutations"]
        }

    def marginal_map():
        ray = read_game(ref["detailed_ray"]["values"], lat, keys)
        return {
            format_perm(c.perm): vector_payload(marginal_vector(ray, c)) for c in chains
        }

    check(
        "hierarchy4: detailed ray marginal vectors",
        lambda: by_permutation("marginal_groups", "vector"),
        marginal_map,
    )

    def tight_map():
        ray = read_game(ref["detailed_ray"]["values"], lat, keys)
        tight = {c.perm: tight_sets(ray, c) for c in chains}
        return {
            format_perm(p): [players_from_mask(a) for a in lat.elements if a in sets]
            for p, sets in tight.items()
        }

    check(
        "hierarchy4: detailed ray tight families",
        lambda: by_permutation("tight_groups", "tight"),
        tight_map,
    )

    # is_extreme decides by both criteria and raises CrossCheckError when
    # they disagree, so one verdict per ray answers the rows of both
    verdicts = functools.cache(
        lambda: [is_extreme(read_game(t, lat, keys)) for t in ref["extreme_rays"]]
    )
    for system in ("payoff system", "game-equality system"):
        check(
            f"hierarchy4: reference generators extreme ({system})",
            lambda: [True] * len(ref["extreme_rays"]),
            verdicts,
        )
    check(
        "hierarchy4: enumerated extreme rays",
        lambda: ref["extreme_rays"],
        lambda: [game_payload(g, keys) for g in extreme_rays(lat, max_rays=max_rays)],
    )
    check(
        "hierarchy4: cone dimension",
        lambda: [ref["cone_dimension"], ref["ambient_dimension"]],
        lambda: [cone_dimension(lat), len(lat.elements) - 1],
    )
    check(
        "hierarchy4: facet inequalities",
        lambda: ref["facet_inequalities"],
        lambda: [t.render() for t in facet_triples(lat)],
    )

    flat, _, flat_lat = section("flat4")
    check(
        "flat4: facet count", lambda: flat["facet_count"], lambda: len(facet_triples(flat_lat))
    )
    check(
        "flat4: extreme ray count",
        lambda: flat["extreme_ray_count"],
        lambda: len(extreme_rays(flat_lat, max_rays=max_rays)),
    )

    passed = sum(1 for c in checks if c["pass"])
    return {
        "command": "reproduce-paper",
        "inputs": inputs,
        "results": {"checks_passed": passed, "checks_total": len(checks)},
        "checks": checks,
    }


def cmd_reproduce_paper(args):
    report = reproduce_paper(args.golden, lattice_cap(args), args.max_dd_rays)

    def lines():
        for c in report["checks"]:
            yield f"{'PASS' if c['pass'] else 'FAIL'}  {c['claim']}"
            if not c["pass"]:
                yield f"      expected: {c['expected']}"
                yield f"      got:      {c['got']}"
        results = report["results"]
        yield f"{results['checks_passed']}/{results['checks_total']} checks passed"

    emit(args, lines, lambda: report)
    failure = next((c for c in report["checks"] if not c["pass"]), None)
    if failure is not None:
        print(f"reproduce-paper: first failing check: {failure['claim']}", file=sys.stderr)
        return 1
    return 0


# -- parser ------------------------------------------------------------------------


def _cap(flag, default, text):
    """A cap flag: one count N, read by cap_value."""
    return flag, dict(type=cap_value, default=default, metavar="N", help=text)


# A shared parser by name, as (flag, add_argument keywords) pairs; every
# command takes "common", and the two caps go to the commands named below.
_PARENTS = {
    "common": (
        ("--format", dict(choices=("json", "table"), default="json", help="output format")),
        _cap("--max-lattice", None, "cap on lattice size (or env SUPERMOD_MAX_LATTICE)"),
    ),
    # for the commands that enumerate the extreme rays of a cone
    "dd_rays": (_cap(
        "--max-dd-rays", DEFAULT_MAX_DD_RAYS,
        "cap on the intermediate rays of double description (default %(default)s)",
    ),),
    # for the commands that list maximal chains or walk their marginal vectors
    "chains": (_cap(
        "--max-chains", DEFAULT_MAX_CHAINS,
        "cap on the maximal chains, or on the partial marginal vectors one rank holds",
    ),),
}

_GROUP_HELP = {
    "poset": "poset inspection",
    "lattice": "down-set lattice",
    "game": "game predicates and transforms",
    "core": "cores and marginal vectors",
    "cone": "the supermodular cone",
}

# (group, command, help, cap parents, arguments), in help order; an argument
# is a positional name or a (flag, add_argument keywords) pair, and a group
# with no command is a command itself
_COMMANDS = (
    ("poset", "show", "closure and principal down-sets", (), ("poset",)),
    ("lattice", "downsets", "list all down-sets", (), ("poset",)),
    ("lattice", "chains", "maximal chains and permutations", ("chains",), ("poset",)),
    ("lattice", "moebius", "Moebius value of a pair", (), (
        "poset",
        ("--from", dict(dest="from_set", required=True, metavar="COALITION")),
        ("--to", dict(dest="to_set", required=True, metavar="COALITION")),
    )),
    ("game", "check", "test a game class", (), (
        "game", ("--class", dict(dest="cls", required=True, choices=sorted(_CLASS_CHECKS))),
    )),
    ("game", "moebius", "Moebius transform of a game", (), ("game",)),
    ("game", "normalize", "0-normalized + modular split", (), ("game",)),
    ("core", "vertices", "core vertices (supermodular)", ("chains",), ("game",)),
    ("core", "tight", "tight sets along one chain", (), (
        "game", ("--perm", dict(required=True, help='permutation, e.g. "2314"')),
    )),
    ("core", "envelope", "minimum marginal total", (), (
        "game", ("--coalition", dict(required=True, help='coalition, e.g. "[3,4]" or "34"')),
    )),
    ("core", "witness", "core recession direction", (), ("poset",)),
    ("cone", "is-extreme", "extremality of a game", ("chains",), ("game",)),
    ("cone", "rays", "extreme rays of the cone", ("dd_rays",), (
        "poset",
        _cap("--max-cone", DEFAULT_MAX_CONE_ELEMENTS,
             "element cap for enumeration (default %(default)s)"),
    )),
    ("cone", "facets", "facet inequalities", (), ("poset",)),
    ("cone", "dim", "dimension of the cone", (), ("poset",)),
    ("cone", "face-compare", "compare two face positions", (), ("game1", "game2")),
    ("reproduce-paper", None, "recompute the bundled reference results and verify them",
     ("dd_rays",), (("--golden", dict(help="alternative golden results file")),)),
)


def _with_arguments(parser, arguments):
    for arg in arguments:
        name, kwargs = (arg, {}) if isinstance(arg, str) else arg
        parser.add_argument(name, **kwargs)
    return parser


@functools.cache
def build_parser():
    """The argparse tree, built from _COMMANDS on the first call and shared
    by every later one.  main finds the handler cmd_<group>_<cmd> by the
    parsed subcommand path at call time, so a handler replaced after the
    tree is built runs."""
    parents = {
        name: _with_arguments(argparse.ArgumentParser(add_help=False), flags)
        for name, flags in _PARENTS.items()
    }
    parser = argparse.ArgumentParser(
        prog="supermod",
        description="Exact analysis of supermodular games on lattices of down-sets",
    )
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for group, cmd, text, caps, arguments in _COMMANDS:
        if cmd and group not in groups:
            groups[group] = sub.add_parser(group, help=_GROUP_HELP[group]).add_subparsers(
                dest="cmd", required=True
            )
        q = (groups[group] if cmd else sub).add_parser(
            cmd or group, parents=[parents[name] for name in ("common", *caps)], help=text
        )
        _with_arguments(q, arguments)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    path = "_".join(filter(None, (args.group, getattr(args, "cmd", None))))
    handler = globals()["cmd_" + path.replace("-", "_")]
    try:
        return handler(args)
    except CrossCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SupermodError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
