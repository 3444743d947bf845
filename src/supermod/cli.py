"""Command line front end.

Every subcommand is a thin adapter around the library: load inputs, call one
or two library functions, serialize.  JSON output is canonical (sorted keys,
rationals as "p/q" strings, coalitions as sorted player lists); table output
uses the compact digit notation for coalitions.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction
from importlib import resources

from .cone import (
    DEFAULT_MAX_CONE_ELEMENTS,
    DEFAULT_MAX_DD_RAYS,
    cone_dimension,
    extreme_rays,
    face_compare,
    facet_triples,
    is_extreme,
    is_extreme_via_games,
)
from .errors import CrossCheckError, SupermodError
from .game import (
    Game,
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
    return mask_from_players(players, n)


def parse_value(val):
    """A game value as a Fraction: an int, or a string Fraction reads.

    The spellings of str(Fraction), "p/q" and "p" with an optional "-" and
    ASCII digits, are read as ints; every other string goes to Fraction,
    whose grammar depends on the Python version."""
    if type(val) is str:
        num, slash, den = val.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit():
            if not slash:
                return Fraction(int(num))
            if den.isascii() and den.isdigit() and den.strip("0"):
                return Fraction(int(num), int(den))
    if isinstance(val, bool):
        raise ValueError("game values must be integers or 'p/q' strings")
    if isinstance(val, int):
        return Fraction(val)
    if isinstance(val, str):
        try:
            return Fraction(val)
        except ZeroDivisionError:
            raise ValueError(f"game value {val!r} has a zero denominator") from None
    raise ValueError(f"game values must be integers or 'p/q' strings, got {val!r}")


def parse_values(table, lat):
    """{mask: Fraction} from a game file's "values" table for the lattice
    lat; ValueError when two keys name one coalition, such as "12" and
    "[2,1]".  A key spelled by coalition_key is looked up among the
    elements; any other goes to parse_coalition."""
    if not isinstance(table, dict):
        raise ValueError(f'"values" must be a JSON object, got {table!r}')
    n = lat.poset.n
    canonical = {coalition_key(a): a for a in lat.elements}
    mapping = {}
    keys = {}
    for key, val in table.items():
        mask = canonical.get(key)
        if mask is None:
            mask = parse_coalition(key, n)
        if mask in keys:
            raise ValueError(
                f"coalition {coalition_key(mask)} is given twice, as {keys[mask]!r}"
                f" and as {key!r}"
            )
        keys[mask] = key
        mapping[mask] = parse_value(val)
    return mapping


def game_payload(game):
    """Nonzero values keyed by coalition, reusable as a game file "values"."""
    return {coalition_key(a): str(v) for a, v in game.to_mapping().items()}


def vector_payload(x):
    return [str(t) for t in x]


def value_lines(game, indent, empty):
    """Table lines of the game's nonzero values, or [empty] for none."""
    return [f"{indent}{format_coalition(a)}: {v}" for a, v in game.to_mapping().items()] or [empty]


# -- input loading -------------------------------------------------------------


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
    return Game.from_values(lat, parse_values(data.get("values", {}), lat))


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
    g = load_game(args.game, args)
    result = _CLASS_CHECKS[args.cls](g)
    emit(args, lambda: [f"{args.cls}: {'yes' if result else 'no'}"],
         lambda: {"class": args.cls, "result": result})
    return 0 if result else 1


def cmd_game_moebius(args):
    g = load_game(args.game, args)
    t = mobius_transform(g)
    emit(args, lambda: value_lines(t, "", "(zero transform)"),
         lambda: {"values": game_payload(t)})
    return 0


def cmd_game_normalize(args):
    g = load_game(args.game, args)
    w, m = zero_normalize(g)
    emit(args, lambda: [
        "zero-normalized part:", *value_lines(w, "  ", "  0"),
        "modular part:", *value_lines(m, "  ", "  0"),
    ], lambda: {"zero_normalized": game_payload(w), "modular": game_payload(m)})
    return 0


def cmd_core_vertices(args):
    g = load_game(args.game, args)
    verts = core_vertices(g, max_chains=args.max_chains)
    emit(args, lambda: ("(" + ", ".join(str(t) for t in x) + ")" for x in verts),
         lambda: {"count": len(verts), "vertices": [vector_payload(x) for x in verts]})
    return 0


def cmd_core_tight(args):
    g = load_game(args.game, args)
    chain = g.lattice.chain_from_perm(parse_perm(args.perm))
    x = marginal_vector(g, chain)
    tight_set = tight_sets(g, chain)
    tight = [a for a in g.lattice.elements if a in tight_set]
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
    g = load_game(args.game, args)
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
    g = load_game(args.game, args)
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
    emit(args, lambda: [
        f"ray {k}: " + ", ".join(f"{format_coalition(a)}={v}" for a, v in g.to_mapping().items())
        for k, g in enumerate(rays, start=1)
    ] or ["(no rays: the cone is trivial)"], lambda: {
        "count": len(rays),
        "rays": [game_payload(g) for g in rays],
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
    g1 = load_game(args.game1, args)
    g2 = load_game(args.game2, args)
    relation = face_compare(g1, g2)
    emit(args, lambda: [relation], lambda: {"relation": relation})
    return 0


# -- reference reproduction -------------------------------------------------------


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def reproduce_paper(
    golden_path=None, max_lattice=DEFAULT_MAX_ELEMENTS, max_rays=DEFAULT_MAX_DD_RAYS
):
    """Recompute the bundled reference results and compare them field by field.

    Returns the report: a dict with the keys command, inputs, results and
    checks.  Each golden field is read inside the check that compares it, so
    a corrupt field fails its check; ValueError if the file or one of its two
    sections is not a JSON object.  max_rays caps each ray enumeration.
    """
    if golden_path is None:
        blob = resources.files("supermod").joinpath(GOLDEN_RESOURCE).read_bytes()
    else:
        with open(golden_path, "rb") as fh:
            blob = fh.read()
    golden = json.loads(blob)
    if not isinstance(golden, dict) or not all(
        isinstance(golden.get(key), dict) for key in ("hierarchy4", "flat4")
    ):
        raise ValueError("a golden file is an object holding the objects hierarchy4 and flat4")
    inputs = {"golden_sha256": _digest(blob)}
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
        inputs[f"{name}_poset_sha256"] = _digest(
            json.dumps(poset_to_dict(poset), sort_keys=True).encode()
        )
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

    def load_ref_game(table):
        return Game.from_values(lat, parse_values(table, lat))

    def by_permutation(groups, key):
        return {
            perm: grp[key]
            for grp in ref["detailed_ray"][groups]
            for perm in grp["permutations"]
        }

    def marginal_map():
        ray = load_ref_game(ref["detailed_ray"]["values"])
        return {
            format_perm(c.perm): vector_payload(marginal_vector(ray, c)) for c in chains
        }

    check(
        "hierarchy4: detailed ray marginal vectors",
        lambda: by_permutation("marginal_groups", "vector"),
        marginal_map,
    )

    def tight_map():
        ray = load_ref_game(ref["detailed_ray"]["values"])
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

    check(
        "hierarchy4: reference generators extreme (payoff system)",
        lambda: [True] * len(ref["extreme_rays"]),
        lambda: [is_extreme(load_ref_game(t)) for t in ref["extreme_rays"]],
    )
    check(
        "hierarchy4: reference generators extreme (game-equality system)",
        lambda: [True] * len(ref["extreme_rays"]),
        lambda: [is_extreme_via_games(load_ref_game(t)) for t in ref["extreme_rays"]],
    )
    check(
        "hierarchy4: enumerated extreme rays",
        lambda: ref["extreme_rays"],
        lambda: [game_payload(g) for g in extreme_rays(lat, max_rays=max_rays)],
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


@functools.cache
def build_parser():
    """The argparse tree, built on the first call and shared by every later
    one.  main finds the handler cmd_<group>_<cmd> by the parsed subcommand
    path at call time, so a handler replaced after the tree is built runs."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )
    common.add_argument(
        "--max-lattice",
        type=cap_value,
        metavar="N",
        help="cap on lattice size (or env SUPERMOD_MAX_LATTICE)",
    )
    # for the commands that enumerate the extreme rays of a cone
    dd_rays = argparse.ArgumentParser(add_help=False)
    dd_rays.add_argument(
        "--max-dd-rays", type=cap_value, default=DEFAULT_MAX_DD_RAYS, metavar="N",
        help="cap on the intermediate rays of double description (default %(default)s)",
    )
    # for the commands that list maximal chains or walk their marginal vectors
    chains = argparse.ArgumentParser(add_help=False)
    chains.add_argument(
        "--max-chains",
        type=cap_value,
        default=DEFAULT_MAX_CHAINS,
        metavar="N",
        help="cap on the maximal chains, or on the partial marginal vectors one rank holds",
    )

    parser = argparse.ArgumentParser(
        prog="supermod",
        description="Exact analysis of supermodular games on lattices of down-sets",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    p_poset = sub.add_parser("poset", help="poset inspection").add_subparsers(
        dest="cmd", required=True
    )
    q = p_poset.add_parser("show", parents=[common], help="closure and principal down-sets")
    q.add_argument("poset")

    p_lat = sub.add_parser("lattice", help="down-set lattice").add_subparsers(
        dest="cmd", required=True
    )
    q = p_lat.add_parser("downsets", parents=[common], help="list all down-sets")
    q.add_argument("poset")
    q = p_lat.add_parser(
        "chains", parents=[common, chains], help="maximal chains and permutations"
    )
    q.add_argument("poset")
    q = p_lat.add_parser("moebius", parents=[common], help="Moebius value of a pair")
    q.add_argument("poset")
    q.add_argument("--from", dest="from_set", required=True, metavar="COALITION")
    q.add_argument("--to", dest="to_set", required=True, metavar="COALITION")

    p_game = sub.add_parser("game", help="game predicates and transforms").add_subparsers(
        dest="cmd", required=True
    )
    q = p_game.add_parser("check", parents=[common], help="test a game class")
    q.add_argument("game")
    q.add_argument("--class", dest="cls", required=True, choices=sorted(_CLASS_CHECKS))
    q = p_game.add_parser("moebius", parents=[common], help="Moebius transform of a game")
    q.add_argument("game")
    q = p_game.add_parser("normalize", parents=[common], help="0-normalized + modular split")
    q.add_argument("game")

    p_core = sub.add_parser("core", help="cores and marginal vectors").add_subparsers(
        dest="cmd", required=True
    )
    q = p_core.add_parser(
        "vertices", parents=[common, chains], help="core vertices (supermodular)"
    )
    q.add_argument("game")
    q = p_core.add_parser("tight", parents=[common], help="tight sets along one chain")
    q.add_argument("game")
    q.add_argument("--perm", required=True, help='permutation, e.g. "2314"')
    q = p_core.add_parser("envelope", parents=[common], help="minimum marginal total")
    q.add_argument("game")
    q.add_argument("--coalition", required=True, help='coalition, e.g. "[3,4]" or "34"')
    q = p_core.add_parser("witness", parents=[common], help="core recession direction")
    q.add_argument("poset")

    p_cone = sub.add_parser("cone", help="the supermodular cone").add_subparsers(
        dest="cmd", required=True
    )
    q = p_cone.add_parser("is-extreme", parents=[common, chains], help="extremality of a game")
    q.add_argument("game")
    q = p_cone.add_parser("rays", parents=[common, dd_rays], help="extreme rays of the cone")
    q.add_argument("poset")
    q.add_argument(
        "--max-cone", type=cap_value, default=DEFAULT_MAX_CONE_ELEMENTS, metavar="N",
        help="element cap for enumeration (default %(default)s)",
    )
    q = p_cone.add_parser("facets", parents=[common], help="facet inequalities")
    q.add_argument("poset")
    q = p_cone.add_parser("dim", parents=[common], help="dimension of the cone")
    q.add_argument("poset")
    q = p_cone.add_parser("face-compare", parents=[common], help="compare two face positions")
    q.add_argument("game1")
    q.add_argument("game2")

    q = sub.add_parser(
        "reproduce-paper",
        parents=[common, dd_rays],
        help="recompute the bundled reference results and verify them",
    )
    q.add_argument("--golden", help="alternative golden results file")

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
