"""End-to-end tests of the command line front end.

Each subcommand is exercised through cli.main on files written under
tmp_path, and the JSON payloads are compared against direct library calls
so the adapter cannot drift away from the package it wraps.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import pytest

import supermod as sm
from supermod import cli

from conftest import (
    HIER4_GENERATORS,
    game_from_table,
    oracle_parse_value,
    oracle_parse_values,
    outcome,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def ws(tmp_path):
    """A workspace of poset and game files used across the CLI tests."""
    files = {}

    def put(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        files[name] = str(path)
        return files[name]

    put("hier4.json", {"n": 4, "covers": [[2, 1], [3, 1]]})
    put("flat3.json", {"n": 3, "covers": []})
    put("v1.json", {
        "poset": "hier4.json",
        "values": {"[2,4]": 1, "[2,3,4]": "1", "[1,2,3,4]": 1},
    })
    put("v2.json", {
        "poset": "hier4.json",
        "values": {"[3,4]": 1, "[2,3,4]": 1, "[1,2,3,4]": 1},
    })
    put("v1x2.json", {
        "poset": "hier4.json",
        "values": {"[2,4]": 2, "[2,3,4]": "4/2", "[1,2,3,4]": 2},
    })
    put("sum.json", {
        "poset": "hier4.json",
        "values": {"[2,4]": 1, "[3,4]": 1, "[2,3,4]": 2, "[1,2,3,4]": 2},
    })
    put("shifted.json", {
        "poset": {"n": 4, "covers": [[2, 1], [3, 1]]},
        "values": {
            "[2]": 1, "[3]": 1, "[4]": 1,
            "[2,3]": 2, "[2,4]": 3, "[3,4]": 2,
            "[1,2,3]": 3, "[2,3,4]": 4, "[1,2,3,4]": 5,
        },
    })
    put("card.json", {
        "poset": "hier4.json",
        "values": {
            "[2]": 1, "[3]": 1, "[4]": 1,
            "[2,3]": 2, "[2,4]": 2, "[3,4]": 2,
            "[1,2,3]": 3, "[2,3,4]": 3, "[1,2,3,4]": 4,
        },
    })
    put("nonsuper.json", {"poset": "hier4.json", "values": {"[2]": 1}})
    put("cyclic.json", {"n": 2, "covers": [[1, 2], [2, 1]]})
    put("floaty.json", {"poset": "hier4.json", "values": {"[2]": 1.5}})
    put("booly.json", {"poset": "hier4.json", "values": {"[2]": True}})
    put("noposet.json", {"values": {"[2]": 1}})
    put("listvalues.json", {"poset": "flat3.json", "values": [1]})
    put("zerodenom.json", {"poset": "flat3.json", "values": {"[1]": "1/0"}})
    put("listn.json", {"n": [3]})
    put("floatn.json", {"n": 3.5})
    put("booln.json", {"n": True})
    put("badcovers.json", {"n": 3, "covers": [1]})
    put("bare.json", 5)
    put("inlinebad.json", {"poset": {"n": [3]}, "values": {}})
    files["dir"] = str(tmp_path)
    return files


def payload_of(out):
    return json.loads(out)


def assert_canonical(out):
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_poset_show(ws, capsys):
    code, out, _ = run(capsys, "poset", "show", ws["hier4.json"])
    assert code == 0
    data = payload_of(out)
    assert data["n"] == 4
    assert data["covers"] == [[2, 1], [3, 1]]
    assert data["principal_down_sets"]["1"] == [1, 2, 3]
    assert data["principal_down_sets"]["4"] == [4]
    assert [2, 1] in data["leq_pairs"]
    assert_canonical(out)

    code, out, _ = run(capsys, "poset", "show", "--format", "table", ws["hier4.json"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n = 4"
    assert "2<1" in lines[1] and "3<1" in lines[1]
    assert "down(1) = 123" in lines


def test_lattice_downsets(ws, capsys):
    code, out, _ = run(capsys, "lattice", "downsets", ws["hier4.json"])
    assert code == 0
    data = payload_of(out)
    assert data["count"] == 10
    assert data["downsets"] == [
        [], [2], [3], [4], [2, 3], [2, 4], [3, 4], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4],
    ]

    code, out, _ = run(capsys, "lattice", "downsets", "--format", "table", ws["hier4.json"])
    assert out.splitlines() == ["{}", "2", "3", "4", "23", "24", "34", "123", "234", "1234"]


def test_lattice_chains(ws, capsys):
    code, out, _ = run(capsys, "lattice", "chains", ws["hier4.json"])
    assert code == 0
    data = payload_of(out)
    assert data["count"] == 8
    assert [c["perm"] for c in data["chains"]] == [
        "2314", "2341", "2431", "3214", "3241", "3421", "4231", "4321",
    ]
    assert data["chains"][0]["sets"] == [
        [], [2], [2, 3], [1, 2, 3], [1, 2, 3, 4],
    ]

    code, out, _ = run(capsys, "lattice", "chains", "--format", "table", ws["hier4.json"])
    assert out.splitlines()[0] == "2314: {} < 2 < 23 < 123 < 1234"


def test_lattice_moebius(ws, capsys):
    code, out, _ = run(
        capsys, "lattice", "moebius", ws["hier4.json"], "--from", "{}", "--to", "23"
    )
    assert code == 0
    assert payload_of(out)["value"] == "1"

    code, out, _ = run(
        capsys, "lattice", "moebius", ws["hier4.json"], "--from", "[]", "--to", "[1,2,3]"
    )
    assert code == 0
    assert payload_of(out)["value"] == "0"

    code, out, _ = run(
        capsys, "lattice", "moebius", "--format", "table", ws["hier4.json"],
        "--from", "2", "--to", "123",
    )
    assert out.strip() == "mu(2, 123) = 0"

    # {1,2} is not a down-set of the hierarchy
    code, _, err = run(
        capsys, "lattice", "moebius", ws["hier4.json"], "--from", "{}", "--to", "12"
    )
    assert code == 2
    assert err.startswith("error:")


def test_game_check(ws, capsys):
    cases = [
        ("supermodular", ws["v1.json"], 0),
        ("monotone", ws["v1.json"], 0),
        ("nonnegative", ws["v1.json"], 0),
        ("modular", ws["v1.json"], 1),
        ("supermodular", ws["nonsuper.json"], 1),
        ("modular", ws["card.json"], 0),
    ]
    for cls, path, expected in cases:
        code, out, _ = run(capsys, "game", "check", path, "--class", cls)
        assert code == expected
        assert payload_of(out)["result"] is (expected == 0)

    code, out, _ = run(
        capsys, "game", "check", "--format", "table", ws["v1.json"],
        "--class", "supermodular",
    )
    assert out.strip() == "supermodular: yes"


def test_game_moebius(ws, capsys):
    code, out, _ = run(capsys, "game", "moebius", ws["v1.json"])
    assert code == 0
    assert payload_of(out)["values"] == {"[2,4]": "1"}

    code, out, _ = run(capsys, "game", "moebius", "--format", "table", ws["v1.json"])
    assert out.strip() == "24: 1"


def test_game_normalize(ws, capsys):
    code, out, _ = run(capsys, "game", "normalize", ws["shifted.json"])
    assert code == 0
    data = payload_of(out)
    assert data["zero_normalized"] == {"[2,4]": "1", "[2,3,4]": "1", "[1,2,3,4]": "1"}
    assert data["modular"]["[1,2,3,4]"] == "4"
    assert data["modular"]["[1,2,3]"] == "3"


def test_core_vertices(ws, capsys):
    code, out, _ = run(capsys, "core", "vertices", ws["v1.json"])
    assert code == 0
    data = payload_of(out)
    assert data["count"] == 2
    assert data["vertices"] == [["0", "0", "0", "1"], ["0", "1", "0", "0"]]

    code, _, err = run(capsys, "core", "vertices", ws["nonsuper.json"])
    assert code == 2
    assert err.startswith("error:")


def test_core_tight(ws, capsys):
    code, out, _ = run(capsys, "core", "tight", ws["v1.json"], "--perm", "2314")
    assert code == 0
    data = payload_of(out)
    assert data["marginal"] == ["0", "0", "0", "1"]
    assert data["tight"] == [
        [], [2], [3], [2, 3], [2, 4], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4],
    ]
    assert data["zero_players"] == [1, 2, 3]

    # 1 cannot come before its subordinates 2 and 3
    code, _, err = run(capsys, "core", "tight", ws["v1.json"], "--perm", "1234")
    assert code == 2


def test_core_envelope(ws, capsys):
    for coalition in ("34", "[3,4]"):
        code, out, _ = run(
            capsys, "core", "envelope", ws["v1.json"], "--coalition", coalition
        )
        assert code == 0
        assert payload_of(out)["value"] == "0"

    code, out, _ = run(capsys, "core", "envelope", ws["v1.json"], "--coalition", "1234")
    assert payload_of(out)["value"] == "1"

    code, _, err = run(capsys, "core", "envelope", ws["v1.json"], "--coalition", "xz")
    assert code == 2


def test_core_witness(ws, capsys):
    code, out, _ = run(capsys, "core", "witness", ws["hier4.json"])
    assert code == 0
    assert payload_of(out)["witness"] == ["-1", "1", "0", "0"]

    code, out, _ = run(capsys, "core", "witness", ws["flat3.json"])
    assert code == 1
    assert payload_of(out)["witness"] is None

    code, out, _ = run(capsys, "core", "witness", "--format", "table", ws["flat3.json"])
    assert out.strip() == "no witness: the order is flat"


def test_cone_is_extreme(ws, capsys):
    code, out, _ = run(capsys, "cone", "is-extreme", ws["v1.json"])
    assert code == 0
    data = payload_of(out)
    assert data["extreme"] is True
    assert data["system"] is True and data["games"] is True

    # both criteria always run; there is no switch to skip one of them
    with pytest.raises(SystemExit) as exc:
        cli.main(["cone", "is-extreme", ws["v1.json"], "--method", "system"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --method" in capsys.readouterr().err

    code, out, _ = run(capsys, "cone", "is-extreme", ws["sum.json"])
    assert code == 1
    assert payload_of(out)["extreme"] is False
    assert "note" not in payload_of(out)

    code, out, _ = run(capsys, "cone", "is-extreme", ws["card.json"])
    assert code == 1
    assert "0-normalized part is zero" in payload_of(out)["note"]
    code, out, _ = run(capsys, "cone", "is-extreme", "--format", "table", ws["card.json"])
    assert code == 1
    assert out == "extreme: no\n0-normalized part is zero; non-extreme by convention\n"


def test_cone_is_extreme_tests_modularity_only_for_a_non_extreme_game(
    ws, capsys, monkeypatch
):
    # an extreme game is never modular, so only a "no" verdict asks for the
    # note; the output is the same either way
    calls = []
    modular = cli.is_modular
    monkeypatch.setattr(cli, "is_modular", lambda g: calls.append(g) or modular(g))
    code, out, _ = run(capsys, "cone", "is-extreme", ws["v1.json"])
    assert code == 0 and calls == []
    assert payload_of(out) == {"extreme": True, "games": True, "method": "both", "system": True}
    for game, note in (("sum.json", False), ("card.json", True)):
        calls.clear()
        code, out, _ = run(capsys, "cone", "is-extreme", ws[game])
        assert code == 1 and len(calls) == 1
        assert ("note" in payload_of(out)) == note


def test_cone_is_extreme_normalizes_once_per_criterion(ws, capsys, monkeypatch):
    # count calls through every module that binds the two functions
    calls = {"is_supermodular": 0, "zero_normalize": 0}
    modules = [m for name, m in sys.modules.items() if name.startswith("supermod.")]
    for fname in calls:
        original = getattr(sm, fname)

        def counted(*args, _fname=fname, _original=original, **kwargs):
            calls[_fname] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            if getattr(mod, fname, None) is original:
                monkeypatch.setattr(mod, fname, counted)
    # neither criterion normalizes: the payoff criterion reads the vertices
    # of v and their modular shift, the game criterion and the dimension
    # certificate read square slacks, which a modular shift keeps; the game
    # criterion's slack pass is also the supermodularity check
    for game in ("v1.json", "card.json", "shifted.json"):
        calls.update(is_supermodular=0, zero_normalize=0)
        code, _, _ = run(capsys, "cone", "is-extreme", ws[game])
        assert code in (0, 1)
        assert calls == {"is_supermodular": 0, "zero_normalize": 0}
    code, out, err = run(capsys, "cone", "is-extreme", ws["nonsuper.json"])
    assert code == 2 and out == ""
    assert err == "error: extremality is defined for supermodular games\n"
    calls.update(is_supermodular=0, zero_normalize=0)
    code, _, _ = run(capsys, "cone", "dim", ws["hier4.json"])
    assert code == 0 and calls["zero_normalize"] == 0


def test_failed_cross_checks_exit_with_code_3(ws, capsys, monkeypatch):
    # a self-check failure is a defect, not a negative answer (exit 1),
    # whichever of the two criteria is the one that is wrong
    for half in ("_games_extreme", "_payoff_extreme"):
        check = getattr(sm.cone, half)
        for game in ("v1.json", "sum.json"):
            with monkeypatch.context() as m:
                m.setattr(sm.cone, half, lambda plan, val, *a, _c=check: not _c(plan, val, *a))
                code, out, err = run(capsys, "cone", "is-extreme", ws[game])
            assert code == 3 and out == ""
            assert err == "error: extremality criteria disagree; please report this\n"

    # either half of the per-ray cross-check of cone rays failing on its
    # own, on the last ray alone, is a defect
    hier4 = sm.build_lattice(sm.poset_from_covers(4, [(2, 1), (3, 1)]))
    last = tuple(int(x) for x in sm.extreme_rays(hier4)[-1].values)
    for half in ("_games_extreme", "_payoff_extreme"):
        check = getattr(sm.cone, half)
        with monkeypatch.context() as m:
            m.setattr(
                sm.cone, half, lambda plan, val, *a, _c=check: _c(plan, val, *a) and val != last
            )
            code, out, err = run(capsys, "cone", "rays", ws["hier4.json"])
        assert code == 3 and out == ""
        assert err == "error: an enumerated generator failed the extremality cross-check\n"

    # a modular stand-in for |A|^2 is tight on every square, so the
    # interior-point certificate of cone dim fails
    monkeypatch.setattr(sm.cone, "_squares", lambda lat: [a.bit_count() for a in lat.elements])
    code, out, err = run(capsys, "cone", "dim", ws["hier4.json"])
    assert code == 3 and out == ""
    assert err == "error: a covering square is not slack at |A|^2\n"


def test_cone_rays_matches_the_library(ws, capsys):
    code, out, _ = run(capsys, "cone", "rays", ws["hier4.json"])
    assert code == 0
    data = payload_of(out)
    assert data["count"] == 6
    assert data["rays"][3] == {"[2,4]": "1", "[2,3,4]": "1", "[1,2,3,4]": "1"}

    lat = sm.build_lattice(sm.poset_from_covers(4, [(2, 1), (3, 1)]))
    expected = [cli.game_payload(g) for g in sm.extreme_rays(lat)]
    assert data["rays"] == expected
    tables = sorted(
        (game_from_table(lat, t) for t in HIER4_GENERATORS), key=lambda g: g.values
    )
    assert expected == [cli.game_payload(g) for g in tables]


def test_cone_rays_table_keeps_its_bytes(ws, capsys):
    # the table lines of hier4's rays, and the line of a trivial cone,
    # pinned byte for byte; the JSON form builds no table line
    code, out, err = run(capsys, "cone", "rays", "--format", "table", ws["hier4.json"])
    assert code == 0 and err == ""
    assert out == (
        "ray 1: 1234=1\n"
        "ray 2: 234=1, 1234=1\n"
        "ray 3: 34=1, 234=1, 1234=1\n"
        "ray 4: 24=1, 234=1, 1234=1\n"
        "ray 5: 23=1, 123=1, 234=1, 1234=1\n"
        "ray 6: 23=1, 24=1, 34=1, 123=1, 234=2, 1234=2\n"
    )
    chain = os.path.join(ws["dir"], "chain3.json")
    with open(chain, "w") as fh:
        json.dump({"n": 3, "covers": [[1, 2], [2, 3]]}, fh)
    code, out, _ = run(capsys, "cone", "rays", "--format", "table", chain)
    assert code == 0 and out == "(no rays: the cone is trivial)\n"
    code, out, _ = run(capsys, "cone", "rays", chain)
    assert code == 0 and payload_of(out) == {"count": 0, "rays": []}


def emit_commands(ws):
    """One command line for each cmd_* handler, each of which calls emit."""
    hier4, v1 = ws["hier4.json"], ws["v1.json"]
    return {
        "cmd_poset_show": ("poset", "show", hier4),
        "cmd_lattice_downsets": ("lattice", "downsets", hier4),
        "cmd_lattice_chains": ("lattice", "chains", hier4),
        "cmd_lattice_moebius": ("lattice", "moebius", hier4, "--from", "[]", "--to", "[2,3]"),
        "cmd_game_check": ("game", "check", v1, "--class", "supermodular"),
        "cmd_game_moebius": ("game", "moebius", ws["shifted.json"]),
        "cmd_game_normalize": ("game", "normalize", ws["shifted.json"]),
        "cmd_core_vertices": ("core", "vertices", v1),
        "cmd_core_tight": ("core", "tight", v1, "--perm", "2314"),
        "cmd_core_envelope": ("core", "envelope", v1, "--coalition", "[2,4]"),
        "cmd_core_witness": ("core", "witness", hier4),
        "cmd_cone_is_extreme": ("cone", "is-extreme", ws["card.json"]),
        "cmd_cone_rays": ("cone", "rays", hier4),
        "cmd_cone_facets": ("cone", "facets", hier4),
        "cmd_cone_dim": ("cone", "dim", hier4),
        "cmd_cone_face_compare": ("cone", "face-compare", v1, ws["sum.json"]),
        "cmd_reproduce_paper": ("reproduce-paper",),
    }


def test_no_command_builds_the_output_of_the_other_format(ws, capsys, monkeypatch):
    # every command hands emit its table lines and its JSON payload as two
    # functions and builds neither itself: under JSON no coalition is
    # written in the table's notation, under --format table no game or
    # vector is serialized (but for reproduce-paper, whose checks compare
    # serialized games and vectors), and the function of the other format
    # never runs
    commands = emit_commands(ws)
    assert set(commands) == {name for name in vars(cli) if name.startswith("cmd_")}
    formats = ("json", "table")
    expected = {
        (name, fmt): run(capsys, *argv, "--format", fmt)
        for name, argv in commands.items()
        for fmt in formats
    }
    emit = cli.emit
    calls = []

    def refuse(*args):
        raise AssertionError("the output of the other format was built")

    def spy(args, lines, payload):
        assert callable(lines) and callable(payload)
        calls.append(args.format)
        if args.format == "table":
            emit(args, lines, refuse)
        else:
            emit(args, refuse, payload)

    monkeypatch.setattr(cli, "emit", spy)
    refused = {"json": ["format_coalition"], "table": ["game_payload", "vector_payload"]}
    for (name, fmt), want in expected.items():
        with monkeypatch.context() as patch:
            for helper in refused[fmt] if name != "cmd_reproduce_paper" else ():
                patch.setattr(cli, helper, refuse)
            calls.clear()
            assert run(capsys, *commands[name], "--format", fmt) == want, name
            assert calls == [fmt], name
            assert want[0] in (0, 1) and want[1] and not want[2], name


def test_game_transform_tables_keep_their_bytes(ws, capsys):
    # moebius and normalize tables pinned byte for byte, with the
    # "(zero transform)" line and the "  0" of an empty part
    for name, values in (
        ("zero.json", {}),
        ("halves.json", {"[2]": "1/2", "[2,3]": "-3/2", "[1,2,3,4]": 2}),
    ):
        with open(os.path.join(ws["dir"], name), "w") as fh:
            json.dump({"poset": "hier4.json", "values": values}, fh)
    cases = {
        ("moebius", "shifted.json"): "2: 1\n3: 1\n4: 1\n24: 1\n123: 1\n",
        ("moebius", "v1.json"): "24: 1\n",
        ("moebius", "zero.json"): "(zero transform)\n",
        ("moebius", "halves.json"):
            "2: 1/2\n23: -2\n24: -1/2\n123: 3/2\n234: 2\n1234: 1/2\n",
        ("normalize", "shifted.json"):
            "zero-normalized part:\n  24: 1\n  234: 1\n  1234: 1\n"
            "modular part:\n  2: 1\n  3: 1\n  4: 1\n  23: 2\n  24: 2\n  34: 2\n"
            "  123: 3\n  234: 3\n  1234: 4\n",
        ("normalize", "card.json"):
            "zero-normalized part:\n  0\n"
            "modular part:\n  2: 1\n  3: 1\n  4: 1\n  23: 2\n  24: 2\n  34: 2\n"
            "  123: 3\n  234: 3\n  1234: 4\n",
        ("normalize", "v1.json"):
            "zero-normalized part:\n  24: 1\n  234: 1\n  1234: 1\nmodular part:\n  0\n",
        ("normalize", "zero.json"): "zero-normalized part:\n  0\nmodular part:\n  0\n",
        ("normalize", "halves.json"):
            "zero-normalized part:\n  23: -2\n  24: -1/2\n  123: -2\n  234: -1/2\n"
            "modular part:\n  2: 1/2\n  23: 1/2\n  24: 1/2\n  123: 2\n  234: 1/2\n"
            "  1234: 2\n",
    }
    for (cmd, name), want in cases.items():
        path = os.path.join(ws["dir"], name)
        assert run(capsys, "game", cmd, path, "--format", "table") == (0, want, ""), (cmd, name)


def test_coalition_key_is_the_compact_json_list():
    # every coalition of twelve free players, two-digit players included
    lat = sm.build_lattice(sm.poset_from_covers(12, []))
    assert len(lat.elements) == 4096
    for a in lat.elements:
        key = cli.coalition_key(a)
        assert key == json.dumps(sm.players_from_mask(a), separators=(",", ":"))
    assert cli.coalition_key(0) == "[]"
    assert cli.coalition_key(sm.mask_from_players([1, 2, 10], 12)) == "[1,2,10]"


def test_parse_values_agrees_with_the_json_parser(monkeypatch):
    # keys spelled by coalition_key are looked up and every other key goes
    # to parse_coalition: the masks, and the errors, are those of one
    # json.loads per key
    lat = sm.build_lattice(sm.poset_from_covers(12, []))
    players = [sm.players_from_mask(a) for a in lat.elements]
    canonical = [json.dumps(p, separators=(",", ":")) for p in players]
    spellings = [
        canonical,
        [json.dumps(p[::-1], separators=(",", ":")) for p in players],
        [json.dumps(p) for p in players],
        [f" {key} " for key in canonical],
    ]
    parse_coalition = cli.parse_coalition
    read = []

    def spy(text, n):
        read.append(text)
        return parse_coalition(text, n)

    monkeypatch.setattr(cli, "parse_coalition", spy)
    for keys in spellings:
        table = {key: str(k) for k, key in enumerate(keys)}
        read.clear()
        assert cli.parse_values(table, lat) == oracle_parse_values(table, 12)
        assert read == [key for key in keys if key not in set(canonical)]
    odd = ["12", "9", "123456789", "", "{}", "[]", "[1,1]", "[12,1]", "[01]", "[1.0]",
           "[true]", "[0]", "[13]", "[1,]", "[-1]", "[1]x", "\u0661"]
    for key in odd:
        got = outcome(lambda: cli.parse_values({key: 1}, lat))
        assert got == outcome(lambda: oracle_parse_values({key: 1}, 12)), key
    # two keys for one coalition, in either order
    for table in ({"[1,2]": 1, "12": 2}, {"12": 1, "[1,2]": 2}, {"[2,1]": 1, " [1,2]": 2}):
        got = outcome(lambda: cli.parse_values(table, lat))
        assert got[0] is ValueError and "is given twice" in got[1]
        assert got == outcome(lambda: oracle_parse_values(table, 12))


def test_parse_value_reads_values_as_fraction_does(monkeypatch):
    # the spellings of str(Fraction) are read as ints; any other string is
    # read by the running interpreter's Fraction, whose grammar is the oracle
    flat3 = sm.build_lattice(sm.poset_from_covers(3, []))
    values = ["3/2", "-3/2", "+3/2", " 3/2 ", "1_0/3", "1.5", "1e2", "3/0", "0/0", "-0",
              "007/014", "\u0663/\u0662", "5", "-5", "-", "3/", "/2", "1/2/3", True, 1.5, None, 7]
    for val in values:
        got = outcome(lambda: cli.parse_value(val))
        assert got == outcome(lambda: oracle_parse_value(val)), val
        assert outcome(lambda: cli.parse_values({"[1]": val}, flat3)) == outcome(
            lambda: oracle_parse_values({"[1]": val}, 3)
        )
        if got[0] == "ok":
            assert type(got[1]) is Fraction and got[1] == Fraction(val)
    read = []

    def spy(*args):
        if isinstance(args[0], str):
            read.append(args[0])
        return Fraction(*args)

    monkeypatch.setattr(cli, "Fraction", spy)
    fast = {"3/2", "-3/2", "-0", "007/014", "5", "-5"}
    for val in values:
        if isinstance(val, str):
            read.clear()
            outcome(lambda: cli.parse_value(val))
            assert read == ([] if val in fast else [val]), val


def test_cone_rays_of_one_rel5_keep_their_bytes(tmp_path, capsys):
    # five players with the one relation 1 < 2: the largest ladder poset,
    # 241 rays, pinned byte for byte
    path = tmp_path / "one-rel5.json"
    path.write_text(json.dumps({"n": 5, "covers": [[1, 2]]}))
    code, out, err = run(capsys, "cone", "rays", str(path))
    assert code == 0 and err == ""
    assert payload_of(out)["count"] == 241
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "848f56fe4ab702d5ddb713517fc4365260dd3931a852d16d6a2c3a363fff9230"


def test_cone_facets(ws, capsys):
    code, out, _ = run(capsys, "cone", "facets", ws["hier4.json"])
    assert code == 0
    data = payload_of(out)
    assert data["count"] == 7
    assert data["facets"][0]["inequality"] == "v(23) >= v(2) + v(3)"
    assert data["facets"][-1] == {
        "base": [2, 3],
        "i": 1,
        "j": 4,
        "inequality": "v(1234) + v(23) >= v(123) + v(234)",
    }

    code, out, _ = run(capsys, "cone", "facets", "--format", "table", ws["hier4.json"])
    lat = sm.build_lattice(sm.poset_from_covers(4, [(2, 1), (3, 1)]))
    assert out.splitlines() == [t.render() for t in sm.facet_triples(lat)]


def test_cone_dim(ws, capsys):
    code, out, _ = run(capsys, "cone", "dim", ws["hier4.json"])
    assert code == 0
    assert payload_of(out) == {"ambient": 9, "dimension": 5}


def test_cone_face_compare(ws, capsys):
    pairs = [
        ("v1.json", "v1x2.json", "equal"),
        ("v1.json", "sum.json", "below"),
        ("sum.json", "v1.json", "above"),
        ("v1.json", "v2.json", "incomparable"),
    ]
    for a, b, relation in pairs:
        code, out, _ = run(capsys, "cone", "face-compare", ws[a], ws[b])
        assert code == 0
        assert payload_of(out) == {"relation": relation}


def test_json_output_is_canonical(ws, capsys):
    commands = [
        ("poset", "show", ws["hier4.json"]),
        ("lattice", "chains", ws["hier4.json"]),
        ("game", "normalize", ws["shifted.json"]),
        ("core", "tight", ws["v1.json"], "--perm", "2341"),
        ("cone", "rays", ws["hier4.json"]),
    ]
    for argv in commands:
        _, out, _ = run(capsys, *argv)
        assert_canonical(out)


def test_error_exit_codes(ws, capsys):
    bad = [
        ("lattice", "downsets", ws["dir"] + "/missing.json"),
        ("lattice", "downsets", ws["cyclic.json"]),
        ("game", "check", ws["floaty.json"], "--class", "supermodular"),
        ("game", "check", ws["booly.json"], "--class", "supermodular"),
        ("game", "check", ws["noposet.json"], "--class", "supermodular"),
        ("cone", "is-extreme", ws["nonsuper.json"]),
        ("game", "check", ws["listvalues.json"], "--class", "supermodular"),
        ("game", "check", ws["zerodenom.json"], "--class", "supermodular"),
        ("game", "check", ws["inlinebad.json"], "--class", "supermodular"),
        ("poset", "show", ws["listn.json"]),
        ("poset", "show", ws["floatn.json"]),
        ("poset", "show", ws["booln.json"]),
        ("poset", "show", ws["badcovers.json"]),
        ("poset", "show", ws["bare.json"]),
    ]
    for argv in bad:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:")
        assert err.count("\n") == 1 and "Traceback" not in err, argv


def test_a_coalition_named_twice_is_refused(ws, capsys):
    # "12", "[1,2]" and "[2,1]" are one coalition; the file is ambiguous
    path = os.path.join(ws["dir"], "twice.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"poset": "flat3.json", "values": {"12": "1", "[1,2]": "3", "[2,1]": "5"}}, fh)
    code, out, err = run(capsys, "game", "check", path, "--class", "supermodular")
    assert (code, out) == (2, "")
    assert err == "error: coalition [1,2] is given twice, as '12' and as '[1,2]'\n"


def test_size_caps(ws, capsys, monkeypatch):
    code, _, err = run(
        capsys, "lattice", "downsets", ws["hier4.json"], "--max-lattice", "5"
    )
    assert code == 2
    assert "cap" in err

    monkeypatch.setenv("SUPERMOD_MAX_LATTICE", "5")
    code, _, err = run(capsys, "lattice", "downsets", ws["hier4.json"])
    assert code == 2
    monkeypatch.delenv("SUPERMOD_MAX_LATTICE")

    code, _, err = run(
        capsys, "lattice", "chains", ws["hier4.json"], "--max-chains", "3"
    )
    assert code == 2

    code, _, err = run(
        capsys, "cone", "rays", ws["hier4.json"], "--max-cone", "4"
    )
    assert code == 2

    # a cap of 0 is a cap, not "use the default"
    for cmd, flag, cap_texts in (
        (("lattice", "downsets"), "--max-lattice", ("cap of 0 elements", "--max-lattice")),
        (
            ("lattice", "chains"),
            "--max-chains",
            ("more than 0 maximal chains", "has 8", "--max-chains"),
        ),
        (("cone", "rays"), "--max-cone", ("capped at 0 lattice elements", "--max-cone")),
    ):
        code, out, err = run(capsys, *cmd, ws["hier4.json"], flag, "0")
        assert code == 2 and out == ""
        assert all(text in err for text in cap_texts)
    monkeypatch.setenv("SUPERMOD_MAX_LATTICE", "0")
    code, _, err = run(capsys, "lattice", "downsets", ws["hier4.json"])
    assert code == 2 and "cap of 0 elements" in err

    # a negative or non-integer cap is refused before any work, naming the
    # flag or the environment variable it came from
    for cmd, flag in (
        (("lattice", "downsets"), "--max-lattice"),
        (("lattice", "chains"), "--max-chains"),
        (("cone", "rays"), "--max-cone"),
    ):
        for value in ("-3", "abc"):
            with pytest.raises(SystemExit) as exc:
                cli.main([*cmd, ws["hier4.json"], flag, value])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and f"argument {flag}: must be a nonnegative integer" in err
    for value in ("abc", "-3"):
        monkeypatch.setenv("SUPERMOD_MAX_LATTICE", value)
        code, out, err = run(capsys, "lattice", "downsets", ws["hier4.json"])
        assert code == 2 and out == ""
        assert err == f"error: SUPERMOD_MAX_LATTICE must be a nonnegative integer, got '{value}'\n"


def test_cone_rays_applies_the_default_cap(tmp_path, capsys, monkeypatch):
    # flat7 has 128 down-sets: without --max-cone the library default of
    # 64 refuses before double description starts
    path = tmp_path / "flat7.json"
    path.write_text(json.dumps({"n": 7, "covers": []}))

    def no_dd(rows, dim):
        raise AssertionError("double description ran past the cap")

    monkeypatch.setattr(sm.cone, "double_description", no_dd)
    code, out, err = run(capsys, "cone", "rays", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "capped at 64 lattice elements" in err
    assert sm.cone.DEFAULT_MAX_CONE_ELEMENTS == 64
    assert "128" in err and "--max-cone" in err


def test_max_dd_rays_caps_double_description(ws, capsys):
    # hier4 ends with 6 rays and flat4 with 37; a lower cap refuses cone
    # rays with exit 2, and fails the flat4 ray count of reproduce-paper
    code, out, err = run(capsys, "cone", "rays", ws["hier4.json"], "--max-dd-rays", "6")
    assert code == 0 and payload_of(out)["count"] == 6
    code, out, err = run(capsys, "cone", "rays", ws["hier4.json"], "--max-dd-rays", "5")
    assert code == 2 and out == ""
    assert err.startswith("error: double description holds 6 intermediate rays after row ")
    assert err.endswith(", over the cap of 5; raise it with --max-dd-rays or max_rays\n")
    code, out, err = run(capsys, "reproduce-paper", "--max-dd-rays", "36")
    assert code == 1
    failed = [c for c in payload_of(out)["checks"] if not c["pass"]]
    assert [c["claim"] for c in failed] == ["flat4: extreme ray count"]
    assert "over the cap of 36" in failed[0]["got"] and "--max-dd-rays" in failed[0]["got"]


def test_removed_options_are_refused(ws, capsys):
    # cone dim is a certificate with no cone cap, and the Moebius commands
    # have one closed form; argparse refuses the dropped options
    for argv in (
        ("cone", "dim", ws["hier4.json"], "--max-cone", "0"),
        ("lattice", "moebius", ws["hier4.json"], "--from", "{}", "--to", "23", "--recursive"),
        ("game", "moebius", ws["v1.json"], "--recursive"),
    ):
        flag = next(a for a in argv if a in ("--max-cone", "--recursive"))
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_max_chains_is_refused_by_commands_it_does_not_cap(ws, capsys):
    # `lattice chains`, `core vertices` and `cone is-extreme` take the cap;
    # elsewhere the option is refused rather than silently ignored
    for argv in (
        ("core", "envelope", ws["v1.json"], "--coalition", "34"),
        ("core", "tight", ws["v1.json"], "--perm", "2314"),
        ("cone", "face-compare", ws["v1.json"], ws["v2.json"]),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--max-chains", "0"])
        assert exc.value.code == 2
        assert "--max-chains" in capsys.readouterr().err


def test_max_chains_caps_the_vertex_walk(tmp_path, capsys):
    # u_{1..11} on flat11: 11 core vertices but 11! maximal chains, more
    # than the default cap, so only a walk that builds no chain answers
    (tmp_path / "flat11.json").write_text(json.dumps({"n": 11, "covers": []}))
    top = json.dumps(list(range(1, 12)), separators=(",", ":"))
    u11 = tmp_path / "u11.json"
    u11.write_text(json.dumps({"poset": "flat11.json", "values": {top: 1}}))
    code, out, err = run(capsys, "cone", "is-extreme", str(u11))
    assert (code, err) == (0, "")
    assert payload_of(out)["extreme"] is True

    # |A|^2 on flat6 has 720 distinct marginal vectors, and rank 3 alone
    # holds 120 partial ones
    (tmp_path / "flat6.json").write_text(json.dumps({"n": 6, "covers": []}))
    values = {
        json.dumps(sm.players_from_mask(a), separators=(",", ":")): a.bit_count() ** 2
        for a in range(1, 64)
    }
    sq6 = tmp_path / "sq6.json"
    sq6.write_text(json.dumps({"poset": "flat6.json", "values": values}))
    for group, cmd in (("cone", "is-extreme"), ("core", "vertices")):
        code, out, err = run(capsys, group, cmd, str(sq6), "--max-chains", "100")
        assert (code, out) == (2, "")
        held = int(err.split(" holds ")[1].split()[0])
        assert held > 100
        assert "over the cap of 100" in err and "--max-chains" in err
    code, out, _ = run(capsys, "core", "vertices", str(sq6), "--max-chains", "720")
    assert code == 0 and payload_of(out)["count"] == 720


def test_reproduce_paper_passes(ws, capsys):
    code, out, err = run(capsys, "reproduce-paper")
    assert code == 0
    data = payload_of(out)
    assert data["results"]["checks_passed"] == data["results"]["checks_total"] == 14
    assert all(c["pass"] for c in data["checks"])
    assert err == ""

    code, out, _ = run(capsys, "reproduce-paper", "--format", "table")
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "14/14 checks passed"


def test_reproduce_paper_flags_corrupted_references(ws, tmp_path, capsys):
    blob = resources.files("supermod").joinpath("data/reference_results.json").read_text()
    golden = json.loads(blob)
    golden["hierarchy4"]["lattice_size"] = 11
    golden["flat4"]["extreme_ray_count"] = 36
    bad = tmp_path / "bad_golden.json"
    bad.write_text(json.dumps(golden))

    code, out, err = run(capsys, "reproduce-paper", "--golden", str(bad))
    assert code == 1
    data = payload_of(out)
    failed = [c["claim"] for c in data["checks"] if not c["pass"]]
    assert failed == ["hierarchy4: down-set count", "flat4: extreme ray count"]
    assert "first failing check: hierarchy4: down-set count" in err

    code, out, _ = run(
        capsys, "reproduce-paper", "--format", "table", "--golden", str(bad)
    )
    assert code == 1
    assert "FAIL  hierarchy4: down-set count" in out.splitlines()


MALFORMED_REFERENCES = [
    ((), []),
    (("hierarchy4",), 5),
    (("hierarchy4", "permutations"), 5),
    (("hierarchy4", "permutations"), None),
    (("hierarchy4", "extreme_rays"), 5),
    (("hierarchy4", "extreme_rays"), None),
    (("hierarchy4", "detailed_ray"), 5),
    (("hierarchy4", "detailed_ray"), None),
    (("hierarchy4", "detailed_ray", "marginal_groups"), 5),
    (("hierarchy4", "detailed_ray", "marginal_groups"), [5]),
    (("hierarchy4", "detailed_ray", "tight_groups"), 5),
    (("hierarchy4", "detailed_ray", "tight_groups"), [5]),
    (("flat4", "poset", "n"), 5),
]


@pytest.mark.parametrize(
    "field, value",
    MALFORMED_REFERENCES,
    ids=[f"{'.'.join(f) or 'file'}={json.dumps(v)}" for f, v in MALFORMED_REFERENCES],
)
def test_reproduce_paper_fails_malformed_references_without_crashing(
    tmp_path, capsys, field, value
):
    golden = json.loads(
        resources.files("supermod").joinpath("data/reference_results.json").read_text()
    )
    if field:
        owner = golden
        for key in field[:-1]:
            owner = owner[key]
        owner[field[-1]] = value
    else:
        golden = value
    bad = tmp_path / "bad_golden.json"
    bad.write_text(json.dumps(golden))

    code, _, err = run(capsys, "reproduce-paper", "--golden", str(bad))
    assert code in (1, 2)
    assert "Traceback" not in err


def test_reproduce_paper_is_deterministic(ws, capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "reproduce-paper")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def run_child(*argv):
    """A fresh interpreter run with the given arguments.  The child must
    import the package this suite imported, also when it was found through
    pytest's pythonpath setting rather than PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(sm.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point(ws):
    proc = run_child("-m", "supermod", "cone", "dim", ws["hier4.json"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dimension"] == 5


def test_the_parser_is_built_once_on_first_use():
    proc = run_child(
        "-c", "import supermod.cli as c; print(c.build_parser.cache_info().currsize)"
    )
    assert (proc.returncode, proc.stdout) == (0, "0\n")
    assert cli.build_parser() is cli.build_parser()


def test_every_subcommand_path_names_one_handler():
    def leaves(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield path
        for action in subs:
            for name, child in action.choices.items():
                yield from leaves(child, (*path, name))

    paths = list(leaves(cli.build_parser(), ()))
    names = {"cmd_" + "_".join(path).replace("-", "_") for path in paths}
    assert len(paths) == len(names) == 17
    assert all(callable(getattr(cli, name, None)) for name in names)
    # and no handler is left that no path reaches
    assert names == {name for name in vars(cli) if name.startswith("cmd_")}


def test_back_to_back_calls_leak_no_state(ws, capsys, monkeypatch):
    chains = ("lattice", "chains", ws["hier4.json"])
    fresh = run_child("-m", "supermod", *chains)
    assert fresh.returncode == 0 and json.loads(fresh.stdout)["count"] == 8
    assert run(capsys, *chains, "--format", "table")[1].startswith("2314: ")
    assert run(capsys, *chains) == (0, fresh.stdout, "")
    assert run(capsys, *chains, "--max-chains", "5")[0] == 2
    assert run(capsys, *chains) == (0, fresh.stdout, "")
    monkeypatch.setenv("SUPERMOD_MAX_LATTICE", "5")
    assert run(capsys, *chains)[0] == 2
    monkeypatch.delenv("SUPERMOD_MAX_LATTICE")
    assert run(capsys, *chains) == (0, fresh.stdout, "")
    # an argparse refusal exits mid-parse and leaves nothing behind
    for refused in (("lattice", "spam"), ("lattice", "chains"), (*chains, "--max-chains", "-1")):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(refused))
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *chains) == (0, fresh.stdout, "")


def test_a_handler_replaced_after_the_first_call_runs(ws, capsys, monkeypatch):
    assert run(capsys, "cone", "dim", ws["hier4.json"])[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_cone_dim", lambda args: seen.append(args.poset) or 7)
    assert run(capsys, "cone", "dim", ws["hier4.json"]) == (7, "", "")
    assert seen == [ws["hier4.json"]]
