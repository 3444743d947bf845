"""End-to-end tests of the command line front end.

Each subcommand is exercised through cli.main on files written under
tmp_path, and the JSON payloads are compared against direct library calls
so the adapter cannot drift away from the package it wraps.
"""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import pytest

import supermod as sm
from supermod import cli
from supermod.cone import DEFAULT_MAX_CONE_ELEMENTS

from conftest import (
    HIER4_GENERATORS,
    LADDER,
    game_from_table,
    oracle_game_values,
    oracle_parse_value,
    outcome,
    random_poset,
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
    put("numberposet.json", {"poset": 3, "values": {}})
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
    # a permutation is digits or comma-separated players
    code, out, err = run(capsys, "core", "tight", ws["v1.json"], "--perm", "abc")
    assert (code, out, err) == (2, "", "error: cannot parse permutation 'abc'\n")


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
    keys = cli.coalition_keys(lat)
    expected = [cli.game_payload(g, keys) for g in sm.extreme_rays(lat)]
    assert data["rays"] == expected
    tables = sorted(
        (game_from_table(lat, t) for t in HIER4_GENERATORS), key=lambda g: g.values
    )
    assert expected == [cli.game_payload(g, keys) for g in tables]


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
    # moebius and normalize tables and JSON pinned byte for byte, with the
    # "(zero transform)" line and the "  0" of an empty part, a modular
    # game (card.json), and unreduced spellings over large denominators
    for name, values in (
        ("zero.json", {}),
        ("halves.json", {"[2]": "1/2", "[2,3]": "-3/2", "[1,2,3,4]": 2}),
        ("unreduced.json", {
            "[2]": "2/4", "[3]": "-0/7", "[2,3]": "-6/4", "[2,4]": "007/014",
            "[2,3,4]": "2000000014/1000000007", "[1,2,3]": "5/123456789012",
            "[1,2,3,4]": "+10/4",
        }),
    ):
        with open(os.path.join(ws["dir"], name), "w") as fh:
            json.dump({"poset": "hier4.json", "values": values}, fh)
    big = "123456789012"
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
        ("moebius", "unreduced.json"):
            f"2: 1/2\n23: -2\n123: 185185183523/{big}\n234: 7/2\n1234: -123456789017/{big}\n",
        ("normalize", "unreduced.json"):
            f"zero-normalized part:\n  23: -2\n  123: -2\n  234: 3/2\n  1234: 61728394501/{big}\n"
            f"modular part:\n  2: 1/2\n  23: 1/2\n  24: 1/2\n  123: 246913578029/{big}\n"
            f"  234: 1/2\n  1234: 246913578029/{big}\n",
    }
    for (cmd, name), want in cases.items():
        path = os.path.join(ws["dir"], name)
        assert run(capsys, "game", cmd, path, "--format", "table") == (0, want, ""), (cmd, name)
    modular = {
        "[1,2,3,4]": "4", "[1,2,3]": "3", "[2,3,4]": "3", "[2,3]": "2", "[2,4]": "2",
        "[2]": "1", "[3,4]": "2", "[3]": "1", "[4]": "1",
    }
    v1 = {"[1,2,3,4]": "1", "[2,3,4]": "1", "[2,4]": "1"}
    json_cases = {
        ("moebius", "shifted.json"):
            {"values": {"[1,2,3]": "1", "[2,4]": "1", "[2]": "1", "[3]": "1", "[4]": "1"}},
        ("moebius", "v1.json"): {"values": {"[2,4]": "1"}},
        ("moebius", "card.json"):
            {"values": {"[1,2,3]": "1", "[2]": "1", "[3]": "1", "[4]": "1"}},
        ("moebius", "zero.json"): {"values": {}},
        ("moebius", "halves.json"): {"values": {
            "[1,2,3,4]": "1/2", "[1,2,3]": "3/2", "[2,3,4]": "2", "[2,3]": "-2",
            "[2,4]": "-1/2", "[2]": "1/2",
        }},
        ("moebius", "unreduced.json"): {"values": {
            "[1,2,3,4]": f"-123456789017/{big}", "[1,2,3]": f"185185183523/{big}",
            "[2,3,4]": "7/2", "[2,3]": "-2", "[2]": "1/2",
        }},
        ("normalize", "shifted.json"): {"modular": modular, "zero_normalized": v1},
        ("normalize", "v1.json"): {"modular": {}, "zero_normalized": v1},
        ("normalize", "card.json"): {"modular": modular, "zero_normalized": {}},
        ("normalize", "zero.json"): {"modular": {}, "zero_normalized": {}},
        ("normalize", "halves.json"): {
            "modular": {
                "[1,2,3,4]": "2", "[1,2,3]": "2", "[2,3,4]": "1/2", "[2,3]": "1/2",
                "[2,4]": "1/2", "[2]": "1/2",
            },
            "zero_normalized": {
                "[1,2,3]": "-2", "[2,3,4]": "-1/2", "[2,3]": "-2", "[2,4]": "-1/2",
            },
        },
        ("normalize", "unreduced.json"): {
            "modular": {
                "[1,2,3,4]": f"246913578029/{big}", "[1,2,3]": f"246913578029/{big}",
                "[2,3,4]": "1/2", "[2,3]": "1/2", "[2,4]": "1/2", "[2]": "1/2",
            },
            "zero_normalized": {
                "[1,2,3,4]": f"61728394501/{big}", "[1,2,3]": "-2", "[2,3,4]": "3/2",
                "[2,3]": "-2",
            },
        },
    }
    for (cmd, name), want in json_cases.items():
        path = os.path.join(ws["dir"], name)
        text = json.dumps(want, sort_keys=True, indent=2) + "\n"
        assert run(capsys, "game", cmd, path) == (0, text, ""), (cmd, name)


def test_coalition_key_is_the_compact_json_list():
    # every coalition of twelve free players, two-digit players included
    lat = sm.build_lattice(sm.poset_from_covers(12, []))
    assert len(lat.elements) == 4096
    for a in lat.elements:
        key = cli.coalition_key(a)
        assert key == json.dumps(sm.players_from_mask(a), separators=(",", ":"))
    assert cli.coalition_key(0) == "[]"
    assert cli.coalition_key(sm.mask_from_players([1, 2, 10], 12)) == "[1,2,10]"


FOREST10 = (10, [(2, 1), (3, 1), (5, 4), (6, 4), (8, 7)])


def reversed_chain(n):
    """n < n-1 < ... < 1: each down-set's highest player is its least, so
    no key but a singleton's extends an earlier one."""
    return n, [(i + 1, i) for i in range(1, n)]


def test_coalition_keys_extend_earlier_keys():
    # the extended keys are coalition_key's, on posets where most, some and
    # none of the keys extend an earlier one, two-digit players included
    rng = random.Random(26)
    posets = [random_poset(rng, rng.randint(1, 12)) for _ in range(48)]
    posets += [
        sm.poset_from_covers(*reversed_chain(12)),
        sm.poset_from_covers(*FOREST10),
        sm.poset_from_covers(12, []),
    ]
    for p in posets:
        lat = sm.build_lattice(p)
        assert cli.coalition_keys(lat) == [cli.coalition_key(a) for a in lat.elements], p


def test_coalition_keys_spell_only_the_keys_they_cannot_extend(monkeypatch):
    # a flat poset's keys all extend earlier ones; a reversed chain spells
    # every key past the singleton
    calls = []
    coalition_key = cli.coalition_key

    def spy(mask):
        calls.append(mask)
        return coalition_key(mask)

    monkeypatch.setattr(cli, "coalition_key", spy)
    for n in range(1, 13):
        lat = sm.build_lattice(sm.poset_from_covers(n, []))
        assert len(cli.coalition_keys(lat)) == 2 ** n
    assert calls == []
    lat = sm.build_lattice(sm.poset_from_covers(*reversed_chain(12)))
    assert cli.coalition_keys(lat)[:3] == ["[]", "[12]", "[11,12]"]
    assert calls == list(lat.elements[2:])


def test_ratio_text_is_the_fraction_spelling():
    rng = random.Random(26)
    big = 10 ** 39
    pairs = [(0, 1), (0, 7), (5, 1), (-5, 1), (6, 3), (-6, 3), (3, 6), (-3, 6), (-7, 14),
             (14, 7), (big * 6, 3), (-big, 7 * big), (big + 1, big)]
    pairs += [
        (rng.choice((-1, 1)) * rng.randrange(10 ** rng.randint(0, 40)),
         rng.choice((1, 2, 12, rng.randrange(1, 10 ** rng.randint(1, 40)))))
        for _ in range(500)
    ]
    for x, den in pairs:
        assert cli._ratio_text(x, den) == str(Fraction(x, den)), (x, den)


def compact(mask):
    return json.dumps(sm.players_from_mask(mask), separators=(",", ":"))


def oracle_values(game):
    """A game's nonzero values as a game file table, spelled by json.dumps
    and str(Fraction)."""
    return {compact(a): str(v) for a, v in zip(game.lattice.elements, game.values) if v}


@pytest.mark.parametrize("n,covers", [
    (11, [(i, i + 1) for i in range(1, 10)]),
    reversed_chain(10),
    FOREST10,
])
def test_outputs_spell_two_digit_players_and_large_values(tmp_path, capsys, n, covers):
    # game moebius, game normalize and cone rays JSON, byte for byte, on
    # posets with players 10 and up: a 10-chain with a free player, a
    # reversed 10-chain and forest10
    (tmp_path / "p.json").write_text(json.dumps({"n": n, "covers": covers}))
    lat = sm.build_lattice(sm.poset_from_covers(n, covers))
    rng = random.Random(n)
    values = {
        compact(a): str(Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.choice((1, 6, 10 ** 20))))
        for a in rng.sample(lat.elements[1:], min(60, len(lat.elements) - 1))
    }
    (tmp_path / "g.json").write_text(json.dumps({"poset": "p.json", "values": values}))
    g = game_from_table(lat, {tuple(json.loads(k)): v for k, v in values.items()})
    w, m = sm.zero_normalize(g)
    cases = {
        ("game", "moebius"): {"values": oracle_values(sm.mobius_transform(g))},
        ("game", "normalize"): {"zero_normalized": oracle_values(w), "modular": oracle_values(m)},
    }
    for argv, want in cases.items():
        text = json.dumps(want, sort_keys=True, indent=2) + "\n"
        assert run(capsys, *argv, str(tmp_path / "g.json")) == (0, text, ""), argv
    if len(lat.elements) <= DEFAULT_MAX_CONE_ELEMENTS:
        rays = [oracle_values(r) for r in sm.extreme_rays(lat)]
        text = json.dumps({"count": len(rays), "rays": rays}, sort_keys=True, indent=2) + "\n"
        assert run(capsys, "cone", "rays", str(tmp_path / "p.json")) == (0, text, "")


def read_fractions(table, lat):
    """The nonzero values of the game cli.read_game reads from a table, by
    mask, as oracle_game_values gives them."""
    return cli.read_game(table, lat, cli.coalition_keys(lat)).to_mapping()


def test_read_game_agrees_with_the_json_parser(monkeypatch):
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
    assert cli.coalition_keys(lat) == canonical
    for keys in spellings:
        table = {key: str(k) for k, key in enumerate(keys)}
        read.clear()
        assert read_fractions(table, lat) == oracle_game_values(table, 12)
        assert read == [key for key in keys if key not in set(canonical)]
    odd = ["12", "9", "123456789", "", "{}", "[]", "[1,1]", "[12,1]", "[01]", "[1.0]",
           "[true]", "[0]", "[13]", "[1,]", "[-1]", "[1]x", "\u0661"]
    for key in odd:
        got = outcome(lambda: read_fractions({key: 1}, lat))
        assert got == outcome(lambda: oracle_game_values({key: 1}, 12)), key
    # two keys for one coalition, in either order
    for table in ({"[1,2]": 1, "12": 2}, {"12": 1, "[1,2]": 2}, {"[2,1]": 1, " [1,2]": 2}):
        got = outcome(lambda: read_fractions(table, lat))
        assert got[0] is ValueError and "is given twice" in got[1]
        assert got == outcome(lambda: oracle_game_values(table, 12))


def test_read_game_reports_the_first_fault_in_table_order():
    # keys of flat3 are read in table order, each key before its value, as
    # the oracle reads them; a repeated coalition can only follow a key
    # outside the canonical spellings, whichever of the two comes first
    flat3 = sm.build_lattice(sm.poset_from_covers(3, []))
    tables = [
        # a bad value before a repeated coalition, on it, and after it
        {"[1,2]": 1, "[3]": "x", "12": 2},
        {"[1,2]": 1, "12": "x"},
        {"[1,2]": 1, "12": 2, "[3]": "x"},
        {"12": 1, "[3]": 1.5, "[2,1]": 2},
        # a canonical key repeating an earlier "12", and the reverse order
        {"12": 1, "[1,2]": 2},
        {"[1,2]": 1, "12": 2},
        {"12": 1, "[3]": 1, "[1,2]": 2},
        # the only non-canonical key comes last: it repeats, or it does not
        {"[1]": 1, "[2]": 2, "[1,2]": 3, "21": 4},
        {"[1]": 1, "[2]": 2, "[1,2]": 3, " [3] ": 4},
        {"[1]": 1, "[2]": 2, "[1,2]": 3, "[3,1]": "1/0"},
    ]
    for table in tables:
        got = outcome(lambda: read_fractions(table, flat3))
        assert got == outcome(lambda: oracle_game_values(table, 3)), table
    kinds = [outcome(lambda: read_fractions(t, flat3))[0] for t in tables]
    assert kinds == [ValueError] * 8 + ["ok", ValueError]


def test_parse_value_reads_values_as_fraction_does(monkeypatch):
    # the spellings of str(Fraction) are read as ints; any other string is
    # read by the running interpreter's Fraction, whose grammar is the oracle
    flat3 = sm.build_lattice(sm.poset_from_covers(3, []))
    values = ["3/2", "-3/2", "+3/2", " 3/2 ", "1_0/3", "1.5", "1e2", "3/0", "0/0", "-0",
              "007/014", "\u0663/\u0662", "5", "-5", "-", "3/", "/2", "1/2/3", True, 1.5, None, 7,
              "1e4300", "-1E-4300", "2.5e_3", "1e", "e5"]
    # an exponent past the digit limit of int-string conversion is refused
    # before Fraction builds its power of ten
    limit = sys.get_int_max_str_digits()
    huge = ["1e-10000000", f"1E{limit + 1}", f"-2.5e+{limit + 1} ", "1e10_000_000",
            "1e" + "".join(chr(0x660 + int(c)) for c in str(limit + 1)), "x1e10000000"]
    # an exponent of more digits than the limit fails int() before Fraction
    # runs, with the message Fraction would give
    long_exp = "1e" + "9" * (limit + 1)
    values += huge + [f"1e {limit + 1}", f"1e{limit + 1}x", long_exp]
    for val in values:
        got = outcome(lambda: cli.parse_value(val))
        if got[0] == "ok":
            num, den = got[1]
            assert type(num) is int and type(den) is int and den > 0, val
            got = ("ok", Fraction(num, den))
        assert got == outcome(lambda: oracle_parse_value(val)), val
        assert outcome(lambda: read_fractions({"[1]": val}, flat3)) == outcome(
            lambda: oracle_game_values({"[1]": val}, 3)
        )
    # the ints of a "p/q" spelling are kept as written, not reduced
    assert cli.parse_value("007/014") == (7, 14) and cli.parse_value("-6/4") == (-6, 4)
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
            assert read == ([] if val in fast or val in huge or val == long_exp else [val]), val
    for val in huge:
        with pytest.raises(ValueError, match=f"exponent beyond the limit of {limit}"):
            cli.parse_value(val)


def test_cone_rays_of_the_ladder_keep_their_bytes(tmp_path, capsys):
    # the `cone rays` JSON of every ladder poset, pinned byte for byte;
    # one-rel5, five players with the one relation 1 < 2, is the largest
    pinned = {
        "hier4": (6, "d5c104b648eb5cfaae6d573c4db585becdd52ba36f570052a3765657f8281059"),
        "flat4": (37, "fea3e7743460c1e4f7af0383b9a7f414ca9b1c07778b0a35005841e2132f1420"),
        "mixed5": (52, "5142fc67b1455b85febd07fdf665bc8b221e5ae17955e71c863e7c7761b1fada"),
        "one-rel5": (241, "848f56fe4ab702d5ddb713517fc4365260dd3931a852d16d6a2c3a363fff9230"),
    }
    for name, (count, digest) in pinned.items():
        n, covers = LADDER[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": n, "covers": covers}))
        code, out, err = run(capsys, "cone", "rays", str(path))
        assert code == 0 and err == ""
        assert payload_of(out)["count"] == count
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


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
        ("game", "check", ws["numberposet.json"], "--class", "supermodular"),
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


def test_a_game_file_reports_the_fault_of_its_first_bad_key(ws, capsys):
    # keys are read in file order, each one looked up, checked for an
    # earlier key of its coalition and its value parsed before the next:
    # of two faults, the one at the earlier key is reported
    path = os.path.join(ws["dir"], "two-faults.json")
    not_down = "error: coalition [1, 2] is not a down-set of the poset\n"
    zero_den = "error: game value '1/0' has a zero denominator\n"
    twice = "error: coalition [2] is given twice, as '[2]' and as '2'\n"
    cases = [
        ({"[1,2]": 1, "[2]": "1/0"}, not_down),
        ({"[2]": "1/0", "[1,2]": 1}, zero_den),
        ({"[1,2]": 1, "12": 2}, not_down),
        ({"[2]": 1, "2": 1, "[1,2]": 1}, twice),
    ]
    for values, err in cases:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"poset": "hier4.json", "values": values}, fh)
        assert run(capsys, "game", "normalize", path) == (2, "", err), values


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
    # the table is pinned byte for byte
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "4fe62e452f237c8c8ddfff47d3b79494bb88869e22f590ea68b18a847e5fbc36"


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


def test_reproduce_paper_reads_one_extremality_verdict_per_reference_ray(monkeypatch):
    # is_extreme decides by both criteria, so one call per reference ray
    # answers the payoff-system row and the game-equality row alike
    rows = [
        "hierarchy4: reference generators extreme (payoff system)",
        "hierarchy4: reference generators extreme (game-equality system)",
    ]
    calls = []
    is_extreme = cli.is_extreme
    monkeypatch.setattr(cli, "is_extreme", lambda v: calls.append(v) or is_extreme(v))
    checks = {c["claim"]: c for c in cli.reproduce_paper()["checks"]}
    assert len(calls) == len(HIER4_GENERATORS) == len(checks[rows[0]]["got"])
    assert all(checks[row]["pass"] and checks[row]["got"] == [True] * 6 for row in rows)
    # a disagreement of the criteria fails both rows with the same error
    monkeypatch.setattr(sm.cone, "_payoff_extreme", lambda *args: False)
    checks = {c["claim"]: c for c in cli.reproduce_paper()["checks"]}
    for row in rows:
        assert not checks[row]["pass"]
        assert checks[row]["got"] == (
            "error: CrossCheckError: extremality criteria disagree; please report this"
        )


def test_reproduce_paper_is_deterministic(ws, capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "reproduce-paper")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


# the directory holding the package this suite imported, also when it was
# found through pytest's pythonpath setting rather than PYTHONPATH
SRC = os.path.dirname(os.path.dirname(sm.__file__))


def run_child(*argv):
    """A fresh interpreter run with the given arguments, importing the
    package from SRC."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
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
    # the cli module runs as a script too, with the same bytes and code
    script = run_child("-m", "supermod.cli", "cone", "dim", ws["hier4.json"])
    assert (script.returncode, script.stdout, script.stderr) == (0, proc.stdout, "")


def test_the_parser_is_built_once_on_first_use():
    proc = run_child(
        "-c", "import supermod.cli as c; print(c.build_parser.cache_info().currsize)"
    )
    assert (proc.returncode, proc.stdout) == (0, "0\n")
    assert cli.build_parser() is cli.build_parser()


def test_importing_the_cli_loads_no_module_only_reproduce_paper_needs():
    # -I ignores PYTHONPATH and -S skips site, which would preload
    # importlib.resources; the child imports nothing but the package
    heavy = ("dataclasses", "inspect", "hashlib", "_hashlib", "importlib.resources")
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import supermod.cli, supermod; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_reproduce_paper_runs_in_a_fresh_interpreter(tmp_path):
    # the suite itself has imported hashlib and importlib.resources, so only
    # a child process runs the imports reproduce_paper makes on demand
    blob = resources.files("supermod").joinpath(cli.GOLDEN_RESOURCE).read_bytes()
    copy = tmp_path / "golden.json"
    copy.write_bytes(blob)
    for extra in ((), ("--golden", str(copy))):
        proc = run_child("-m", "supermod", "reproduce-paper", *extra)
        assert (proc.returncode, proc.stderr) == (0, "")
        data = payload_of(proc.stdout)
        assert data["results"]["checks_passed"] == data["results"]["checks_total"] == 14
        assert data["inputs"]["golden_sha256"] == hashlib.sha256(blob).hexdigest()


def _subcommand_paths():
    """Every path of subcommand names that the parser accepts."""

    def leaves(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield path
        for action in subs:
            for name, child in action.choices.items():
                yield from leaves(child, (*path, name))

    return list(leaves(cli.build_parser(), ()))


def _parser_paths():
    """Every parser of the tree with its path: the root, the groups, the
    commands."""
    out = []

    def walk(parser, path):
        out.append((path, parser))
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    walk(child, (*path, name))

    walk(cli.build_parser(), ())
    return out


# the SHA-256 of every --help text at 80 columns, path by path, NUL-separated
HELP_SHA256 = "08d8c5f8dab7920fa9149ff63f666c27f5824252a675f3636d96ca834e77a6a2"


def test_every_help_text_keeps_its_bytes(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    paths = _parser_paths()
    assert len(paths) == 23  # the root, 5 groups and 17 commands
    blob = "\0".join(f"{' '.join(path)}\0{parser.format_help()}" for path, parser in paths)
    assert hashlib.sha256(blob.encode()).hexdigest() == HELP_SHA256


def test_every_subcommand_path_names_one_handler():
    paths = _subcommand_paths()
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


# -- edge inputs ----------------------------------------------------------------


def _chain(k, free=0):
    """Poset file form of players 1 < 2 < ... < k plus `free` unrelated ones."""
    return {"n": k + free, "covers": [[i, i + 1] for i in range(1, k)]}


def _fork(k):
    """Poset file form of players 1 < 2 < ... < k-2 with k-1 and k both
    covering k-2: k+2 down-sets, and a cone of dimension one."""
    return {"n": k, "covers": _chain(k - 2)["covers"] + [[k - 2, k - 1], [k - 2, k]]}


def test_a_long_fork_prints_its_one_ray(tmp_path, capsys):
    # 1,200 players: the one ray is worth 1 on the full set, and the
    # automorphism search that certifies it (the identity and the swap of
    # the two top players) nests no call per player
    path = tmp_path / "fork1200.json"
    path.write_text(json.dumps(_fork(1200)))
    players = ",".join(map(str, range(1, 1201)))
    argv = ("cone", "rays", str(path), "--max-cone", "5000")
    assert run(capsys, *argv, "--format", "table") == (0, f"ray 1: {{{players}}}=1\n", "")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert payload_of(out) == {"count": 1, "rays": [{f"[{players}]": "1"}]}


def test_a_long_chain_lists_its_chain_and_its_empty_cone(tmp_path, capsys):
    # 1,200 players: the one maximal chain in full, and no extreme ray
    # under a --max-cone that admits the 1,201 down-sets
    path = tmp_path / "chain1200.json"
    path.write_text(json.dumps(_chain(1200)))
    code, out, err = run(capsys, "lattice", "chains", str(path))
    assert (code, err) == (0, "")
    players = list(range(1, 1201))
    assert payload_of(out) == {
        "count": 1,
        "chains": [
            {"perm": ",".join(map(str, players)), "sets": [players[:k] for k in range(1201)]}
        ],
    }
    code, out, err = run(capsys, "cone", "rays", str(path), "--max-cone", "5000")
    assert (code, err) == (0, "")
    assert payload_of(out) == {"count": 0, "rays": []}


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    # the decoder's RecursionError exits 2 with one line naming the file
    deep = "[" * 100_000 + "]" * 100_000
    poset = tmp_path / "deep.json"
    poset.write_text(deep)
    game = tmp_path / "deep-game.json"
    game.write_text('{"poset": {"n": 1}, "values": ' + deep + "}")
    via = tmp_path / "via.json"
    via.write_text(json.dumps({"poset": "deep.json", "values": {}}))
    key = tmp_path / "deep-key.json"
    key.write_text(json.dumps({"poset": {"n": 1}, "values": {deep: 1}}))
    golden = tmp_path / "deep-golden.json"
    golden.write_text(deep)
    cases = [
        (("poset", "show", str(poset)), str(poset)),
        (("lattice", "chains", str(poset)), str(poset)),
        (("game", "check", str(game), "--class", "supermodular"), str(game)),
        (("core", "vertices", str(via)), str(poset)),
        (("game", "moebius", str(key)), "coalition"),
        (("reproduce-paper", "--golden", str(golden)), str(golden)),
    ]
    for argv, name in cases:
        assert run(capsys, *argv) == (2, "", f"error: {name}: JSON nested too deeply to read\n")


def test_a_huge_exponent_is_refused_before_it_is_built(tmp_path, capsys):
    # "1e-10000000" would make Fraction build 10**10000000 and fail only
    # when written; other spellings that Fraction reads keep their bytes
    (tmp_path / "flat3.json").write_text(json.dumps({"n": 3, "covers": []}))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"poset": "flat3.json", "values": {"[1]": "1e-10000000"}}))
    limit = sys.get_int_max_str_digits()
    assert run(capsys, "game", "moebius", str(path)) == (
        2, "", f"error: game value '1e-10000000' has an exponent beyond the limit of {limit}\n"
    )
    path.write_text(json.dumps({
        "poset": "flat3.json", "values": {"[1]": "1e2", "[2]": "1.5", "[1,2,3]": "2.5E-1"},
    }))
    code, out, err = run(capsys, "game", "moebius", str(path), "--format", "table")
    assert (code, err) == (0, "")
    assert out == "1: 100\n2: 3/2\n12: -203/2\n13: -100\n23: -3/2\n123: 407/4\n"


def _frames():
    f, k = sys._getframe(), 0
    while f is not None:
        f, k = f.f_back, k + 1
    return k


def test_every_subcommand_survives_the_edge_inputs(tmp_path, capsys):
    # every subcommand on a 250-player chain, that chain plus a free player,
    # a 250-player fork, deeply nested JSON, a huge exponent and a raised
    # --max-cone: main returns 0-3, with one error line for 2 and 3, and
    # raises nothing.
    # The recursion limit is held 200 frames above this test, so a walk
    # nesting one call per player overflows here as it would on a
    # 1,000-player chain under the default limit.
    files = {
        "long.json": _chain(250),
        "wide.json": _chain(250, 1),
        "fork.json": _fork(250),
        "glong.json": {"poset": "long.json", "values": {"[1]": 1, "[1,2]": "3/2"}},
        "gwide.json": {"poset": "wide.json", "values": {"[251]": 1, "[1]": "1e2", "[1,251]": 3}},
        "gkey.json": {"poset": {"n": 2}, "values": {"[" * 50_000 + "]" * 50_000: 1}},
        "ghuge.json": {"poset": {"n": 2}, "values": {"[1]": "1e-10000000"}},
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    (tmp_path / "deep.json").write_text("[" * 50_000 + "]" * 50_000)
    gold = json.loads(resources.files("supermod").joinpath(cli.GOLDEN_RESOURCE).read_bytes())
    gold["hierarchy4"]["detailed_ray"]["values"]["[2,4]"] = "1e-10000000"
    (tmp_path / "golden-huge.json").write_text(json.dumps(gold))
    p = {k: str(tmp_path / k) for k in ("long.json", "wide.json", "fork.json", "deep.json")}
    games = ("glong.json", "gwide.json", "gkey.json", "ghuge.json", "deep.json")
    g = {k: str(tmp_path / k) for k in games}
    long_perm = ",".join(map(str, range(1, 251)))
    perms = {g["glong.json"]: long_perm, g["gwide.json"]: long_perm + ",251"}
    calls = [
        ("reproduce-paper", "--golden", str(tmp_path / name))
        for name in ("deep.json", "golden-huge.json")
    ]
    calls.append(("lattice", "chains", p["wide.json"], "--max-chains", "250"))
    for path in p.values():
        calls += [
            ("poset", "show", path),
            ("lattice", "downsets", path),
            ("lattice", "moebius", path, "--from", "[]", "--to", "[1]"),
            ("core", "witness", path),
            ("cone", "facets", path),
            ("cone", "dim", path),
            ("cone", "rays", path) + (() if path == p["wide.json"] else ("--max-cone", "5000")),
        ]
        if path != p["wide.json"]:
            calls.append(("lattice", "chains", path))
    for path in g.values():
        calls += [
            ("game", "check", path, "--class", "supermodular"),
            ("game", "moebius", path),
            ("game", "normalize", path),
            ("core", "vertices", path),
            ("core", "tight", path, "--perm", perms.get(path, "12")),
            ("core", "envelope", path, "--coalition", "[1]"),
            ("cone", "is-extreme", path),
            ("cone", "face-compare", path, path),
        ]
    swept = {c[0] + " " + c[1] for c in calls if c[0] != "reproduce-paper"}
    assert swept | {"reproduce-paper"} == {" ".join(path) for path in _subcommand_paths()}
    codes = {}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 200)
    try:
        for argv in calls:
            for fmt in ("json", "table"):
                code, _, err = run(capsys, *argv, "--format", fmt)
                assert code in (0, 1, 2, 3), argv
                assert code < 2 or (err.startswith("error:") and err.count("\n") == 1), argv
                codes[argv] = code
    finally:
        sys.setrecursionlimit(limit)
    assert codes[("lattice", "chains", p["long.json"])] == 0
    assert codes[("cone", "rays", p["long.json"], "--max-cone", "5000")] == 0
    assert codes[("cone", "rays", p["fork.json"], "--max-cone", "5000")] == 0
    assert all(code == 2 for argv, code in codes.items() if p["deep.json"] in argv)
    refused = (g["gkey.json"], g["ghuge.json"])
    assert all(codes[argv] == 2 for argv in calls if any(path in argv for path in refused))
    assert codes[calls[0]] == 2 and codes[calls[1]] == 1
