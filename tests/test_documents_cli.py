"""Input documents, built-in generators, and the command-line interface."""

from __future__ import annotations

import copy
import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgrass import (
    QQ,
    InputError,
    builtin_names,
    compare_transverse_loci,
    document_digest,
    emit_builtin,
    parse_document,
    read_document,
)
from qgrass.census import enumerate_subreps
from qgrass.cli import _census_result, _dumps, main
from qgrass.reps import reduce_mod_p
from conftest import CHILD_ENV, builtin_rep


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_builtin_a21_ex1_shape():
    doc = emit_builtin("a21-ex1")
    quiver, rep = parse_document(doc)
    assert rep.dims == (3, 3, 3)
    assert quiver.vertices == ("1", "2", "3")
    mats = doc["representation"]["matrices"]
    assert mats["a12"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert mats["a23"] == [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]
    assert mats["a13"] == mats["a12"]


def test_builtin_a21_ex3_and_kronecker():
    _, rep = parse_document(emit_builtin("a21-ex3"))
    assert rep.dims == (2, 2, 2)
    doc = emit_builtin("kronecker-reg:2")
    _, rep = parse_document(doc)
    assert rep.dims == (2, 2)
    assert doc["representation"]["matrices"]["b"] == [["0", "1"], ["0", "0"]]
    _, rep = parse_document(emit_builtin("kronecker-preproj:1"))
    assert rep.dims == (1, 2)


def test_builtin_documents_share_nothing():
    # every Kronecker and a21 document once held the same quiver dict, so
    # editing one document's vertex order reordered every later document
    for name in ("kronecker-reg:3", "kronecker-preproj:1", "a21-ex3"):
        doc = emit_builtin(name)
        doc["quiver"]["vertices"].reverse()
        doc["quiver"]["arrows"].clear()
        fresh = emit_builtin(name)
        assert fresh["quiver"]["vertices"] == sorted(fresh["quiver"]["vertices"])
        assert fresh["quiver"]["arrows"]
    _, rep = parse_document(emit_builtin("kronecker-preproj:1"))
    assert rep.dims == (1, 2)


def test_builtin_ray_truncation():
    _, rep = parse_document(emit_builtin("a21-ray:3"))
    assert rep.dims == (1, 2, 1)
    doc = emit_builtin("a21-ray:6")
    assert doc["representation"]["dims"] == emit_builtin("a21-ex1")["representation"]["dims"]


def test_unknown_builtin_lists_names():
    with pytest.raises(InputError) as info:
        emit_builtin("nope")
    for name in builtin_names():
        assert name in str(info.value)


VALID = "a21-ex1, a21-ex3, a21-ray:<t>, kronecker-reg:<n>, kronecker-preproj:<n>"


@pytest.mark.parametrize(
    "name, message",
    [
        ("a21-ray:0", "ray quasi-length must be at least 1"),
        ("a21-ray:-2", "ray quasi-length must be at least 1"),
        ("kronecker-reg:0", "regular Kronecker size must be at least 1"),
        ("kronecker-preproj:-1", "preprojective Kronecker size must be nonnegative"),
        ("a21-ray:x", "bad numeric suffix in builtin name 'a21-ray:x'"),
        ("nope:x", "bad numeric suffix in builtin name 'nope:x'"),
        ("nope:1", f"unknown builtin 'nope:1'; valid names: {VALID}"),
        ("nope", f"unknown builtin 'nope'; valid names: {VALID}"),
        ("a21-ray", f"unknown builtin 'a21-ray'; valid names: {VALID}"),
        (":3", f"unknown builtin ':3'; valid names: {VALID}"),
    ],
)
def test_rejected_builtin_names_keep_their_text(name, message):
    with pytest.raises(InputError) as info:
        emit_builtin(name)
    assert str(info.value) == message


@pytest.mark.parametrize("number", ["1", "2"])
def test_every_listed_builtin_name_is_emitted(number):
    # the names that the "valid names" error prints are the names that emit
    for listed in builtin_names():
        name = listed.replace("<t>", number).replace("<n>", number)
        doc = emit_builtin(name)
        assert doc["metadata"]["name"] == name
        parse_document(doc)


def test_parse_document_keeps_every_entry():
    for name in ("a21-ex1", "a21-ex3", "kronecker-reg:3", "kronecker-preproj:2"):
        doc = emit_builtin(name)
        quiver, rep = parse_document(doc)
        assert list(quiver.vertices) == doc["quiver"]["vertices"]
        assert [tuple(a) for a in quiver.arrows] == [
            (a["id"], a["from"], a["to"]) for a in doc["quiver"]["arrows"]
        ]
        assert rep.dims == tuple(doc["representation"]["dims"][v] for v in quiver.vertices)
        assert {a: mat.to_rows() for a, mat in rep.matrices.items()} == {
            a: [[Fraction(x) for x in row] for row in rows]
            for a, rows in doc["representation"]["matrices"].items()
        }


def test_parse_document_diagnostics():
    base = emit_builtin("kronecker-reg:2")

    bad_rows = copy.deepcopy(base)
    bad_rows["representation"]["matrices"]["a"] = [["1", "0"]]
    with pytest.raises(InputError, match="arrow 'a'"):
        parse_document(bad_rows)

    bad_entry = copy.deepcopy(base)
    bad_entry["representation"]["matrices"]["b"][0][0] = "x"
    with pytest.raises(InputError, match=r"arrow 'b' entry \(0,0\)"):
        parse_document(bad_entry)

    cyclic = copy.deepcopy(base)
    cyclic["quiver"]["arrows"].append({"id": "back", "from": "2", "to": "1"})
    with pytest.raises(InputError, match="cycle"):
        parse_document(cyclic)

    missing_dim = copy.deepcopy(base)
    del missing_dim["representation"]["dims"]["2"]
    with pytest.raises(InputError, match="dims missing"):
        parse_document(missing_dim)

    inexact = copy.deepcopy(base)
    inexact["representation"]["matrices"]["a"][0][0] = 1.5
    with pytest.raises(InputError, match="exact rational"):
        parse_document(inexact)

    # bare integers and rational strings are both fine
    mixed = copy.deepcopy(base)
    mixed["representation"]["matrices"]["a"][0][0] = 1
    mixed["representation"]["matrices"]["a"][1][1] = "2/2"
    parse_document(mixed)


def test_parse_document_rejects_non_integer_dimensions(capsys, tmp_path):
    for value in (2.9, True, "2"):
        doc = emit_builtin("kronecker-reg:2")
        doc["representation"]["dims"]["1"] = value
        with pytest.raises(InputError, match="non-integer dimension"):
            parse_document(doc)
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "census", "--input", str(path), "--q", "2")
        assert (code, out) == (2, "")
        assert "non-integer dimension" in err


def test_cli_rejects_metadata_that_is_not_an_object(capsys, tmp_path):
    for value in ("x", 1):
        doc = emit_builtin("kronecker-reg:1")
        doc["metadata"] = value
        path = tmp_path / "metadata.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "census", "--input", str(path), "--q", "2")
        assert (code, out) == (2, "")
        assert "'metadata' must be a JSON object" in err


def test_parse_input_reports_file_errors(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        read_document(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError, match="line 1"):
        read_document(str(bad))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    with pytest.raises(InputError, match=f"^{re.escape(str(binary))}: not UTF-8 text"):
        read_document(str(binary))


def test_document_digest_is_stable():
    a = document_digest(emit_builtin("a21-ex1"))
    b = document_digest(emit_builtin("a21-ex1"))
    c = document_digest(emit_builtin("a21-ex3"))
    assert a == b != c


def test_cli_check_builtin_passes(capsys):
    code, out, err = run_cli(capsys, "check", "--builtin", "a21-ex1", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["verdict"] is True
    assert payload["results"]["counterexamples"] == []
    assert payload["command"] == "check"


def test_cli_census_example3(capsys):
    code, out, err = run_cli(
        capsys, "census", "--builtin", "a21-ex3", "--q", "2", "--e", "0,1,1"
    )
    assert code == 0
    payload = json.loads(out)
    (result,) = payload["results"]
    (row,) = result["per_e"]
    assert row["total_points"] == 5
    assert row["transverse_points"] == 4
    assert len(row["entries"]) == 5


def test_cli_census_on_non_affine_quiver(capsys, tmp_path):
    # the homological locus needs no affine structure at all
    doc = {
        "quiver": {
            "vertices": ["1", "2"],
            "arrows": [{"id": "a", "from": "1", "to": "2"}],
        },
        "representation": {"dims": {"1": 1, "2": 1}, "matrices": {"a": [["1"]]}},
    }
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "census", "--input", str(path), "--q", "2")
    assert code == 0
    (result,) = json.loads(out)["results"]
    assert result["total_points"] == result["total_transverse"] == 3
    entries = [x for row in result["per_e"] for x in row["entries"]]
    assert len(entries) == 3
    assert all(x["transverse"] for x in entries)


def test_cli_check_on_non_regular_module_is_an_input_error(capsys, tmp_path):
    # Kronecker P0 + P2: non-rigid with nonzero defect, so the tube pipeline
    # does not apply; check must exit 2 like tube, not report an internal failure
    doc = {
        "quiver": {
            "vertices": ["1", "2"],
            "arrows": [{"id": "a", "from": "1", "to": "2"}, {"id": "b", "from": "1", "to": "2"}],
        },
        "representation": {
            "dims": {"1": 2, "2": 4},
            "matrices": {
                "a": [["0", "0"], ["1", "0"], ["0", "1"], ["0", "0"]],
                "b": [["0", "0"], ["0", "0"], ["1", "0"], ["0", "1"]],
            },
        },
    }
    path = tmp_path / "p0p2.json"
    path.write_text(json.dumps(doc))
    for command in ("tube", "check"):
        code, out, err = run_cli(capsys, command, "--input", str(path), "--q", "2")
        assert (code, out) == (2, ""), command
        assert "no nonzero submodule of defect zero" in err


def test_cli_tube_reports_coordinates(capsys):
    code, out, err = run_cli(capsys, "tube", "--builtin", "kronecker-reg:2", "--q", "2,3")
    assert code == 0
    payload = json.loads(out)
    for result in payload["results"]:
        assert result["tube"]["tube_rank"] == 1
        assert result["tube"]["l"] == 2
        assert result["tube"]["k"] == 0
        assert result["tube"]["ray_dims"] == [[0, 0], [1, 1], [2, 2]]


def test_cli_tube_on_rigid_module(capsys):
    code, out, err = run_cli(capsys, "tube", "--builtin", "kronecker-preproj:1", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0] == {"q": 2, "rigid": True}


def test_cli_chi_example1(capsys):
    code, out, err = run_cli(
        capsys, "chi", "--builtin", "a21-ex1", "--q", "2,3", "--e", "0,2,1"
    )
    assert code == 0
    payload = json.loads(out)
    (result,) = payload["results"]
    assert result["coefficients"] == [1, 1]
    assert result["euler_characteristic"] == 2
    assert result["check_sample"] == [5, 6]


def test_cli_chi_flags_non_polynomial_counts(capsys):
    code, out, err = run_cli(
        capsys, "chi", "--builtin", "kronecker-reg:4", "--q", "2,3", "--e", "0,2"
    )
    assert code == 3
    payload = json.loads(out)
    assert "error" in payload["results"][0]


def test_cli_chi_says_why_it_exits_3(capsys):
    # one line per failing slice on stderr, as check prints one per prime
    code, out, err = run_cli(capsys, "chi", "--builtin", "kronecker-reg:2", "--q", "2")
    assert code == 3
    failed = [row for row in json.loads(out)["results"] if "error" in row]
    assert [row["e"] for row in failed] == [[0, 1], [1, 2]]
    lines = err.splitlines()
    assert lines[:-1] == [
        f"internal check failed: e = {tuple(row['e'])}: {row['error']}" for row in failed
    ]
    assert lines[0] == (
        "internal check failed: e = (0, 1): count not polynomial on sampled range: "
        "samples=[(2, 3)], check q=3 gave 4, interpolation gave 3"
    )
    assert lines[-1].startswith("chi completed in ")


def test_cli_example_round_trip(capsys):
    code, out, err = run_cli(capsys, "example", "--builtin", "kronecker-reg:2")
    assert code == 0
    assert json.loads(out) == emit_builtin("kronecker-reg:2")


def test_cli_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", "--input", str(tmp_path / "none.json"))
    assert code == 2
    bad = tmp_path / "malformed.json"
    bad.write_text("{]")
    code, _, err = run_cli(capsys, "check", "--input", str(bad))
    assert code == 2
    code, _, err = run_cli(capsys, "example", "--builtin", "bogus")
    assert code == 2
    code, _, err = run_cli(capsys, "census", "--builtin", "a21-ex3", "--q", "4")
    assert code == 2
    code, _, err = run_cli(capsys, "census", "--builtin", "a21-ex3", "--e", "1,2")
    assert code == 2


def test_cli_undecodable_documents_exit_2(capsys, tmp_path):
    # nesting past the recursion limit, and an integer past int's 4,300-digit
    # limit: json raises RecursionError and ValueError, not JSONDecodeError
    for name, text in (("deep.json", "[" * 100_000 + "]" * 100_000), ("digits.json", "1" * 5000)):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, "census", "--input", str(path), "--q", "2")
        assert (code, out) == (2, ""), name
        assert err.startswith("error: "), name


def test_exponent_entries_are_refused(capsys, tmp_path):
    # Fraction would expand '1e999999999' into a billion-digit integer
    for text in ("1e5", "2E-1"):
        doc = emit_builtin("kronecker-reg:2")
        doc["representation"]["matrices"]["a"][0][0] = text
        with pytest.raises(InputError, match="not an exact rational"):
            parse_document(doc)
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "census", "--input", str(path), "--q", "2")
        assert (code, out) == (2, ""), text
        assert "not an exact rational" in err, text
    for text, value in ((3, 3), ("-4", -4), ("6/4", Fraction(3, 2)), ("0.25", Fraction(1, 4))):
        assert QQ.parse(text) == value


def test_cli_unexpected_errors_exit_3(capsys, monkeypatch):
    import qgrass.cli as cli_mod

    def broken(rep, qs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_mod, "compare_transverse_loci", broken)
    code, out, err = run_cli(capsys, "check", "--builtin", "kronecker-reg:1", "--q", "2")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: RuntimeError: boom\n")
    assert "Traceback" in err


def test_cli_checks_prime_lists_like_the_library(capsys):
    # the CLI parses ints and leaves every other check to the library's
    _, rep = parse_document(emit_builtin("a21-ex3"))
    for text, primes in (("4", [4]), ("2,2", [2, 2]), (",", []), ("3, 5,3", [3, 5, 3])):
        with pytest.raises(InputError) as library:
            compare_transverse_loci(rep, primes)
        for command in ("census", "check", "chi"):
            code, out, err = run_cli(capsys, command, "--builtin", "a21-ex3", "--q", text)
            assert (code, out) == (2, ""), (command, text)
            assert err == f"error: {library.value}\n", (command, text)
    code, out, err = run_cli(capsys, "census", "--builtin", "a21-ex3", "--q", "2,x")
    assert (code, out, err) == (2, "", "error: bad prime list '2,x'\n")


@pytest.mark.parametrize("command", ["check", "tube"])
def test_cli_full_census_commands_reject_e(capsys, command):
    code, out, err = run_cli(capsys, command, "--builtin", "a21-ex3", "--q", "2", "--e", "0,1,1")
    assert (code, out) == (2, "")
    assert f"--e does not apply to {command}" in err


@pytest.mark.parametrize("command", ["census", "chi"])
def test_cli_empty_e_is_an_input_error(capsys, command):
    # an explicit empty vector is not every e
    code, out, err = run_cli(capsys, command, "--builtin", "a21-ex3", "--q", "2", "--e", "")
    assert (code, out) == (2, "")
    assert err == "error: bad dimension vector ''\n"


def test_cli_has_no_all_e_flag(capsys):
    # every command already defaults to every e
    code, out, err = run_cli(capsys, "census", "--builtin", "a21-ex3", "--q", "2", "--all-e")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --all-e" in err


def test_cli_has_no_transverse_command(capsys):
    # census reports the homological locus: per_e[].transverse_points, entries[].transverse
    code, out, err = run_cli(capsys, "transverse", "--builtin", "a21-ex3", "--q", "2")
    assert (code, out) == (2, "")
    assert "invalid choice: 'transverse'" in err


def test_cli_tube_and_check_give_one_error_off_affine_quivers(capsys, tmp_path):
    # a non-rigid module on the 3-Kronecker quiver, which is not affine
    doc = {
        "quiver": {
            "vertices": ["1", "2"],
            "arrows": [{"id": x, "from": "1", "to": "2"} for x in ("a", "b", "c")],
        },
        "representation": {
            "dims": {"1": 1, "2": 1},
            "matrices": {"a": [["1"]], "b": [["0"]], "c": [["0"]]},
        },
    }
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(doc))
    errors = []
    for command in ("tube", "check"):
        code, out, err = run_cli(capsys, command, "--input", str(path), "--q", "2")
        assert (code, out) == (2, ""), command
        errors.append(err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: combinatorial transverse locus undefined")


def test_cli_internal_errors_exit_3(capsys, tmp_path):
    # decomposable regular input: ambiguous quasi-socle inside check
    doc = {
        "quiver": {
            "vertices": ["1", "2"],
            "arrows": [{"id": "a", "from": "1", "to": "2"}, {"id": "b", "from": "1", "to": "2"}],
        },
        "representation": {
            "dims": {"1": 2, "2": 2},
            "matrices": {"a": [["1", "0"], ["0", "1"]], "b": [["0", "0"], ["0", "1"]]},
        },
    }
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "check", "--input", str(path), "--q", "2")
    assert code == 3
    payload = json.loads(out)
    assert payload["results"]["verdict"] is False
    assert "AmbiguousQuasiSocle" in err


def test_cli_check_counterexample_exit_code(capsys, monkeypatch):
    # the loci coincide on every honest fixture, so force a disagreement to
    # pin the exit-code mapping
    import qgrass.cli as cli_mod
    from qgrass.tubes import TransverseComparison, FieldComparison

    fake = TransverseComparison(
        per_field=[FieldComparison(q=2, per_e={(0, 0): (0, 0, False)})],
        counterexamples=[],
    )
    monkeypatch.setattr(cli_mod, "compare_transverse_loci", lambda rep, qs: fake)
    code, out, _ = run_cli(capsys, "check", "--builtin", "kronecker-reg:1", "--q", "2")
    assert code == 1
    assert json.loads(out)["results"]["verdict"] is False


# kronecker-reg:3 with its vertices declared as ["2", "1"]: a point's spaces
# and dimension vector are listed as (V_2, V_1), while the walk fixes V_1
# first.  Slice (2, 1) has one pinched point, ray(1) <= N <= ray(2), and the
# walk emits the two kept points below as KEPT_A, KEPT_B, against sort_key.
PINCHED = (((1, 0, 0), (0, 1, 0)), ((1, 0, 0),))
KEPT_A = (((1, 0, 0), (0, 1, 1)), ((1, 0, 0),))
KEPT_B = (((1, 0, 0), (0, 1, 0)), ((1, 1, 0),))


def test_cli_check_reports_counterexamples_in_sort_key_order(capsys, monkeypatch, tmp_path):
    # the loci coincide on every honest fixture, so census is wrapped to swap
    # the pinched point's ext with that of two kept points
    import dataclasses
    import importlib

    tubes = importlib.import_module("qgrass.tubes")
    real_census = tubes.census
    forced_ext = {PINCHED: 0, KEPT_A: 1, KEPT_B: 1}

    def forced_census(rep_q, e=None):
        report = real_census(rep_q, e)
        report[(2, 1)] = [
            dataclasses.replace(x, ext_dim=forced_ext.get(
                tuple(tuple(map(tuple, s.matrix.to_rows())) for s in x.point.spaces), x.ext_dim))
            for x in report[(2, 1)]
        ]
        return report

    monkeypatch.setattr(tubes, "census", forced_census)
    doc = emit_builtin("kronecker-reg:3")
    doc["quiver"]["vertices"] = ["2", "1"]
    path = tmp_path / "kronecker-reg-3-reversed.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "check", "--input", str(path), "--q", "2,3")
    assert code == 1
    results = json.loads(out)["results"]
    assert results["verdict"] is False

    got = [(ce.pop("q"), ce.pop("e"), ce.pop("point"), ce) for ce in results["counterexamples"]]
    want = [
        (q, [2, 1], {"dim_vector": [2, 1], "spaces": {"2": v2, "1": v1}},
         {"ext_dim": ext, "side": side, "contains_lower": lower, "contained_in_upper": upper})
        for q in (2, 3)
        for v2, v1, ext, side, lower, upper in (
            ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0]], 0, "homological_only", True, True),
            ([[1, 0, 0], [0, 1, 0]], [[1, 1, 0]], 1, "combinatorial_only", False, True),
            ([[1, 0, 0], [0, 1, 1]], [[1, 0, 0]], 1, "combinatorial_only", True, False),
        )
    ]
    assert got == want

    # (combinatorial, homological) per e; only slice (2, 1) differs
    counts = {
        2: {(0, 0): (1, 1), (0, 1): (0, 0), (0, 2): (0, 0), (0, 3): (0, 0),
            (1, 0): (7, 7), (1, 1): (0, 0), (1, 2): (0, 0), (1, 3): (0, 0),
            (2, 0): (7, 7), (2, 1): (8, 7), (2, 2): (0, 0), (2, 3): (0, 0),
            (3, 0): (1, 1), (3, 1): (7, 7), (3, 2): (7, 7), (3, 3): (1, 1)},
        3: {(0, 0): (1, 1), (0, 1): (0, 0), (0, 2): (0, 0), (0, 3): (0, 0),
            (1, 0): (13, 13), (1, 1): (0, 0), (1, 2): (0, 0), (1, 3): (0, 0),
            (2, 0): (13, 13), (2, 1): (15, 14), (2, 2): (0, 0), (2, 3): (0, 0),
            (3, 0): (1, 1), (3, 1): (13, 13), (3, 2): (13, 13), (3, 3): (1, 1)},
    }
    assert [fc["q"] for fc in results["per_field"]] == [2, 3]
    for fc in results["per_field"]:
        assert fc["verdict"] is False
        assert {
            tuple(x["e"]): (x["combinatorial"], x["homological"]) for x in fc["per_e"]
        } == counts[fc["q"]]
        assert [tuple(x["e"]) for x in fc["per_e"] if not x["equal"]] == [(2, 1)]


def test_cli_reports_are_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "census", "--builtin", "a21-ex3", "--q", "2,3")
    _, second, _ = run_cli(capsys, "census", "--builtin", "a21-ex3", "--q", "2,3")
    assert first == second
    _, third, _ = run_cli(capsys, "check", "--builtin", "kronecker-reg:2", "--q", "2")
    _, fourth, _ = run_cli(capsys, "check", "--builtin", "kronecker-reg:2", "--q", "2")
    assert third == fourth


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(st.integers(-(2**70), 2**70))
    | st.dictionaries(st.text(), inner),
    max_leaves=40,
)

# one rows list held more than once, as a census report holds each space's
# rows at every point with that space; its text depends on its indent
ROWS = [[1, 0, 2], [0, 1, 3]]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(JSON_VALUES)
@example([])
@example({})
@example({"a": [[], {}, {"b": [[[]]], "c": {}}], "d": {}})
@example([True, 1, 0])
@example([1, 2.0])
@example([[], [1]])
@example((1, 2, -(2**70)))
@example([float("nan"), float("inf"), float("-inf"), -0.0, 1e300])
@example({"\x00\n\t\"\\": "\u03b1\u2028\U0001f600\x7f", "\u03b1": None, "": False})
@example([ROWS, ROWS])
@example({"a": ROWS, "b": {"c": ROWS}})
@example([ROWS, {"a": ROWS}, ROWS])
def test_emit_matches_stdlib_indent(value):
    # the report writer gives json.dumps(..., sort_keys=True, indent=2) byte for byte
    assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def test_census_report_builds_one_rows_list_per_space():
    # every point that holds a space shares one rows list, which the writer
    # then writes once per indent
    _, rep = builtin_rep("kronecker-reg:3")
    rep_q = reduce_mod_p(rep, 3)
    payload = _census_result(rep_q, 3, None)
    rows_lists = {
        id(rows)
        for row in payload["per_e"]
        for entry in row["entries"]
        for rows in entry["point"]["spaces"].values()
    }
    spaces = {space for point in enumerate_subreps(rep_q) for space in point.spaces}
    assert len(rows_lists) == len(spaces)
    assert payload["total_points"] > len(spaces)


def test_emit_rejects_non_str_keys():
    # json would write 1 as "1"; no report has such a key
    for value in ({1: 2}, [{"a": {1: 2}}]):
        with pytest.raises(TypeError):
            _dumps(value)


def test_cli_table_format(capsys):
    code, out, err = run_cli(
        capsys, "census", "--builtin", "kronecker-reg:1", "--q", "2", "--format", "table"
    )
    assert code == 0
    assert "total_points" in out
    assert not out.lstrip().startswith("{")


def test_cli_byte_stable_across_processes():
    # different hash seeds must not leak into report ordering
    import subprocess
    import sys

    # the environment is reduced so the hash seed is the only variable
    outputs = []
    for seed in ("0", "4242"):
        proc = subprocess.run(
            [sys.executable, "-m", "qgrass", "check", "--builtin", "a21-ex3", "--q", "2"],
            capture_output=True,
            text=True,
            env={**CHILD_ENV, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_edge_fixtures_smoke(capsys):
    # zero-width vertex spaces and the simple projective both run end to end
    code, out, _ = run_cli(capsys, "check", "--builtin", "a21-ray:1", "--q", "2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["verdict"] is True
    assert all(fc["rigid"] for fc in payload["results"]["per_field"])
    code, out, _ = run_cli(capsys, "check", "--builtin", "kronecker-preproj:0", "--q", "2")
    assert code == 0
