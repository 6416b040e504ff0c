"""Input documents, built-in generators, and the command-line interface."""

from __future__ import annotations

import copy
import json
import re

import pytest

from qgrass import (
    InputError,
    builtin_names,
    document_digest,
    emit_builtin,
    parse_document,
    read_document,
    representation_document,
)
from qgrass.cli import main
from conftest import PACKAGE_ROOT


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


def test_round_trip_documents():
    for name in ("a21-ex1", "a21-ex3", "kronecker-reg:3", "kronecker-preproj:2"):
        doc = emit_builtin(name)
        quiver, rep = parse_document(doc)
        rebuilt = representation_document(quiver, rep, name=name)
        assert rebuilt["quiver"] == doc["quiver"]
        assert rebuilt["representation"] == doc["representation"]
        quiver2, rep2 = parse_document(rebuilt)
        assert quiver2 == quiver
        assert rep2.dims == rep.dims
        assert rep2.matrices == rep.matrices


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


def test_cli_transverse_on_non_affine_quiver(capsys, tmp_path):
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
    code, out, err = run_cli(capsys, "transverse", "--input", str(path), "--q", "2")
    assert code == 0
    payload = json.loads(out)
    per_e = payload["results"][0]["per_e"]
    assert sum(row["total_points"] for row in per_e) == 3
    assert all(row["transverse_points"] == row["total_points"] for row in per_e)


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


@pytest.mark.parametrize("command", ["check", "tube"])
def test_cli_full_census_commands_reject_e(capsys, command):
    code, out, err = run_cli(capsys, command, "--builtin", "a21-ex3", "--q", "2", "--e", "0,1,1")
    assert (code, out) == (2, "")
    assert f"--e does not apply to {command}" in err


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
        per_field=[FieldComparison(q=2, per_e={(0, 0): ([], [], False)})],
        counterexamples=[],
    )
    monkeypatch.setattr(cli_mod, "compare_transverse_loci", lambda rep, qs: fake)
    code, out, _ = run_cli(capsys, "check", "--builtin", "kronecker-reg:1", "--q", "2")
    assert code == 1
    assert json.loads(out)["results"]["verdict"] is False


def test_cli_reports_are_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "census", "--builtin", "a21-ex3", "--q", "2,3")
    _, second, _ = run_cli(capsys, "census", "--builtin", "a21-ex3", "--q", "2,3")
    assert first == second
    _, third, _ = run_cli(capsys, "check", "--builtin", "kronecker-reg:2", "--q", "2")
    _, fourth, _ = run_cli(capsys, "check", "--builtin", "kronecker-reg:2", "--q", "2")
    assert third == fourth


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
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": PACKAGE_ROOT},
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
