"""The record types: keyword construction, field access, equality and repr."""

from __future__ import annotations

import subprocess
import sys

import pytest

from qgrass import (
    CensusEntry,
    CombinatorialTransverse,
    CountingPolynomial,
    EulerData,
    FieldComparison,
    SubrepPoint,
    TransverseComparison,
    TubeData,
    census,
    compute_euler_data,
    reduce_mod_p,
)
from qgrass.tubes import Counterexample

from conftest import CHILD_ENV, builtin_rep


@pytest.fixture(scope="module")
def entry():
    """The one point of kronecker-reg:2 at e = (1, 1) over F_2."""
    _, rep = builtin_rep("kronecker-reg:2")
    [entry] = census(reduce_mod_p(rep, 2), (1, 1))[(1, 1)]
    return entry


def record_fields(entry):
    """One keyword set per record type."""
    point = entry.point
    quiver, _ = builtin_rep("kronecker-reg:2")
    ed = compute_euler_data(quiver)
    tube_fields = {
        "quasi_socle_dim": (1, 1), "tube_rank": 1, "quasi_length": 2, "l": 2, "k": 0,
        "ray_dims": ((0, 0), (1, 1), (2, 2)),
    }
    tube = TubeData(**tube_fields)
    fc = FieldComparison(q=2, per_e={(1, 1): (1, 1, True)}, tube=tube, error=None)
    return [
        (SubrepPoint, {"spaces": point.spaces, "dim_vector": (1, 1)}),
        (CensusEntry, {"point": point, "hom_dim": 1, "ext_dim": 1}),
        (CountingPolynomial, {"coefficients": (1, 1), "samples": ((2, 3), (3, 4)), "check_sample": (5, 6)}),
        (EulerData, {
            "quiver": quiver, "euler_matrix": ed.euler_matrix, "coxeter_matrix": ed.coxeter_matrix,
            "coxeter_inverse": ed.coxeter_inverse, "is_affine": True, "null_root": (1, 1),
        }),
        (TubeData, tube_fields),
        (CombinatorialTransverse, {"tube": tube, "rays": (point,)}),
        (Counterexample, {
            "q": 2, "e": (1, 1), "point": point, "ext_dim": 1, "comb_flags": (True, True),
            "side": "homological_only",
        }),
        (FieldComparison, {"q": 2, "per_e": {(1, 1): (1, 1, True)}, "tube": tube, "error": None}),
        (TransverseComparison, {"per_field": [fc], "counterexamples": []}),
    ]


def test_records_construct_by_keyword_and_compare_by_fields(entry):
    for cls, fields in record_fields(entry):
        record = cls(**fields)
        for name, value in fields.items():
            assert getattr(record, name) is value, (cls.__name__, name)
        assert record == cls(**fields), cls.__name__
        for name in fields:
            assert record != cls(**{**fields, name: object()}), (cls.__name__, name)


def test_records_are_immutable_and_replace_gives_a_changed_copy(entry):
    for cls, fields in record_fields(entry):
        record = cls(**fields)
        assert not hasattr(record, "__dict__"), cls.__name__
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            changed = record._replace(**{name: None})
            assert getattr(changed, name) is None and type(changed) is cls
            assert all(getattr(changed, other) is fields[other] for other in fields if other != name)
        assert record == cls(**fields), "the original is unchanged"


def test_subrep_point_is_a_dict_key(entry):
    point = entry.point
    same = SubrepPoint(spaces=tuple(point.spaces), dim_vector=tuple(point.dim_vector))
    assert same is not point
    assert {point: "n"}[same] == "n"
    assert len({point, same}) == 1


def test_field_comparison_takes_per_e_and_defaults_the_rest():
    # a default per_e would be one dict shared by every comparison
    with pytest.raises(TypeError):
        FieldComparison(q=2)
    fc = FieldComparison(q=3, per_e={})
    assert fc.tube is None and fc.error is None and fc.rigid and fc.verdict


def test_record_reprs_are_pinned(entry):
    # recorded with the earlier dataclass records; the NamedTuples keep them
    assert repr(entry) == (
        "CensusEntry(point=SubrepPoint(spaces=(SubspaceBasis(dim=1, ambient=2, rows=[[1, 0]]), "
        "SubspaceBasis(dim=1, ambient=2, rows=[[1, 0]])), dim_vector=(1, 1)), hom_dim=1, ext_dim=1)"
    )
    assert repr(CountingPolynomial.from_samples([(2, 3), (3, 4)], (5, 6))) == (
        "CountingPolynomial(coefficients=(1, 1), samples=((2, 3), (3, 4)), check_sample=(5, 6))"
    )


def test_fresh_import_loads_no_dataclasses_inspect_or_traceback():
    # each costs every CLI run start-up time: dataclasses pulls in inspect,
    # and traceback is needed only when a run fails unexpectedly
    script = (
        "import sys, qgrass, qgrass.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'traceback'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
