import json
import tracemalloc

import numpy as np
import pytest

import ergospec as es
from ergospec.errors import ParseError
from ergospec.serialize import (
    canonical_dumps,
    character_from_json,
    character_to_json,
    digest,
    matrix_from_json,
    matrix_to_json,
    representation_from_json,
    representation_to_json,
    semigroup_from_json,
    semigroup_to_json,
)

from conftest import FIXTURES, SCHEMAS, cyclic_monoid, free, load_fixture


def test_semigroup_round_trip(klein_monoid):
    data = semigroup_to_json(klein_monoid)
    assert semigroup_from_json(data) == klein_monoid
    n2 = free(2)
    assert semigroup_from_json(semigroup_to_json(n2)) == n2


def test_semigroup_unknown_type():
    with pytest.raises(ParseError):
        semigroup_from_json({"type": "group_presentation"})


def test_matrix_round_trip():
    mat = np.array([[1.0 + 2.0j, 0.0], [-0.5, 3.0 - 1.0j]])
    again = matrix_from_json(matrix_to_json(mat))
    np.testing.assert_allclose(again, mat)


def test_matrix_entry_count_mismatch():
    with pytest.raises(ParseError):
        matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})


def test_representation_round_trip(klein_rep):
    data = representation_to_json(klein_rep)
    again = representation_from_json(data)
    assert again.dim == klein_rep.dim
    for a, b in zip(again.matrices, klein_rep.matrices):
        np.testing.assert_allclose(a, b)


def test_representation_wrong_per_tag(klein_rep):
    data = representation_to_json(klein_rep)
    data["matrices"]["per"] = "generator"
    with pytest.raises(ParseError, match="element"):
        representation_from_json(data)


def test_representation_dim_mismatch(klein_rep):
    data = representation_to_json(klein_rep)
    data["dim"] = 5
    with pytest.raises(ParseError, match="does not match"):
        representation_from_json(data)


def test_parse_error_carries_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "semigroup": [,]\n}\n')
    from ergospec.serialize import load_representation
    with pytest.raises(ParseError) as err:
        load_representation(bad)
    assert err.value.line == 2


def test_character_round_trip_exact(klein_monoid):
    dual = es.enumerate_unitary_dual(klein_monoid)
    for chi in dual:
        again = character_from_json(character_to_json(chi), klein_monoid)
        assert again.angles == chi.angles


def test_character_round_trip_gen_values():
    n2 = free(2)
    chi = es.character_from_gen_values(n2, [1j, np.exp(0.7j)])
    again = character_from_json(character_to_json(chi), n2)
    for a, b in zip(again.gen_values, chi.gen_values):
        assert abs(a - b) < 1e-15


def test_character_rejects_non_multiplicative(semilattice_monoid):
    data = {"angles": [["0", "1"], ["1", "2"]]}  # -1 at the absorbing element
    with pytest.raises(ParseError, match="multiplicative"):
        character_from_json(data, semilattice_monoid)


def test_digest_is_stable_under_key_order():
    assert digest({"a": 1, "b": [2, 3]}) == digest({"b": [2, 3], "a": 1})
    assert digest({"a": 1}) != digest({"a": 2})


def test_fixture_files_load_and_validate():
    names = ["klein_four", "semilattice", "threshold", "jordan_half",
             "identity_3", "circulant_stochastic_8",
             "circle_discretization_4", "circle_discretization_8",
             "circle_discretization_16"]
    for name in names:
        rep = representation_from_json(load_fixture(name))
        assert rep.dim >= 1


def test_fixtures_conform_to_schema():
    jsonschema = pytest.importorskip("jsonschema")
    with open(SCHEMAS / "representation.schema.json") as fh:
        schema = json.load(fh)
    with open(SCHEMAS / "semigroup.schema.json") as fh:
        semigroup_schema = json.load(fh)
    # inline the cross-file reference so no registry wiring is needed
    semigroup_schema.pop("$schema", None)
    semigroup_schema.pop("$id", None)
    schema["properties"]["semigroup"] = semigroup_schema
    validator = jsonschema.Draft202012Validator(schema)
    for path in sorted(FIXTURES.glob("*.json")):
        with open(path) as fh:
            data = json.load(fh)
        validator.validate(data)


def test_report_schema_accepts_real_report(klein_rep):
    jsonschema = pytest.importorskip("jsonschema")
    from ergospec.report import analyze
    report = analyze(klein_rep, seed=7)
    with open(SCHEMAS / "report.schema.json") as fh:
        schema = json.load(fh)
    jsonschema.Draft202012Validator(schema).validate(report.to_json())


def test_canonical_dumps_round_trip(klein_rep):
    data = representation_to_json(klein_rep)
    text = canonical_dumps(data)
    assert canonical_dumps(json.loads(text)) == text


def test_decoding_holds_the_matrices_once():
    # each matrix is decoded only when validation copies it, so decoding never
    # holds the input twice: the peak above what is retained stays below it
    data = representation_to_json(es.regular_representation(cyclic_monoid(128)))
    tracemalloc.start()
    try:
        rep = representation_from_json(data)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.dim == 128
    assert peak - retained < retained
