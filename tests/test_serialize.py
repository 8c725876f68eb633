import contextlib
import dataclasses
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest

import ergospec as es
from ergospec.cli import main
from ergospec.errors import ParseError
from ergospec.serialize import (
    canonical_dumps,
    character_from_json,
    load_representation,
    matrix_from_json,
    matrix_to_json,
    representation_digest,
    representation_from_json,
    semigroup_from_json,
)

from conftest import FIXTURES, SCHEMAS, cyclic_monoid, free, load_fixture


def representation_to_json(rep):
    """The wire format of a representation, which representation_from_json
    reads back."""
    return {
        "semigroup": rep.semigroup.to_json(),
        "dim": rep.dim,
        "matrices": {
            "per": "element" if rep.is_finite else "generator",
            "list": [matrix_to_json(a) for a in rep.matrices],
        },
    }


def test_semigroup_round_trip(klein_monoid):
    data = klein_monoid.to_json()
    assert semigroup_from_json(data) == klein_monoid
    n2 = free(2)
    assert semigroup_from_json(n2.to_json()) == n2


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
    with pytest.raises(ParseError) as err:
        load_representation(bad)
    assert err.value.line == 2


def test_character_round_trip_exact(klein_monoid):
    dual = es.enumerate_unitary_dual(klein_monoid)
    for chi in dual:
        again = character_from_json(chi.to_json(), klein_monoid)
        assert again.angles == chi.angles


def test_character_round_trip_gen_values():
    n2 = free(2)
    chi = es.character_from_gen_values(n2, [1j, np.exp(0.7j)])
    again = character_from_json(chi.to_json(), n2)
    for a, b in zip(again.gen_values, chi.gen_values):
        assert abs(a - b) < 1e-15


def test_character_rejects_non_multiplicative(semilattice_monoid):
    data = {"angles": [["0", "1"], ["1", "2"]]}  # -1 at the absorbing element
    with pytest.raises(ParseError, match="multiplicative"):
        character_from_json(data, semilattice_monoid)


FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.json"))


def _entrywise(data):
    """The fixture's representation with each entry built as complex(re, im),
    which keeps an imaginary -0.0 that the decoder's re + 1j * im drops."""
    mats = []
    for m in data["matrices"]["list"]:
        entries = [complex(x, y) for x, y in zip(m["re"], m["im"])]
        mats.append(np.array(entries).reshape(m["rows"], m["cols"]))
    return es.validate_representation(semigroup_from_json(data["semigroup"]), mats)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cli_and_in_memory_inputs_share_the_digest(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["spectrum", str(FIXTURES / f"{name}.json"), "--format", "json"])
    assert code == 0
    from_file = json.loads(out.getvalue())["input_digest"]
    for rep in (representation_from_json(load_fixture(name)), _entrywise(load_fixture(name))):
        report = es.analyze(rep, sections=["spectrum"])
        assert report.data["input_digest"] == from_file


def _rewritten(obj, leaf=lambda x: x, order=list):
    """A copy of a JSON tree with each dict's keys in order(dict) and each
    leaf x replaced by leaf(x)."""
    if isinstance(obj, dict):
        return {key: _rewritten(obj[key], leaf, order) for key in order(obj)}
    if isinstance(obj, list):
        return [_rewritten(x, leaf, order) for x in obj]
    return leaf(obj)


REWRITES = {
    "indent_2": lambda data: json.dumps(data, indent=2),
    "reversed_keys": lambda data: json.dumps(
        _rewritten(data, order=lambda d: reversed(list(d)))),
    "1.0_as_1": lambda data: json.dumps(_rewritten(
        data, lambda x: int(x) if isinstance(x, float) and x.is_integer() else x)),
    "-0.0_as_0.0": lambda data: json.dumps(_rewritten(
        data, lambda x: x + 0.0 if isinstance(x, float) else x)),
}


@pytest.mark.parametrize("rewrite", sorted(REWRITES))
def test_digest_is_stable_under_rewriting_the_file(rewrite, tmp_path):
    # the circle fixtures hold -0.0 entries, most fixtures 1.0
    for name in FIXTURE_NAMES:
        path = FIXTURES / f"{name}.json"
        again = tmp_path / f"{name}.json"
        again.write_text(REWRITES[rewrite](load_fixture(name)))
        assert (representation_digest(load_representation(again))
                == representation_digest(load_representation(path))), name


def _one_ulp_up(data):
    data["matrices"]["list"][0]["re"][0] = float(np.nextafter(
        data["matrices"]["list"][0]["re"][0], np.inf))


def _swap_matrices(data):
    mats = data["matrices"]["list"]
    mats[0], mats[1] = mats[1], mats[0]


@pytest.mark.parametrize("name, change", [
    ("klein_four", _one_ulp_up),
    ("circle_discretization_4", _one_ulp_up),
    ("circle_discretization_4", _swap_matrices),
])
def test_digest_sees_the_matrices(name, change):
    data = load_fixture(name)
    before = representation_digest(representation_from_json(data))
    change(data)
    assert representation_digest(representation_from_json(data)) != before


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_digest_hashes_the_matrices_in_input_order(path):
    # the one update over the stack gives the bytes of one update per
    # matrix, in input order, of a + 0.0 as little-endian complex128
    rep = load_representation(str(path))
    header = canonical_dumps({"dim": rep.dim, "semigroup": rep.semigroup.to_json()})
    expected = hashlib.sha256(header.encode())
    for entry in load_fixture(path.stem)["matrices"]["list"]:
        a = matrix_from_json(entry)
        expected.update(np.ascontiguousarray(a + 0.0, dtype="<c16"))
    assert representation_digest(rep) == expected.hexdigest()


def test_digest_sees_the_semigroup():
    # the trivial representations of the semilattice {0, 1} and of Z2,
    # whose Cayley tables differ in the entry 1 + 1 alone
    def trivial(table):
        return representation_from_json({
            "semigroup": {"type": "cayley", "size": 2, "neutral": 0, "table": table},
            "dim": 1,
            "matrices": {"per": "element", "list": [matrix_to_json(np.eye(1))] * 2}})

    semilattice, z2 = trivial([[0, 1], [1, 1]]), trivial([[0, 1], [1, 0]])
    assert representation_digest(semilattice) != representation_digest(z2)
    moved = dataclasses.replace(
        semilattice, semigroup=dataclasses.replace(semilattice.semigroup, neutral=1))
    assert representation_digest(moved) != representation_digest(semilattice)


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
    # each matrix is written into its row of the stack that the
    # representation keeps, so decoding never holds the input twice: the
    # peak above what is retained stays below it
    data = representation_to_json(es.regular_representation(cyclic_monoid(128)))
    tracemalloc.start()
    try:
        rep = representation_from_json(data)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.dim == 128
    assert peak - retained < retained
